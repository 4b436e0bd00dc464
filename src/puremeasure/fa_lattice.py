"""Exact kernel for finitely additive measures on finite set algebras.

Measures are stored on the blocks of a finite partition of a ground set and
take exact rational values, so lattice identities (Jordan decomposition,
total variation, band projections) are decided by equality instead of
floating-point tolerances.  Every closed form has a brute-force counterpart
(partition enumeration, subset enumeration) used as an oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

MAX_ATOMS = 12
PARTITION_ENUM_BOUND = 5  # Bell(5) = 52 partitions, oracle work stays trivial


class NotInAlgebra(ValueError):
    """A set splits a block of the algebra it is used with."""


class TooLarge(ValueError):
    """An exhaustive enumeration would exceed its configured bound."""


class NegativeMeasure(ValueError):
    """The operation is defined for nonnegative measures only."""


class MeasurabilityMismatch(ValueError):
    """A simple function is not constant on the blocks of the target algebra."""


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of distinct atom labels."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not 1 <= len(self.atoms) <= MAX_ATOMS:
            raise ValueError(f"need 1..{MAX_ATOMS} atoms, got {len(self.atoms)}")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom labels must be unique")

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise KeyError(f"unknown atom {label!r}") from None

    def subset(self, labels: Iterable[str]) -> "AlgebraSet":
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return AlgebraSet(self, mask)

    @property
    def empty(self) -> "AlgebraSet":
        return AlgebraSet(self, 0)

    @property
    def full(self) -> "AlgebraSet":
        return AlgebraSet(self, (1 << self.size) - 1)

    def all_subsets(self) -> Iterator["AlgebraSet"]:
        for mask in range(1 << self.size):
            yield AlgebraSet(self, mask)


@dataclass(frozen=True)
class AlgebraSet:
    """Subset of the ground set, stored as a membership bitmask."""

    ground: GroundSet
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.ground.size):
            raise ValueError("bitmask out of range for ground set")

    def labels(self) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.ground.atoms) if self.mask >> i & 1)

    def union(self, other: "AlgebraSet") -> "AlgebraSet":
        return AlgebraSet(self.ground, self.mask | other.mask)

    def intersection(self, other: "AlgebraSet") -> "AlgebraSet":
        return AlgebraSet(self.ground, self.mask & other.mask)

    def complement(self) -> "AlgebraSet":
        return AlgebraSet(self.ground, self.ground.full.mask & ~self.mask)

    def issubset(self, other: "AlgebraSet") -> bool:
        return self.mask & ~other.mask == 0

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.ground.index(label) & 1)


@dataclass(frozen=True)
class SubAlgebra:
    """Algebra generated by a partition of the atoms into blocks.

    Its members are exactly the unions of blocks; membership of an arbitrary
    atom set is decidable, which is what makes the outer measure on
    non-measurable sets nontrivial.
    """

    ground: GroundSet
    blocks: tuple[int, ...]  # bitmasks, pairwise disjoint, covering; order is part of the identity

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        cover = 0
        for b in self.blocks:
            if b == 0:
                raise ValueError("empty block")
            if cover & b:
                raise ValueError("blocks must be disjoint")
            cover |= b
        if cover != self.ground.full.mask:
            raise ValueError("blocks must cover all atoms")

    @classmethod
    def atoms(cls, ground: GroundSet) -> "SubAlgebra":
        return cls(ground, tuple(1 << i for i in range(ground.size)))

    @classmethod
    def from_blocks(cls, ground: GroundSet, blocks: Sequence[Sequence[str]]) -> "SubAlgebra":
        return cls(ground, tuple(ground.subset(b).mask for b in blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def contains(self, s: AlgebraSet) -> bool:
        inside = 0
        for b in self.blocks:
            if b & ~s.mask == 0:
                inside |= b
        return inside == s.mask

    def require(self, s: AlgebraSet) -> None:
        if s.ground != self.ground:
            raise NotInAlgebra("set lives on a different ground set")
        if not self.contains(s):
            raise NotInAlgebra(f"set {s.labels()} splits a block")

    def blocks_within(self, mask: int) -> list[int]:
        return [i for i, b in enumerate(self.blocks) if b & ~mask == 0]

    def blocks_meeting(self, mask: int) -> list[int]:
        return [i for i, b in enumerate(self.blocks) if b & mask]

    def block_of_atom(self, atom_index: int) -> int:
        bit = 1 << atom_index
        for i, b in enumerate(self.blocks):
            if b & bit:
                return i
        raise KeyError(atom_index)

    def members(self) -> Iterator[AlgebraSet]:
        """All sets of the generated algebra (2**block_count of them)."""
        k = self.block_count
        for sel in range(1 << k):
            mask = 0
            for i in range(k):
                if sel >> i & 1:
                    mask |= self.blocks[i]
            yield AlgebraSet(self.ground, mask)


@dataclass(frozen=True)
class _BlockValued:
    algebra: SubAlgebra
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_frac(v) for v in self.values))
        if len(self.values) != self.algebra.block_count:
            raise ValueError("one value per block required")

    # arithmetic keeps the operand's class: measures give measures, functions give functions
    def __add__(self, other):
        _require_shared(self, other)
        return type(self)(self.algebra, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        _require_shared(self, other)
        return type(self)(self.algebra, tuple(a - b for a, b in zip(self.values, other.values)))

    def scaled(self, c):
        c = _frac(c)
        return type(self)(self.algebra, tuple(c * v for v in self.values))


class FAMeasure(_BlockValued):
    """Bounded finitely additive measure on the algebra of a finite partition.

    Finite additivity holds by construction: the value of a union of blocks
    is the sum of the block values.
    """

    @classmethod
    def on_atoms(cls, ground: GroundSet, values: Sequence) -> "FAMeasure":
        return cls(SubAlgebra.atoms(ground), tuple(values))

    @property
    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __neg__(self) -> "FAMeasure":
        return FAMeasure(self.algebra, tuple(-v for v in self.values))


class SimpleFunction(_BlockValued):
    """Function constant on each block of its algebra."""

    @classmethod
    def on_atoms(cls, ground: GroundSet, values: Sequence) -> "SimpleFunction":
        return cls(SubAlgebra.atoms(ground), tuple(values))

    @classmethod
    def constant(cls, algebra: SubAlgebra, c) -> "SimpleFunction":
        return cls(algebra, tuple(_frac(c) for _ in algebra.blocks))

    @classmethod
    def indicator(cls, algebra: SubAlgebra, s: AlgebraSet) -> "SimpleFunction":
        algebra.require(s)
        return cls(algebra, tuple(Fraction(1 if b & ~s.mask == 0 else 0) for b in algebra.blocks))

    def value_at_atom(self, atom_index: int) -> Fraction:
        return self.values[self.algebra.block_of_atom(atom_index)]


def _require_shared(a: _BlockValued, b: _BlockValued) -> None:
    if a.algebra != b.algebra:
        raise NotInAlgebra("operands must share one subalgebra")


# ---------------------------------------------------------------- evaluation

def evaluate(mu: FAMeasure, s: AlgebraSet) -> Fraction:
    """Value of mu on an algebra set: sum of the block values inside s."""
    mu.algebra.require(s)
    return sum((mu.values[i] for i in mu.algebra.blocks_within(s.mask)), Fraction(0))


def total_variation(mu: FAMeasure, s: AlgebraSet) -> Fraction:
    """Total variation |mu|(s), closed form: sum of |block value| inside s."""
    mu.algebra.require(s)
    return sum((abs(mu.values[i]) for i in mu.algebra.blocks_within(s.mask)), Fraction(0))


def total_variation_measure(mu: FAMeasure) -> FAMeasure:
    """|mu| as a measure on the same algebra."""
    return FAMeasure(mu.algebra, tuple(abs(v) for v in mu.values))


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def tv_partition_oracle(mu: FAMeasure, s: AlgebraSet) -> Fraction:
    """sup over all finite partitions of s of the summed |mu(part)|.

    Exhaustive over set partitions of the blocks inside s; the supremum over
    arbitrary algebra partitions is attained on block partitions because
    refining within a block is impossible and merging never increases the sum.
    """
    mu.algebra.require(s)
    idxs = mu.algebra.blocks_within(s.mask)
    if len(idxs) > PARTITION_ENUM_BOUND:
        raise TooLarge(f"{len(idxs)} blocks exceed the partition enumeration bound {PARTITION_ENUM_BOUND}")
    best = Fraction(0)
    for partition in _set_partitions(idxs):
        total = sum((abs(sum((mu.values[i] for i in part), Fraction(0))) for part in partition), Fraction(0))
        if total > best:
            best = total
    return best


def lattice_meet_oracle(mu: FAMeasure, nu: FAMeasure, s: AlgebraSet) -> Fraction:
    """(mu ∧ nu)(s) = inf over algebra subsets s' of s of mu(s') + nu(s \\ s').

    Exhaustive over the 2**k unions of the k blocks inside s.
    """
    _require_shared(mu, nu)
    mu.algebra.require(s)
    idxs = mu.algebra.blocks_within(s.mask)
    best = None
    for sel in range(1 << len(idxs)):
        a = sum((mu.values[idxs[i]] for i in range(len(idxs)) if sel >> i & 1), Fraction(0))
        b = sum((nu.values[idxs[i]] for i in range(len(idxs)) if not sel >> i & 1), Fraction(0))
        v = a + b
        if best is None or v < best:
            best = v
    return best if best is not None else Fraction(0)


def lattice_meet(mu: FAMeasure, nu: FAMeasure, s: AlgebraSet) -> Fraction:
    """(mu ∧ nu)(s), closed form: sum of min(mu, nu) over the blocks inside s.

    Each block of s goes to s' or to s \\ s' independently of the others, so
    the infimum over s' picks the smaller value block by block, for signed
    values too.
    """
    _require_shared(mu, nu)
    mu.algebra.require(s)
    return sum(
        (min(mu.values[i], nu.values[i]) for i in mu.algebra.blocks_within(s.mask)),
        Fraction(0),
    )


def jordan_decompose(mu: FAMeasure) -> tuple[FAMeasure, FAMeasure]:
    """Positive and negative parts: mu = pos - neg, pos ⊥ neg, both >= 0.

    pos(s) = sup over algebra subsets s' of s of mu(s'), attained by keeping
    exactly the blocks with positive value.
    """
    pos = FAMeasure(mu.algebra, tuple(max(v, Fraction(0)) for v in mu.values))
    neg = FAMeasure(mu.algebra, tuple(max(-v, Fraction(0)) for v in mu.values))
    return pos, neg


def restrict(mu: FAMeasure, s: AlgebraSet) -> FAMeasure:
    """Restriction (mu ⌊ s): s' -> mu(s ∩ s'), as a measure on the same algebra."""
    mu.algebra.require(s)
    return FAMeasure(
        mu.algebra,
        tuple(v if b & ~s.mask == 0 else Fraction(0) for v, b in zip(mu.values, mu.algebra.blocks)),
    )


def band_decompose(mu: FAMeasure, band: AlgebraSet) -> tuple[FAMeasure, FAMeasure]:
    """Split mu into the part supported in `band` and the orthogonal rest.

    The band of measures supported in a fixed algebra set is a normal
    sublattice; on a finite algebra the projection onto it is restriction,
    so mu = (mu ⌊ band) + (mu ⌊ band^c) with orthogonal parts.
    """
    mu.algebra.require(band)
    return restrict(mu, band), restrict(mu, band.complement())


def sigma_additive_part(mu: FAMeasure) -> tuple[FAMeasure, FAMeasure]:
    """Decompose into a countably additive part and a purely finitely additive part.

    On a finite algebra every bounded finitely additive measure is countably
    additive, so the pure part is always zero; asserted by decomposing
    against the full band.
    """
    return band_decompose(mu, mu.algebra.ground.full)


def continuity_check(mu: FAMeasure, nu: FAMeasure) -> bool:
    """Absolute continuity of mu with respect to nu: mu vanishes on every |nu|-null algebra set.

    The epsilon-delta criterion is computed beside it.  On a finite algebra
    any delta below the smallest positive value of |nu| admits only
    |nu|-null sets, so it reduces to the same condition; the two must agree.
    """
    _require_shared(mu, nu)
    tv = total_variation_measure(nu)
    null_blocks = [i for i, w in enumerate(tv.values) if w == 0]
    wac = all(mu.values[i] == 0 for i in null_blocks)
    # worst |mu(s)| over unions of |nu|-null blocks, via best positive and
    # negative subset sums
    pos = sum((mu.values[i] for i in null_blocks if mu.values[i] > 0), Fraction(0))
    neg = sum((-mu.values[i] for i in null_blocks if mu.values[i] < 0), Fraction(0))
    if (max(pos, neg) == 0) != wac:
        raise AssertionError("epsilon-delta and null-set continuity disagree on a finite algebra")
    return wac


def outer_measure(mu: FAMeasure, b: AlgebraSet) -> Fraction:
    """Outer measure of an arbitrary atom set: min of mu over covering algebra sets.

    For nonnegative mu the smallest cover is the union of the blocks meeting b.
    """
    if b.ground != mu.algebra.ground:
        raise NotInAlgebra("set lives on a different ground set")
    if not mu.is_nonnegative:
        raise NegativeMeasure("outer measure requires a nonnegative measure")
    return sum((mu.values[i] for i in mu.algebra.blocks_meeting(b.mask)), Fraction(0))


def integrate_simple(f: SimpleFunction, mu: FAMeasure) -> Fraction:
    """Integral of a simple function: sum over blocks of f(block) * mu(block)."""
    if f.algebra.ground != mu.algebra.ground:
        raise MeasurabilityMismatch("function lives on a different ground set")
    total = Fraction(0)
    for i, b in enumerate(mu.algebra.blocks):
        owners = {f.algebra.block_of_atom(j) for j in range(mu.algebra.ground.size) if b >> j & 1}
        if len(owners) != 1:
            raise MeasurabilityMismatch("function is not constant on a block of the measure's algebra")
        total += f.values[owners.pop()] * mu.values[i]
    return total


@dataclass(frozen=True)
class SimpleFunctionSequence:
    """Finitely described function sequence with a decidable limit behaviour.

    `prefix` lists finitely many leading terms (they never affect the limit);
    beyond it the sequence is either constantly `tail` ("constant") or equals
    limit + tail/k ("decay").
    """

    tail_kind: str
    tail: SimpleFunction
    prefix: tuple[SimpleFunction, ...] = ()

    def __post_init__(self):
        if self.tail_kind not in ("constant", "decay"):
            raise ValueError(f"unknown tail kind {self.tail_kind!r}")


def constant_tail(fn: SimpleFunction, prefix: Sequence[SimpleFunction] = ()) -> SimpleFunctionSequence:
    return SimpleFunctionSequence("constant", fn, tuple(prefix))


def decay_tail(step: SimpleFunction, prefix: Sequence[SimpleFunction] = ()) -> SimpleFunctionSequence:
    return SimpleFunctionSequence("decay", step, tuple(prefix))


def converges_in_measure(seq: SimpleFunctionSequence, f: SimpleFunction, mu: FAMeasure, eps) -> bool:
    """Whether |mu|*({|f_k - f| > eps}) -> 0 for the given eps, decided exactly.

    The exceedance sets are evaluated atomwise and measured with the outer
    measure of |mu|, so non-measurable exceedance sets are handled.
    """
    eps = _frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    ground = mu.algebra.ground
    if seq.tail.algebra.ground != ground or f.algebra.ground != ground:
        raise MeasurabilityMismatch("sequence and limit must live on the measure's ground set")
    tv = total_variation_measure(mu)
    if seq.tail_kind == "decay":
        # |f_k - f| = |tail|/k falls below eps once k > max|tail|/eps
        return True
    mask = 0
    for j in range(ground.size):
        if abs(seq.tail.value_at_atom(j) - f.value_at_atom(j)) > eps:
            mask |= 1 << j
    return outer_measure(tv, AlgebraSet(ground, mask)) == 0


# ---------------------------------------------------------------- JSON fixtures

def measure_to_json(mu: FAMeasure) -> dict:
    return {
        "atoms": list(mu.algebra.ground.atoms),
        "blocks": [list(AlgebraSet(mu.algebra.ground, b).labels()) for b in mu.algebra.blocks],
        "values": [[v.numerator, v.denominator] for v in mu.values],
    }


def _labels(value, name: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{name} must be a list of strings")
    return tuple(value)


def _integer(value) -> int:
    # bools are ints to Python; integral floats such as 2.0 are accepted
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if not integral or isinstance(value, bool):
        raise TypeError(f"block values must be integers, got {value!r}")
    return int(value)


def measure_from_json(obj: dict) -> FAMeasure:
    """Inverse of `measure_to_json`: atoms and blocks are lists of strings, values [num, den] integer pairs."""
    ground = GroundSet(_labels(obj["atoms"], "atoms"))
    blocks = obj["blocks"]
    if not isinstance(blocks, list):
        raise TypeError("blocks must be a list")
    algebra = SubAlgebra.from_blocks(ground, [_labels(b, "each block") for b in blocks])
    values = obj["values"]
    if not (isinstance(values, list) and all(isinstance(v, list) and len(v) == 2 for v in values)):
        raise TypeError("values must be a list of [numerator, denominator] pairs")
    return FAMeasure(algebra, tuple(Fraction(_integer(n), _integer(d)) for n, d in values))
