"""Seeded Monte Carlo estimation over regions.

The sample stream is generated by the counter-based Philox generator in
fixed-size chunks, so identical specs give bit-identical estimates, and
streams can be evaluated concurrently and combined in order without
changing the result: the density engine runs two of its levels, each on
its own stream, at a time.  Samples are drawn uniformly from a
`Proposal`, a set symmetric about its centre c with an exact volume, in
center-symmetric pairs (x, 2c - x); pair averages are the unit of the
variance estimate.
The pairing makes estimates of odd integrands about the centre vanish
identically instead of merely on average, which the density engine relies
on for its cancellation fixtures.

There are three kinds of proposal: an axis box (the bounding box of a
region, drawn as it always was), a spherical shell (a ball when its inner
radius is 0) and an oriented box.  Pairs are handed out as two
Fortran-ordered (m, d) blocks, the points and their reflections, so the
column-wise geometry kernels read contiguous coordinates.

Every estimator is one `sweep` of the stream: each chunk's variates are
drawn once, and the chunk is evaluated in leaves of at most LEAF_PAIRS
pairs, cut where numpy's pairwise sum would split the chunk's arrays, so
that the leaves' sums add back along the same tree to the chunk's sums bit
for bit while temporaries stay leaf-sized.  A reference weight is
evaluated once per half-leaf (a leaf's points, or their reflections), and
any number of ratio and essential-range columns are fed from the points of
positive weight.  Columns on one sweep share their samples (common random
numbers), so each agrees exactly with the same column estimated on a
separate sweep.

Integrand samples that are non-finite or exceed the magnitude cap are
tallied and dropped from averages, never averaged.  A half-leaf whose
values all lie within the cap needs no mask, and where neither half of a
leaf needs one the ratio denominator is formed once and shared by every
such column.
An indicator weight arrives as a bool mask.  A range column keeps only the
O(q n) smallest and largest finite values it has seen, which hold every
order statistic its quantiles read, so its endpoints are np.quantile's of
all n values.  None of this moves a bit of any estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import Bbox, Region, bbox_is_finite, bbox_volume

CHUNK_PAIRS = 1 << 15
LEAF_PAIRS = 1 << 14
MAGNITUDE_CAP = 1.0e3
ESS_QUANTILE = 1.0e-3
CONFIDENCE = 1.96
DEFAULT_SAMPLES = 200_000


class UnboundedRegion(ValueError):
    """Volume estimation needs a finite bounding box."""


class NoHits(RuntimeError):
    """The region received no samples at this resolution."""


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan: sample count and seed.

    Sample counts are rounded up to the next even number so that the stream
    consists of whole antithetic pairs.
    """

    n: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one sample")

    @property
    def pairs(self) -> int:
        return (self.n + 1) // 2


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    hits: int
    n: int
    nonfinite: int = 0


class Proposal:
    """Uniform antithetic pairs on a set symmetric about `center`.

    `volume` is the set's exact Lebesgue volume.  `_draw(gen, m)` draws the
    raw variates of m pairs, and `_halves(raw, start, stop)` forms pairs
    start:stop from them as two Fortran-ordered (stop - start, dim) arrays,
    the second the reflection of the first through the centre.  A pair is
    the same bits however the chunk is cut, and `_halves` may reuse the
    rows start:stop of `raw`, so each range of pairs is formed once.
    """

    dim: int
    center: np.ndarray
    volume: float

    def _draw(self, gen: np.random.Generator, m: int):
        raise NotImplementedError

    def _halves(self, raw, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _chunks(self, seed: int, stream: int, pairs: int) -> Iterator[tuple[object, int]]:
        """The raw variates and pair count of each chunk; chunk k draws from the Philox stream jumped k times."""
        base = np.random.Philox(seed=np.random.SeedSequence(entropy=(int(seed), int(stream))))
        produced = 0
        chunk = 0
        while produced < pairs:
            m = min(CHUNK_PAIRS, pairs - produced)
            yield self._draw(np.random.Generator(base.jumped(chunk)), m), m
            produced += m
            chunk += 1

    def pairs(self, seed: int, stream: int, pairs: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The chunks of `pairs` antithetic pairs, each whole."""
        for raw, m in self._chunks(seed, stream, pairs):
            yield self._halves(raw, 0, m)

    def _reflected(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """center ± offsets for a (dim, m) block of offsets, as (m, dim) transposes."""
        c = self.center[:, None]
        return (c + offsets).T, (c - offsets).T


class AxisBox(Proposal):
    """The box lo < x < hi, paired through x -> lo + hi - x.

    Draws the (m, dim) uniforms u of every earlier release and writes
    u_k w_k + lo_k and hi_k - u_k w_k column by column, bit-identical to
    lo + u * w and hi - u * w.
    """

    def __init__(self, bbox: Bbox):
        self.lo, self.hi = (np.asarray(v, dtype=float) for v in bbox)
        self.dim = self.lo.size
        self.width = self.hi - self.lo
        self.center = 0.5 * (self.lo + self.hi)
        self.volume = bbox_volume(bbox)

    def _draw(self, gen, m):
        return gen.random((m, self.dim))

    def _halves(self, u, start, stop):
        u = u[start:stop]
        m = stop - start
        # one column is Fortran-ordered already, so its uniforms become the first half
        a = u if self.dim == 1 else np.empty((m, self.dim), order="F")
        b = np.empty((m, self.dim), order="F")
        for k, (lo, hi, width) in enumerate(zip(self.lo, self.hi, self.width)):
            step = np.multiply(u[:, k], width, out=a[:, k])
            np.subtract(hi, step, out=b[:, k])
            step += lo
        return a, b


class Shell(Proposal):
    """The shell r0 < |x - center| < r1; a ball when r0 is 0.

    A Gaussian direction times the radius r1 * (s + u (1 - s))^(1/d), with
    s = (r0 / r1)^d, which inverts the radial density proportional to r^(d-1).
    The raw variates are the Gaussians and each pair's radius over their norm.
    """

    def __init__(self, center, r0: float, r1: float):
        if not 0 <= r0 < r1:
            raise ValueError("a shell needs 0 <= r0 < r1")
        self.center = np.asarray(center, dtype=float)
        self.dim = self.center.size
        self.r0, self.r1 = float(r0), float(r1)
        self._inner = (self.r0 / self.r1) ** self.dim
        unit_ball = math.pi ** (self.dim / 2) / math.gamma(self.dim / 2 + 1)
        self.volume = unit_ball * self.r1 ** self.dim * (1.0 - self._inner)

    def _draw(self, gen, m):
        g = gen.standard_normal((self.dim, m))
        u = gen.random(m)
        radius = self.r1 * (self._inner + u * (1.0 - self._inner)) ** (1.0 / self.dim)
        norm2 = g[0] * g[0]
        for row in g[1:]:
            norm2 += row * row
        return g, radius / np.sqrt(norm2)

    def _halves(self, raw, start, stop):
        g, scale = raw
        return self._reflected(g[:, start:stop] * scale[start:stop])


class OrientedBox(Proposal):
    """The box center + frame @ t with |t_k| < half[k], for an orthonormal frame.

    The raw variates are the offsets frame @ t of the whole chunk, so no
    product is cut.
    """

    def __init__(self, center, frame, half):
        self.center = np.asarray(center, dtype=float)
        self.frame = np.asarray(frame, dtype=float)
        self.half = np.asarray(half, dtype=float)
        self.dim = self.center.size
        self.volume = float(np.prod(2.0 * self.half))

    @classmethod
    def around_segment(cls, a, b, delta: float) -> "OrientedBox":
        """The box of length L + 2 delta and width 2 delta around the segment [a, b] of length L > 0."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        axis = b - a
        length = float(np.linalg.norm(axis))
        # Householder QR completes the unit axis to an orthonormal frame whose first column is ±axis
        frame, _ = np.linalg.qr(np.column_stack([axis / length, np.eye(a.size)]))
        half = np.full(a.size, float(delta))
        half[0] += 0.5 * length
        return cls(0.5 * (a + b), frame, half)

    def _draw(self, gen, m):
        t = gen.random((self.dim, m))
        t = (2.0 * t - 1.0) * self.half[:, None]
        return self.frame @ t

    def _halves(self, offsets, start, stop):
        return self._reflected(offsets[:, start:stop])


@dataclass(frozen=True)
class WeightedMean:
    """Ratio estimate of (integral of w*v) / (integral of w) over a proposal."""

    value: float
    stderr: float
    hits: int
    weight: float
    capped: int
    n: int


@dataclass(frozen=True)
class EssRange:
    """Empirical essential-range surrogate: extreme quantiles of hit samples.

    Endpoints are +-inf when samples beyond the magnitude cap (or non-finite
    ones) witness essential unboundedness on that side.
    """

    lo: float
    hi: float
    hits: int

    @property
    def bounded(self) -> bool:
        return bool(np.isfinite(self.lo) and np.isfinite(self.hi))


@dataclass(frozen=True)
class Ratio:
    """Ratio column: the sum of w*v over the sum of w, on kept samples.

    `values` maps sample points to one value each; only points of positive
    reference weight w count.  A sample whose value is non-finite or exceeds
    `cap` in magnitude is tallied as capped and dropped from both sums.
    With `per_sample` the denominator counts every kept sample of the
    proposal instead of weighing it, so the column is the mean of w*v over
    the proposal.
    """

    values: Callable
    cap: float = MAGNITUDE_CAP
    per_sample: bool = False


@dataclass(frozen=True)
class Range:
    """Essential-range column: the q and 1-q quantiles of the finite values where w > 0.

    `values` maps the points of positive weight to one value each, or to a
    block whose column `axis` is taken.
    """

    values: Callable
    q: float = ESS_QUANTILE
    cap: float = MAGNITUDE_CAP
    axis: int | None = None

    def __post_init__(self):
        if not 0 < self.q < 0.5:
            raise ValueError("quantile must lie in (0, 0.5)")


@dataclass(frozen=True)
class Sweep:
    """Results of one pass: the hit count and one result per column, in order."""

    hits: int
    ratios: tuple[WeightedMean, ...]
    ranges: tuple[EssRange, ...]


def sweep(
    weight: Callable,
    proposal: Proposal,
    spec: SampleSpec,
    stream: int = 0,
    ratios: Sequence[Ratio] = (),
    ranges: Sequence[Range] = (),
) -> Sweep:
    """One pass over the sample stream feeding every column.

    `weight` maps points to one reference weight each, or to a bool mask
    for an indicator weight.  Numerator and denominator of every ratio
    share the stream, so ratios of nested sets are exact (a subset never
    collects more weighted hits than its superset) and the mean of the
    constant 1 is exactly 1.  Columns are reduced one at a time and
    half-leaf by half-leaf, so temporaries stay one column wide.  With a
    single antithetic pair the variance is unknown and stderr is inf.
    """
    m = spec.pairs
    total = [0, *[0.0, 0.0, 0.0, 0.0, 0.0, 0] * len(ratios)]  # hits, then su, suu, sv, svv, suv, capped per ratio
    tails = [_Tails(col.q, m) for col in ranges]

    def leaf(raw, start: int, stop: int) -> list:
        halves = tuple(_weigh(weight, pts) for pts in proposal._halves(raw, start, stop))
        for half in halves:
            if ranges and half.hits:
                _feed_ranges(ranges, tails, np.take(half.pts, np.flatnonzero(half.active), axis=0))
        return [halves[0].hits + halves[1].hits, *_ratio_sums(ratios, halves)]

    with np.errstate(all="ignore"):
        for raw, size in proposal._chunks(spec.seed, stream, m):
            chunk = _pairwise(lambda start, stop: leaf(raw, start, stop), 0, size)
            total = [t + c for t, c in zip(total, chunk)]
    hits = total[0]
    return Sweep(
        hits,
        tuple(_ratio_result(total[j:j + 6], m, hits) for j in range(1, len(total), 6)),
        tuple(_range_result(col, tail, hits) for col, tail in zip(ranges, tails)),
    )


def _pairwise(leaf: Callable[[int, int], list], start: int, stop: int) -> list:
    """leaf(start, stop)'s sums, over leaves of at most LEAF_PAIRS pairs cut along numpy's pairwise sum.

    numpy sums n > 128 contiguous values as the sum of the first
    n//2 - (n//2) % 8 of them plus the sum of the rest, so cutting there and
    adding the two halves' sums back gives the whole range's sums bit for
    bit.  The leaves run in order.
    """
    n = stop - start
    if n <= LEAF_PAIRS:
        return leaf(start, stop)
    cut = start + n // 2 - n // 2 % 8
    return [x + y for x, y in zip(_pairwise(leaf, start, cut), _pairwise(leaf, cut, stop))]


class _Half(NamedTuple):
    """One half-leaf: its points and their weight w, zero wherever w is not positive."""

    pts: np.ndarray
    w: np.ndarray  # a bool mask for an indicator weight
    active: np.ndarray
    hits: int


def _weigh(weight: Callable, pts: np.ndarray) -> _Half:
    w = np.asarray(weight(pts))
    if w.dtype == bool:
        active = w
    else:
        w = w.astype(float, copy=False)
        active = w > 0
        if not np.min(w) >= 0.0:  # negative or NaN weights count as no weight
            w = np.where(active, w, 0.0)
    return _Half(pts, w, active, int(np.count_nonzero(active)))


def _within(v: np.ndarray, cap: float) -> bool:
    """Every value is finite and at most cap in magnitude."""
    bound = min(cap, _FLOAT_MAX)
    return bool(v.min() >= -bound and v.max() <= bound)


_FLOAT_MAX = float(np.finfo(float).max)


def _ratio_terms(col: Ratio, half: _Half) -> tuple[np.ndarray, np.ndarray | None, int]:
    """A half-leaf's share 0.5 w v of the pair average u, its share of d, and its capped count.

    When every value lies within the cap nothing is masked, since w is
    already zero off the hits; the share of d is then None, standing for
    0.5 w (or 0.5 for a `per_sample` column).
    """
    v = np.asarray(col.values(half.pts))
    if v.dtype != bool:
        v = v.astype(float, copy=False)
    if _within(v, col.cap):
        share = np.multiply(half.w, v, dtype=float)
        share *= 0.5
        return share, None, 0
    v = v.astype(float, copy=False)
    bad = half.active & (~np.isfinite(v) | (np.abs(v) > col.cap))
    keep = half.active & ~bad
    share = np.where(keep, half.w * v, 0.0)
    share *= 0.5
    return share, 0.5 * (~bad if col.per_sample else np.where(keep, half.w, 0.0)), int(np.count_nonzero(bad))


def _unmasked(half: _Half, per_sample: bool) -> np.ndarray:
    """A half-leaf's share of d with nothing masked."""
    return np.full(len(half.pts), 0.5) if per_sample else np.multiply(half.w, 0.5, dtype=float)


def _with_sums(d: np.ndarray) -> tuple[np.ndarray, float, float]:
    return d, float(d.sum()), float((d * d).sum())


def _ratio_sums(ratios: Sequence[Ratio], halves: tuple[_Half, _Half]) -> list:
    """The sums su, suu, sv, svv, suv and the capped count of every ratio column, over these pairs.

    u (numerator) and d (denominator) are the pair averages.  Capped and
    non-finite values are masked out of both, one half at a time.  Where
    neither half masks anything, d depends only on whether the column is
    `per_sample`, so it is formed once per kind with its two sums.  Either
    way u and d equal the masked ones up to the sign of a zero, which no sum
    keeps.
    """
    shared = {}
    out = []
    for col in ratios:
        (u, da, capped_a), (ub, db, capped_b) = (_ratio_terms(col, half) for half in halves)
        u += ub
        if da is None and db is None:
            if col.per_sample not in shared:
                shared[col.per_sample] = _with_sums(
                    _unmasked(halves[0], col.per_sample) + _unmasked(halves[1], col.per_sample))
            d, sd, sdd = shared[col.per_sample]
        else:
            da = _unmasked(halves[0], col.per_sample) if da is None else da
            db = _unmasked(halves[1], col.per_sample) if db is None else db
            d, sd, sdd = _with_sums(da + db)
        out += [float(u.sum()), float((u * u).sum()), sd, sdd, float((u * d).sum()), capped_a + capped_b]
    return out


class _Tails:
    """The k smallest and k largest finite values a range column has seen, and their count.

    With k = floor(q * 2m) + 3 for m pairs (so at most 2m values), these
    hold both order statistics that each of the q and 1 - q quantiles
    interpolates between: O(q n) values instead of all n.
    """

    def __init__(self, q: float, pairs: int):
        self.k = math.floor(q * 2 * pairs) + 3
        self.count = 0
        self.low = self.high = np.empty(0)
        self.below = self.above = False  # a value below -cap / above cap, or a NaN, was seen


def _feed_ranges(ranges: Sequence[Range], tails: list[_Tails], pts: np.ndarray) -> None:
    """Add one half-leaf's hit points to every range column.

    Only the last values block is kept, so adjacent columns that share a
    values callable (the axes of one gradient) evaluate it once.
    """
    source = block = None
    for col, tail in zip(ranges, tails):
        if col.values is not source:
            source, block = col.values, np.asarray(col.values(pts), dtype=float)
        _add_values(col, tail, block if col.axis is None else block[:, col.axis])


def _add_values(col: Range, tail: _Tails, v: np.ndarray) -> None:
    """Flag the values beyond the cap and keep the finite ones that reach either tail.

    Only values strictly beyond the current k-th smallest (largest) can
    enter the low (high) tail; the tail is then re-selected by partition.
    """
    lo, hi = v.min(), v.max()  # NaN propagates
    if np.isfinite(lo) and np.isfinite(hi):
        tail.below |= bool(lo < -col.cap)
        tail.above |= bool(hi > col.cap)
    else:
        nan = bool(np.isnan(v).any())
        tail.below |= nan or bool(np.any(v < -col.cap))
        tail.above |= nan or bool(np.any(v > col.cap))
        v = v[np.isfinite(v)]
        if not v.size:
            return
        lo, hi = v.min(), v.max()
    tail.count += v.size
    k = tail.k
    if tail.low.size < k or lo < tail.low[-1]:
        low = np.concatenate((tail.low, v if tail.low.size < k else v[v < tail.low[-1]]))
        tail.low = np.partition(low, k - 1)[:k] if low.size >= k else low
    if tail.high.size < k or hi > tail.high[0]:
        high = np.concatenate((tail.high, v if tail.high.size < k else v[v > tail.high[0]]))
        tail.high = np.partition(high, high.size - k)[-k:] if high.size >= k else high


def _tail_quantiles(tail: _Tails, q: float) -> np.ndarray:
    """np.quantile of every value the tails saw at [q, 1 - q], by numpy's 'linear' method.

    Each quantile lerps the order statistics at floor((n - 1) q) and the
    next rank as numpy does, so the result is its, bit for bit, except for
    the sign of a zero when 0.0 and -0.0 tie at those ranks.
    """
    n = tail.count
    low, high = np.sort(tail.low), np.sort(tail.high)
    virtual = (n - 1) * np.array([q, 1.0 - q])
    prev = np.floor(virtual)
    last = virtual >= n - 1  # numpy takes the largest value there, at index -1
    prev[last] = -1
    gamma = virtual - prev
    ranks = np.where(last, n - 1, prev).astype(int)

    def order(r: int) -> float:
        return low[r] if r < low.size else high[r - (n - high.size)]

    a = np.array([order(r) for r in ranks])
    b = np.array([order(r if top else r + 1) for r, top in zip(ranks, last)])
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _ratio_result(acc: list, m: int, hits: int) -> WeightedMean:
    su, suu, sv, svv, suv, capped = acc
    if sv <= 0:
        return WeightedMean(float("nan"), float("nan"), hits, sv, capped, 2 * m)
    ratio = su / sv
    mean_v = sv / m
    resid2 = max(suu - 2 * ratio * suv + ratio * ratio * svv, 0.0)
    se = CONFIDENCE * np.sqrt(resid2 / (m * (m - 1))) / mean_v if m > 1 else np.inf
    return WeightedMean(float(ratio), float(se), hits, float(sv), capped, 2 * m)


def _range_result(col: Range, tail: _Tails, hits: int) -> EssRange:
    lo, hi = _tail_quantiles(tail, col.q) if tail.count else (-np.inf, np.inf)
    return EssRange(float(-np.inf if tail.below else lo), float(np.inf if tail.above else hi), hits)


def _resolve_box(region: Region) -> AxisBox:
    if not bbox_is_finite(region.bbox):
        raise UnboundedRegion("sampling requires a finite bounding box")
    return AxisBox(region.bbox)


def volume_column(proposal: Proposal) -> Ratio:
    """Column whose value is the volume of {w > 0}, for an indicator weight w sampled from proposal."""
    vol = proposal.volume
    return Ratio(lambda pts: np.full(len(pts), vol), cap=np.inf, per_sample=True)


def mc_volume(region: Region, spec: SampleSpec) -> Estimate:
    """Unbiased Lebesgue volume estimate; deterministic for a fixed spec."""
    box = _resolve_box(region)
    if box.volume == 0.0:
        return Estimate(0.0, 0.0, 0, 2 * spec.pairs)
    r = sweep(region.contains, box, spec, ratios=[volume_column(box)]).ratios[0]
    return Estimate(r.value, r.stderr, r.hits, r.n)


def mc_integral(f: Callable, region: Region, spec: SampleSpec) -> Estimate:
    """Volume-weighted mean estimate of the integral of f over the region."""
    box = _resolve_box(region)
    vol = box.volume
    if vol == 0.0:
        return Estimate(0.0, 0.0, 0, 2 * spec.pairs)
    r = sweep(region.contains, box, spec, ratios=[Ratio(f, cap=np.inf, per_sample=True)]).ratios[0]
    if not r.weight > 0:
        return Estimate(0.0, 0.0, r.hits, r.n, r.capped)
    return Estimate(float(vol * r.value), float(vol * r.stderr), r.hits, r.n, r.capped)


def ess_range(f: Callable, region: Region, spec: SampleSpec) -> EssRange:
    """Robust surrogate for (ess inf, ess sup) of f over the region."""
    box = _resolve_box(region)
    if box.volume == 0.0:
        raise NoHits("region has an empty bounding box")
    result = sweep(region.contains, box, spec, ranges=[Range(f)])
    if result.hits == 0:
        raise NoHits("no samples landed in the region")
    return result.ranges[0]
