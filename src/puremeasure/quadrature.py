"""Seeded randomized-lattice estimation over regions.

Every estimate averages over center-symmetric pairs (x, 2c - x) drawn from a
`Proposal`, a set symmetric about its centre c with an exact volume onto
which it maps the unit cube [0, 1)^s (a shell folded onto halfspaces,
below, gives both members of a pair the same folded coordinates).  The unit-cube points are independent
random shifts of one rank-1 lattice (randomly shifted lattice rules,
L'Ecuyer & Lemieux 2000): each replicate is the first 2^k points of the
extensible Korobov sequence of generator LATTICE_A (Hickernell, Hong,
L'Ecuyer & Lemieux 2000), a whole 2^k-point lattice, shifted by its own u_r
mod 1.  A pass of m requested pairs takes 2^k, the largest power of two at
most m / REPLICATES, and m // 2^k replicates, between REPLICATES and
2 REPLICATES - 1 of them (one per pair below REPLICATES pairs), so it
evaluates more than 15/16 of the pairs, and `Estimate.n` reports the
samples it evaluated.
Each replicate's estimate is unbiased, the replicates are independent, and
the spread of the replicate sums is the unit of the variance estimate, scaled
by Student's t at the replicates' degrees of freedom.  The shifts of a pass
come from the counter-based Philox4x64-10 generator (Salmon, Moraes, Dror &
Shaw 2011) under the key (seed, stream), as a counter-based generator takes
an application's identifiers: numpy's Philox stream, computed in the package
bit for bit (see `_shifts`), so identical specs give bit-identical estimates,
streams are independent, and the stream does not move with numpy's version.
The pairing makes estimates of odd integrands about the centre vanish
identically instead of merely on average (on a proposal without folds),
which the density engine relies on for its cancellation fixtures.

There are three kinds of proposal: an axis box (the bounding box of a
region), a spherical shell (a ball when its inner radius is 0), whose
radius coordinate is tent-folded and which may be folded onto halfspaces
through its centre (a half-disk, a quarter-disk, a half-ball), and an
oriented box.  Pairs are handed out as two Fortran-ordered (m, d) blocks,
the points and their reflections, so the column-wise geometry kernels read
contiguous coordinates.  A shell
reads its angle coordinates only through their cosines and sines.  Every
replicate's angle coordinate is the grid i/2^k, permuted and shifted, so a
sweep prepares one table of the grid's cosines and sines and turns what it
reads there by each replicate's shift within a cell (see `_Angles`),
instead of evaluating them sample by sample.

Every estimator is one `sweep` over the replicates: LEAF_PAIRS / 2^k whole
replicates are evaluated together as one leaf, and a replicate longer than
LEAF_PAIRS is cut in halves, where numpy's pairwise sum splits its array, so
that each replicate's sums are those of one array of its values, bit for
bit, while temporaries stay leaf-sized.  A sweep allocates one work
block, sized to its largest leaf, and frees it when it returns: every leaf
writes its points, their reflections, its turned angles and the ratio
shares there instead of in fresh arrays, which moves no bit.  So the points
a callable receives are overwritten by the next leaf: it may return a view
of them, but must copy anything it keeps.  A reference weight is
evaluated once per half-leaf (a leaf's points, or their reflections), and
any number of ratio and essential-range columns are fed from the points of
positive weight.  Every callable receives its points as a Fortran-ordered
(m, d) block, so each coordinate is one contiguous column.  Range columns
get a half-leaf's points of positive weight, gathered column by column
once, or the half-leaf itself when every point has weight, and a `Range`
of width k is called once for its k columns.  Ratio columns get the same
gathered block on a sparse half-leaf, one on which at most half of the
points have weight, and their values are scattered into zeros of the
half-leaf's size; a denser half-leaf they get whole, since a gather there
saves less than it costs.  A half-leaf without hits calls no column.
Columns on one sweep share their samples (common random numbers), so each
agrees exactly with the same column estimated on a separate sweep.

A column is nothing but its values: the kernel reads the cap from its own
MAGNITUDE_CAP.  A ratio column
never averages a NaN sample, which it tallies as undefined (the witness of
an integrand undefined there), nor one that is infinite or exceeds
MAGNITUDE_CAP in magnitude, which it tallies as capped (the witness of an
essentially unbounded integrand); a per-sample mean (a volume,
`mc_integral`) drops only the non-finite ones.  A column's least and
greatest values on a half-leaf, read once on its hits where the sweep has
their values, decide both its mask and its one value (see `_Step`).  A
half-leaf whose values all lie within the cap needs no mask, and where
neither half of a leaf needs one the ratio denominator is formed once and
shared by every such column.
An indicator weight arrives as a bool mask, under which a ratio column of
bool values (a membership) on both halves of a leaf is counted rather than
multiplied and summed in floats: each replicate's sums are half its samples
in w & v and in w.  None of this moves a bit of any estimate.  A range
column keeps only the least and greatest finite values it has seen, its
endpoints: each value is the column at a point drawn uniformly from the set
of positive weight, so the two are inner bounds of its essential range (the
sample maximum estimates a distribution's endpoint, Hall 1982).

Under an indicator weight, or a weight of one value on its support, which
a sweep decides once for all of its columns, a ratio column of bool values (a membership) or of one constant value (a
volume) is quantized: one sample moves a replicate sum by a fixed step, and
on a whole lattice every replicate may read the same value.  Its stderr
then counts one step's rounding variance.  Any other column counts the
float grid of its replicate sums, which is all a rule exact on its
integrand leaves (the folded shell on a radius-linear integrand).  Neither
is counted where every sample agrees (see `_Step.rounding`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import Bbox, Region, bbox_is_finite, bbox_volume

# Run environments record it; the lattice sequence has no chunks, so it no
# longer shapes any estimate.
CHUNK_PAIRS = 1 << 15
LEAF_PAIRS = 1 << 14
MAGNITUDE_CAP = 1.0e3
REPLICATES = 16
# t quantile at 0.975 for 1, 2, ..., 30 degrees of freedom: a pass has at
# most 2 REPLICATES - 1 replicates, and m >= 2 of them make stderr
# STUDENT_T[m - 2] standard errors, a ~95% half-width.
STUDENT_T = (12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
             2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
             2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
             2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423)
# The Korobov generator of the lattice sequence (see `_lattice`) and its bits,
# after which a replicate's points repeat.  tools/lattice_search.py computes it.
LATTICE_BITS = 32
LATTICE_A = 0xA4224509
DEFAULT_SAMPLES = 200_000
# Philox4x64-10 (Salmon, Moraes, Dror & Shaw 2011): the round multipliers
# M_0, M_1 and their 32-bit halves, and the key's Weyl increments, as uint64
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_HALF, _LOW, _DISCARD = np.uint64(32), np.uint64(0xFFFFFFFF), np.uint64(11)
_PHILOX_MH, _PHILOX_ML = _PHILOX_M >> _HALF, _PHILOX_M & _LOW
# the streams whose draws `_shifts` computes together, and the table that holds
# them: (seed, batch, draws), the first draws of streams batch _BATCH on
_BATCH = 16
_draws: tuple[int, int, np.ndarray] | None = None


class UnboundedRegion(ValueError):
    """Volume estimation needs a finite bounding box."""


class NoHits(RuntimeError):
    """The region received no samples at this resolution."""


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan: sample count and seed.

    Sample counts are rounded up to the next even number so that the stream
    consists of whole antithetic pairs.  The seed, read as int(seed), is
    the first word of each level's Philox key, so 0 <= seed < 2^64.
    """

    n: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one sample")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("the seed must be a 64-bit key word, 0 <= seed < 2^64")

    @property
    def pairs(self) -> int:
        return (self.n + 1) // 2


@dataclass(frozen=True)
class Estimate:
    """A ratio column's value and ~95% half-width from n samples, its hits and the samples it dropped.

    `capped` counts the dropped samples that were infinite or beyond the cap
    and `undefined` those that were NaN.
    """

    value: float
    stderr: float
    hits: int
    n: int
    capped: int = 0
    undefined: int = 0


def _lattice(coords: int, count: int) -> np.ndarray:
    """The first `count` points of the lattice sequence in `coords` dimensions, as a (coords, count) block.

    Point i is frac(phi(i) h) with h_j = LATTICE_A^j mod 2^LATTICE_BITS: its
    first 2^k points are the rank-1 lattice of 2^k points and generator
    h mod 2^k, for every k.  The products are exact in uint64 and every
    coordinate is a multiple of 2^-LATTICE_BITS, so no bit depends on the
    platform.
    """
    mask = (1 << LATTICE_BITS) - 1
    k = np.arange(count, dtype=np.uint64)
    for width, pattern in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF), (16, 0x0000FFFF)):
        k = ((k >> width) & pattern) | ((k & pattern) << width)  # i reversed on LATTICE_BITS = 32 bits
    h = np.array([pow(LATTICE_A, j, 1 << LATTICE_BITS) for j in range(coords)], dtype=np.uint64)
    return ((h[:, None] * k) & mask).astype(float) * 2.0 ** -LATTICE_BITS


def _philox(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 `blocks` outputs of Philox4x64-10 under each of s keys, a (2, s, 1) uint64 array, as (s, 4 blocks).

    Block i is the counter (i + 1, 0, 0, 0) after ten rounds, and its four
    words are outputs 4i to 4i + 3, as numpy's Philox draws them.  A round
    takes the high and low words of M_j c_j for the even counter words c_0,
    c_2 and the multipliers M_0, M_1: it makes (c_0, c_1, c_2, c_3) into
    (hi_1 ^ c_1 ^ k_0, lo_1, hi_0 ^ c_3 ^ k_1, lo_0), and the key k gains
    its Weyl increment before every round after the first.  Every operand is
    uint64, and array products wrap mod 2^64; the high word is put together
    from the 32-bit halves, whose partial sums stay below 2^64.
    """
    even = np.zeros((2, keys.shape[1], blocks), dtype=np.uint64)  # c_0 and c_2; odd holds c_1 and c_3
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for step in range(10):
        if step:
            keys = keys + _PHILOX_W
        high, low = even >> _HALF, even & _LOW
        ll, lh = _PHILOX_ML * low, _PHILOX_ML * high
        cross = (ll >> _HALF) + (lh & _LOW) + _PHILOX_MH * low
        hi = _PHILOX_MH * high + (lh >> _HALF) + (cross >> _HALF)
        even, odd = hi[::-1] ^ odd ^ keys, (even * _PHILOX_M)[::-1]
    return np.stack((even, odd)).transpose(2, 3, 1, 0).reshape(keys.shape[1], 4 * blocks)


def _shifts(seed: int, stream: int, reps: int, coords: int) -> np.ndarray:
    """The (coords, reps) random shifts of a pass: numpy's Philox4x64-10 stream under key=(seed, stream).

    The seed and the stream are the key's 64-bit words.  Shift r's coordinate
    j is draw r coords + j, and draw i is output i's top 53 bits times 2^-53,
    as numpy's Generator.random((reps, coords)) gives them, bit for bit, with
    the package's own `_philox`, so no process loads numpy.random.  One
    Philox pass costs about the same for any width, so the first draws of
    the _BATCH streams that hold `stream` are computed together, for one
    seed, and kept in one module table, which a request for another seed,
    another batch or a longer prefix replaces.  The table is a pure function
    of what it holds, so a forked process may read its parent's.
    """
    global _draws
    seed, stream = int(seed), int(stream)
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValueError("seeds and streams are 64-bit key words, 0 <= value < 2^64")
    count, (batch, row) = reps * coords, divmod(stream, _BATCH)
    table = _draws
    if table is None or table[:2] != (seed, batch) or table[2].shape[1] < count:
        keys = np.array([(seed, s) for s in range(batch * _BATCH, (batch + 1) * _BATCH)], dtype=np.uint64)
        draws = (_philox(keys.T[:, :, None], -(-count // 4)) >> _DISCARD).astype(float) * 2.0 ** -53
        draws.flags.writeable = False
        table = _draws = (seed, batch, draws)
    return table[2][row, :count].reshape(reps, coords).T


def _shifted(base: np.ndarray, shift: np.ndarray, out: np.ndarray | None = None,
             mask: np.ndarray | None = None) -> np.ndarray:
    """(base + shift) mod 1 for points and shifts in [0, 1), into `out` with u >= 1 in `mask` when given."""
    u = np.add(base, shift, out=out)
    u -= np.greater_equal(u, 1.0, out=mask)
    return u


def _replicates(pairs: int) -> tuple[int, int]:
    """(reps, size): whole lattices of size = 2^k pairs, the most that `pairs` holds, and reps of them.

    2^k is the largest power of two at most pairs / REPLICATES (1 below
    REPLICATES pairs), so there are REPLICATES to 2 REPLICATES - 1
    replicates (as many as pairs below REPLICATES), and they take more than
    15/16 of the pairs.
    """
    size = 1 << max((pairs // REPLICATES).bit_length() - 1, 0)
    return pairs // size, size


def _samples(spec: SampleSpec) -> int:
    """The samples a pass of spec evaluates: twice its replicates' pairs."""
    reps, size = _replicates(spec.pairs)
    return 2 * reps * size


class Proposal:
    """Antithetic pairs on a set, mapped from the unit cube.

    A pair is a point x and its reflection 2 center - x, except on the axes
    a `Shell` folds: there the two share the folded coordinate, so a folded
    pair is not symmetric about `center`, and neither is its set.  `volume`
    is the set's exact Lebesgue volume and `coords` the dimension s of the
    unit cube.  `angles` are the coordinates that the map reads only
    as an angle 2 pi u_k, through its cosine and sine, which a sweep takes
    from one table instead (see `_Angles`).  `_halves(u, out, angles)`
    maps points of [0, 1)^s uniformly onto the set, as two Fortran-ordered
    (m, dim) arrays: the points, written into u's memory, and their
    reflections through the centre, written into the Fortran-ordered
    (m, dim) block `out`, whose transpose may hold the offsets from the
    centre first.  u is a contiguous C-ordered (coords, m) block whose first
    rows hold the other coordinates, in order, and whose last len(angles)
    rows are free; `angles` yields the cosine and sine of each angle in
    turn, as views that the next one overwrites.
    """

    dim: int
    coords: int
    center: np.ndarray
    volume: float
    angles: tuple[int, ...] = ()

    def _halves(self, u: np.ndarray, out: np.ndarray,
                angles: Iterator[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _reflected(self, offsets: np.ndarray, u: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """center ± offsets for a (dim, m) block of offsets, as (m, dim) transposes.

        center + offsets goes into u's memory, which the offsets must not
        share, and then center - offsets into out, whose transpose they may
        be.
        """
        c = self.center[:, None]
        points = np.add(c, offsets, out=u.reshape(-1)[:offsets.size].reshape(offsets.shape))
        np.subtract(c, offsets, out=out.T)
        return points.T, out


class _Base:
    """A pass's (coords, 2^k) base lattice and (coords, reps) shifts as its leaves read them, and its angle table.

    The base and shifts keep the coordinates that are not angles, in order.
    Each sweep prepares its own once.
    """

    def __init__(self, proposal: Proposal, base: np.ndarray, shifts: np.ndarray):
        self.proposal, self.base, self.shifts, self.angles = proposal, base, shifts, None
        if proposal.angles:
            angles, others = list(proposal.angles), [k for k in range(len(base)) if k not in proposal.angles]
            self.base, self.shifts = base[others], shifts[others]
            self.angles = _Angles(base[angles], shifts[angles])

    def halves(self, work: _Work, lo: int, hi: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The points and reflections of pairs start:stop of replicates lo:hi, replicate by replicate, in `work`."""
        shape = (hi - lo, stop - start)
        u, mask, turning, reflections = work.points(shape[0] * shape[1])
        rows = len(self.base)
        _shifted(self.base[:, None, start:stop], self.shifts[:, lo:hi, None],
                 u[:rows].reshape(rows, *shape), mask[:rows].reshape(rows, *shape))
        angles = iter(()) if self.angles is None else self.angles.turned(turning, shape, lo, start)
        return self.proposal._halves(u, reflections, angles)


class _Angles:
    """The cosine and sine of 2 pi u on a pass's angle coordinates, from one table of the grid i/N.

    A replicate is a whole lattice of N = 2^k points, and every power of the
    odd LATTICE_A is odd, so each coordinate of its base points b_j is a
    permutation of the grid i/N.  With m_j = N b_j, q_r = floor(N s_r) and
    the remainder e_r = s_r - q_r / N < 1/N of replicate r's shift s_r, all
    exact, the angle of its point j is 2 pi ((m_j + q_r) mod N) / N +
    2 pi e_r.  A leaf reads z = c + i s, the cosine and sine of the first
    term, from the table at (m_j + q_r) mod N and turns it by the second in
    the small-angle form z - z (a_r - i b_r), that is c - (c a_r + s b_r) and
    s - (s a_r - c b_r), with a_r = 2 sin^2(pi e_r) and b_r = sin 2 pi e_r.
    The turn is below 2 pi / N in size, so its rounding is that much below
    the table's, and the table's rounding is common to every replicate.  The
    table's angles are wrapped to [-pi, pi), which is exact, so each rounds
    on at most pi.  No libm call runs per sample.
    """

    def __init__(self, base: np.ndarray, shifts: np.ndarray):
        size = base.shape[1]
        turns = np.arange(size) / size
        grid = 2.0 * math.pi * (turns - (turns >= 0.5))
        self.table = np.empty(size, dtype=complex)
        self.table.real, self.table.imag = np.cos(grid), np.sin(grid)
        self.cells = (base * size).astype(np.intp)
        whole = np.floor(shifts * size)
        rest = shifts - whole / size
        self.whole = whole.astype(np.intp)
        half = np.sin(math.pi * rest)
        self.turn = 2.0 * half * half - 1j * np.sin(2.0 * math.pi * rest)
        self.last = size - 1

    def turned(self, scratch: np.ndarray, shape: tuple[int, int], lo: int,
               start: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each angle's cosine and sine for pairs from `start` of replicates from `lo`, as views of scratch.

        `shape` is (replicates, pairs each), and `scratch` holds 4 floats a
        pair: the turned values and their turn, whose memory holds the table
        cells first.
        """
        m = shape[0] * shape[1]
        values = scratch[:2 * m].view(complex)
        z, turn = values.reshape(shape), scratch[2 * m:].view(complex).reshape(shape)
        cells = scratch[2 * m:3 * m].view(np.intp)[:m].reshape(shape)
        stop, hi = start + shape[1], lo + shape[0]
        for k in range(len(self.cells)):
            np.add(self.cells[k, start:stop], self.whole[k, lo:hi, None], out=cells)
            np.bitwise_and(cells, self.last, out=cells)
            np.take(self.table, cells, out=z, mode="clip")  # the cells are in range; "raise" would buffer
            z -= np.multiply(z, self.turn[k, lo:hi, None], out=turn)
            yield values.real, values.imag


class AxisBox(Proposal):
    """The box lo < x < hi, paired through x -> lo + hi - x: the affine map lo + u w.

    Writes u_k w_k + lo_k and hi_k - u_k w_k coordinate by coordinate, the
    first in place of u.
    """

    def __init__(self, bbox: Bbox):
        self.lo, self.hi = (np.asarray(v, dtype=float) for v in bbox)
        self.dim = self.coords = self.lo.size
        self.width = self.hi - self.lo
        self.center = 0.5 * (self.lo + self.hi)
        self.volume = bbox_volume(bbox)

    def _halves(self, u, out, angles):
        for k, (lo, hi, width) in enumerate(zip(self.lo, self.hi, self.width)):
            step = np.multiply(u[k], width, out=u[k])
            np.subtract(hi, step, out=out[:, k])
            step += lo
        return u.T, out  # a C-ordered (dim, m) block is a Fortran-ordered (m, dim) one


class Shell(Proposal):
    """The shell r0 < |x - center| < r1; a ball when r0 is 0.

    u_0 is folded by the tent map t = 1 - |2 u_0 - 1| (Hickernell 2002),
    which keeps it uniform on [0, 1], and t gives the radius
    r1 * (s + t (1 - s))^(1/d), with s = (r0 / r1)^d, which inverts the
    radial density proportional to r^(d-1): a square root in 2-D and a cube
    root in 3-D.  A shifted lattice rule converges fast only on periodic
    integrands; the fold makes a smooth function of the radius periodic in
    u_0, and integrates one linear in t, such as r^2 in 2-D, exactly on a
    whole lattice (Dick, Nuyens & Pillichshammer 2014).  u_0 = 1/2 folds to
    t = 1, radius r1.  The other coordinates, unfolded, give the direction.
    In 1-D it is +1 (the reflection takes the other one), in 2-D the angle
    2 pi u_1, in 3-D the area-preserving map z = 1 - 2 u_1 and azimuth
    2 pi u_2, and from 4-D on the normalised Box-Muller Gaussians
    sqrt(-log(1 - u_1)) (cos, sin) 2 pi u_2, then the same of (u_3, u_4),
    and so on.  Every angle's cosine and sine come from the sweep's table
    (see `_Angles`).  The offsets are formed in the reflections' block and
    their scratch rows in u's free rows, so a leaf allocates nothing.

    `folds` folds the shell onto halfspaces through its centre: for each
    (axis k, sign s_k) both the point and its reflection take
    x_k = c_k + s_k |o_k| for the offset o, in place in their blocks.  The
    fold maps the shell two to one onto its part where s_k (x_k - c_k) >= 0,
    uniformly, so each fold halves the volume.
    """

    def __init__(self, center, r0: float, r1: float, folds: Sequence[tuple[int, int]] = ()):
        if not 0 <= r0 < r1:
            raise ValueError("a shell needs 0 <= r0 < r1")
        self.center = np.asarray(center, dtype=float)
        self.dim = self.center.size
        self.folds = tuple((int(k), int(s)) for k, s in folds)
        axes = {k for k, s in self.folds if 0 <= k < self.dim and s in (1, -1)}
        if len(axes) != len(self.folds):
            raise ValueError("a shell folds distinct axes of its own, each by a sign of 1 or -1")
        self.coords = self.dim if self.dim <= 3 else 1 + 2 * math.ceil(self.dim / 2)
        self.angles = () if self.dim == 1 else (self.dim - 1,) if self.dim <= 3 else tuple(range(2, self.coords, 2))
        self.r0, self.r1 = float(r0), float(r1)
        self._inner = (self.r0 / self.r1) ** self.dim
        unit_ball = math.pi ** (self.dim / 2) / math.gamma(self.dim / 2 + 1)
        self.volume = unit_ball * self.r1 ** self.dim * (1.0 - self._inner) / 2 ** len(self.folds)

    def _halves(self, u, out, angles):
        radius = u[0]  # folded in place, t = 1 - |2 u_0 - 1|, and then mapped to the radius
        radius *= 2.0
        radius -= 1.0
        np.abs(radius, out=radius)
        np.subtract(1.0, radius, out=radius)
        if self._inner:  # a ball's radius map is t^(1/d)
            radius *= 1.0 - self._inner
            radius += self._inner
        if self.dim == 2:
            np.sqrt(radius, out=radius)
        elif self.dim == 3:
            np.cbrt(radius, out=radius)
        elif self.dim > 3:
            np.power(radius, 1.0 / self.dim, out=radius)
        radius *= self.r1
        offsets = out.T
        if self.dim == 1:
            offsets[0] = radius
        elif self.dim == 2:
            cos, sin = next(angles)
            np.multiply(cos, radius, out=offsets[0])
            np.multiply(sin, radius, out=offsets[1])
        elif self.dim == 3:
            z, rho = offsets[2], u[2]  # rho = 2 radius sqrt(u_1 (1 - u_1)), the distance from the axis
            np.multiply(u[1], 2.0, out=z)
            np.subtract(1.0, z, out=z)
            z *= radius
            np.subtract(1.0, u[1], out=rho)
            rho *= u[1]
            np.sqrt(rho, out=rho)
            rho *= radius
            rho *= 2.0
            cos, sin = next(angles)
            np.multiply(cos, rho, out=offsets[0])
            np.multiply(sin, rho, out=offsets[1])
        else:
            pairs = len(self.angles)
            norm = np.negative(u[1:1 + pairs], out=u[1:1 + pairs])  # n^2 = -log(1 - u) in place of u
            np.log1p(norm, out=norm)
            np.negative(norm, out=norm)
            # radius / |g| in a free row: a pair whose cosine and sine are both read adds n^2 to |g|^2
            scale = np.add.reduce(norm[:self.dim // 2], axis=0, out=u[1 + pairs])
            np.sqrt(norm, out=norm)
            for k, (cos, sin) in enumerate(angles):
                np.multiply(cos, norm[k], out=offsets[2 * k])
                if 2 * k + 1 < self.dim:
                    np.multiply(sin, norm[k], out=offsets[2 * k + 1])
            if self.dim % 2:  # the last pair of an odd dimension adds its cosine's Gaussian alone
                scale += np.square(offsets[-1], out=u[2 + pairs])
            np.sqrt(scale, out=scale)
            np.divide(radius, scale, out=scale)
            offsets *= scale
        for k, sign in self.folds:
            np.abs(offsets[k], out=offsets[k])
            if sign < 0:
                np.negative(offsets[k], out=offsets[k])
        points, reflections = self._reflected(offsets, u, out)
        for k, _ in self.folds:  # the reflection shares the folded coordinate
            reflections[:, k] = points[:, k]
        return points, reflections


class OrientedBox(Proposal):
    """The box center + frame @ t with |t_k| < half[k], for an orthonormal frame.

    The affine map t = (2 u - 1) half, formed in place of u, and turned by
    the frame into the reflections' block.
    """

    def __init__(self, center, frame, half):
        self.center = np.asarray(center, dtype=float)
        self.frame = np.asarray(frame, dtype=float)
        self.half = np.asarray(half, dtype=float)
        self.dim = self.coords = self.center.size
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

    def _halves(self, u, out, angles):
        u *= 2.0
        u -= 1.0
        u *= self.half[:, None]
        return self._reflected(np.matmul(self.frame, u, out=out.T), u, out)


@dataclass(frozen=True)
class EssRange:
    """Empirical essential range: the least and greatest finite hit values, inner bounds of its ends.

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

    `values` maps sample points to one value each; only points of finite
    positive reference weight w count, and on a half-leaf where at most
    half of the points have weight it is handed those points alone (see
    `sweep`).  A sample whose value is NaN is
    tallied as undefined, one that is infinite or exceeds MAGNITUDE_CAP in
    magnitude as capped, and either is dropped from both sums.  With
    `per_sample` the denominator counts every kept sample of the proposal
    instead of weighing it, so the column is the mean of w*v over the
    proposal, and only non-finite values are dropped.
    """

    values: Callable
    per_sample: bool = False


@dataclass(frozen=True)
class Range:
    """Essential-range columns: the least and greatest of each column's finite values.

    `values` maps the points of positive weight w, a Fortran-ordered
    (h, d) block, to one value each, one column; with `width` k, to an
    (h, k) block, each of whose columns is a range column, in order.  A
    Fortran-ordered block hands each column over contiguous; any other
    layout is read strided.  An end is infinite once a value beyond
    MAGNITUDE_CAP on its side, or a NaN, is seen.
    """

    values: Callable
    width: int | None = None


@dataclass(frozen=True)
class Sweep:
    """Results of one pass: the hit count and one result per column, in order; a `Range` of width k gives k."""

    hits: int
    ratios: tuple[Estimate, ...]
    ranges: tuple[EssRange, ...]


def sweep(
    weight: Callable,
    proposal: Proposal,
    spec: SampleSpec,
    stream: int = 0,
    ratios: Sequence[Ratio] = (),
    ranges: Sequence[Range] = (),
) -> Sweep:
    """One pass over the replicates feeding every column.

    `weight` maps points to one reference weight each, or to a bool mask
    for an indicator weight; a weight that is not finite and positive counts
    as none.  Numerator and denominator of every ratio share the points, so
    ratios of nested sets are exact (a subset never collects more weighted
    hits than its superset) and the mean of the constant 1 is exactly 1.
    Columns are reduced one at a time and half-leaf by half-leaf, so
    temporaries stay one column wide.  Integer tallies (the hits, and each
    column's capped and undefined on its `_Step`) add up as the leaves run,
    so a leaf returns only the replicate sums that `_pairwise` adds.  With
    a single antithetic pair the variance is unknown and stderr is inf.
    """
    reps, size = _replicates(spec.pairs)
    m = reps * size
    prepared = _Base(proposal, _lattice(proposal.coords, size), _shifts(spec.seed, stream, reps, proposal.coords))
    hits = 0
    level = None  # the one value w takes on its support in every half-leaf (see `_Half`)
    sums = np.zeros((len(ratios), 2, reps))  # each ratio's numerator and denominator sum per replicate
    steps = [_Step(col.per_sample) for col in ratios]
    extremes = [[_Extremes() for _ in range(1 if col.width is None else col.width)] for col in ranges]
    work = _Work(min(LEAF_PAIRS, m), proposal, bool(ratios))

    def leaf(lo: int, hi: int, start: int, stop: int) -> list:
        """Pairs start:stop of replicates lo:hi, replicate by replicate: each ratio's two sums per replicate."""
        nonlocal hits, level
        shape = (hi - lo, stop - start)
        halves = tuple(_weigh(weight, pts) for pts in prepared.halves(work, lo, hi, start, stop))
        halves = tuple(_gathered(half) if half.hits and (ranges and half.hits < len(half.pts) or
                                                         ratios and half.sparse) else half for half in halves)
        for half in halves:
            hits += half.hits
            level = _one(level, half.level)
            if ranges and half.hits:
                _feed_ranges(ranges, extremes, half.pts if half.taken is None else half.taken)
        return _ratio_sums(ratios, halves, shape, work.shares(shape[0] * shape[1]), steps)

    with np.errstate(all="ignore"):
        for lo, hi in _leaves(reps, size):
            cols = _pairwise(lambda start, stop: leaf(lo, hi, start, stop), 0, size)
            sums[:, :, lo:hi] = np.reshape(cols, (len(ratios), 2, hi - lo))
        return Sweep(
            hits,
            tuple(_ratio_result(u, d, step.capped, step.undefined, m, hits,
                                step.rounding(u, 2 * m if col.per_sample else hits, level))
                  for (u, d), step, col in zip(sums, steps, ratios)),
            tuple(_range_result(ext, hits) for group in extremes for ext in group),
        )


class _Work:
    """One sweep's work block: a slot for every leaf-sized array that a leaf writes, `rows` pairs each.

    The slots are the unit-cube points u (coords rows) and their u >= 1
    mask, the reflected half (dim columns), in which a proposal may form its
    offsets first, with angles, the 4 floats a pair that turn them (see
    `_Angles`), and with ratio columns, four share slots: each half's
    numerator and denominator shares of one column, where the shared
    denominators are formed too, and then the mark w & v of a counted
    column, which each half writes and counts in turn (see `_ratio_sums`).
    A leaf of m pairs takes the first m rows of each slot, each a
    contiguous array laid out as a fresh one would be.  Every slot is
    written before it is read, and the next leaf overwrites it.  The block
    is one allocation of the largest leaf's size, freed when the sweep
    returns.  A weight that needs sanitizing, which is rare, gets a fresh
    array instead (see `_weigh`).
    """

    def __init__(self, rows: int, proposal: Proposal, ratios: bool):
        self.rows, self.coords, self.dim = rows, proposal.coords, proposal.dim
        self.columns, self.turning = 4 * ratios, 4 * bool(proposal.angles)
        self.flags = self.coords + ratios
        floats = rows * (self.coords + self.dim + self.turning + self.columns)
        block = np.empty(8 * floats + rows * self.flags, dtype=np.uint8)
        self.floats, self.mask = block[:8 * floats].view(float), block[8 * floats:].view(bool)

    def points(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A leaf's u and mask, the 4 m floats that turn its angles, and its reflections, for m <= rows pairs."""
        points, at, turn = self.coords * m, self.coords * self.rows, (self.coords + self.dim) * self.rows
        return (self.floats[:points].reshape(self.coords, m), self.mask[:points].reshape(self.coords, m),
                self.floats[turn:turn + self.turning * m],
                self.floats[at:at + self.dim * m].reshape((m, self.dim), order="F"))

    def shares(self, m: int) -> list[np.ndarray]:
        """A leaf's four shares and then its mark, for m <= rows pairs."""
        at, rows = (self.coords + self.dim + self.turning) * self.rows, self.rows
        return [self.floats[at + k * rows:at + k * rows + m] for k in range(self.columns)] + [
            self.mask[k * rows:k * rows + m] for k in range(self.coords, self.flags)]


def _leaves(reps: int, size: int) -> list[tuple[int, int]]:
    """The replicates evaluated together, as ranges lo:hi, in order.

    LEAF_PAIRS / size whole replicates of size pairs, both powers of two,
    share a leaf; a longer replicate runs alone and `_pairwise` cuts it.
    """
    per_leaf = max(LEAF_PAIRS // size, 1)
    return [(lo, min(lo + per_leaf, reps)) for lo in range(0, reps, per_leaf)]


def _pairwise(leaf: Callable[[int, int], list], start: int, stop: int) -> list:
    """leaf(start, stop)'s sums, over leaves of at most LEAF_PAIRS pairs cut in exact halves.

    numpy sums n > 128 contiguous values as the sum of the first
    n//2 - (n//2) % 8 of them plus the sum of the rest; for a replicate of
    2^k pairs that is its exact half, so cutting there and adding the two
    halves' sums back gives the whole range's sums bit for bit.  The leaves
    run in order.  A leaf's sums may be arrays, one entry per replicate.
    """
    n = stop - start
    if n <= LEAF_PAIRS:
        return leaf(start, stop)
    cut = start + n // 2
    return [x + y for x, y in zip(_pairwise(leaf, start, cut), _pairwise(leaf, cut, stop))]


class _Half(NamedTuple):
    """One half-leaf: its points and their weight w, zero wherever w is not finite and positive.

    Where its points of positive weight are gathered (see `_gathered`),
    `index` holds their positions and `taken` the points.
    """

    pts: np.ndarray
    w: np.ndarray  # a bool mask for an indicator weight
    active: np.ndarray
    hits: int
    level: float | None  # the one value w takes on its support (1 for a mask), NaN if more, None if no support
    index: np.ndarray | None = None
    taken: np.ndarray | None = None  # a Fortran-ordered (hits, d) block

    @property
    def sparse(self) -> bool:
        """At most half of the points have weight, so ratio columns read the gathered points (see `_values`)."""
        return 2 * self.hits <= len(self.pts)


def _gathered(half: _Half) -> _Half:
    """The half-leaf with its points of positive weight gathered column by column, a Fortran-ordered block."""
    index = np.flatnonzero(half.active)
    return half._replace(index=index, taken=np.take(half.pts.T, index, axis=1).T)


def _weigh(weight: Callable, pts: np.ndarray) -> _Half:
    """The half-leaf of points pts; a weight that needs sanitizing is replaced by a fresh one, 0 off its support."""
    w = np.asarray(weight(pts))
    if w.dtype == bool:
        active = w
        hits = int(np.count_nonzero(active))
        return _Half(pts, w, active, hits, 1.0 if hits else None)
    w = w.astype(float, copy=False)
    active = w > 0
    lo, hi = np.min(w), np.max(w)
    if not (lo >= 0.0 and hi < np.inf):  # a negative, NaN or infinite weight is no weight
        active &= w < np.inf
        w = np.where(active, w, 0.0)
        lo, hi = 0.0, np.max(w)  # w is 0 where the weight was not
    hits = int(np.count_nonzero(active))
    level = None
    if hits:  # hi > 0 is w's largest value on its support, and its only one where its least there is hi too
        level = float(hi) if lo == hi or np.min(w, where=active, initial=hi) == hi else math.nan
    return _Half(pts, w, active, hits, level)


_FLOAT_MAX = float(np.finfo(float).max)


def _one(seen: float | None, value: float | None) -> float | None:
    """The one value seen so far: None before any, NaN once two differ."""
    if value is None or seen == value:
        return seen
    return value if seen is None else math.nan


class _Step:
    """A ratio column's tallies over a sweep, and what its samples say about the rounding in its replicate sums.

    `capped` and `undefined` count its hits dropped as beyond the cap and
    as NaN.  A column averages v under its weight, or w v over the proposal
    for a `per_sample` column.  `value` is the one value c that v takes on
    the points of positive weight of every half-leaf (c = 1 for bool
    values, which read 0 or 1), NaN once the hits of a half-leaf show more
    than one or one beyond the cap; a half-leaf without hits shows none.
    It is read on the hits alone on every path (see `_ratio_terms`).  `on`
    counts the samples on which w v is not 0.  The sweep knows the one
    value a that w takes on its support (a = 1 for a bool mask, NaN if
    more; see `_Half`), the same for all of its columns.  Where a and c both
    exist the column is quantized: w v is 0 or a c, and one sample moves a
    replicate sum by h = |a c| / 2.  So a float weight of one value on its
    support quantizes a column as a bool mask does.
    """

    def __init__(self, per_sample: bool):
        self.per_sample = per_sample
        self.value: float | None = None
        self.on = self.capped = self.undefined = 0

    def add(self, value: float | None, wv: np.ndarray | int) -> None:
        """Add a half-leaf's one value on its hits (None without hits) and its w v, or its count of nonzero w v."""
        self.value = _one(self.value, value)
        if isinstance(wv, int):
            self.on += wv
        elif self.on == 0 or self.value == self.value:  # else only on > 0 matters, and it is known
            self.on += int(np.count_nonzero(wv))

    def rounding(self, su: np.ndarray, samples: int, weight: float) -> float:
        """The rounding variance the replicate numerator sums su carry, summed over the replicates.

        `weight` is the sweep's one value a of w on its support.  The
        variance is 0 where all of the `samples` that the denominator counts
        agree on what the column averages: w v is 0 on all of them (a ratio
        of exactly 0), or v (w v for a `per_sample` column) is one value on
        all of them (a constant, a membership ratio of exactly 1, a volume
        whose samples all hit).  A quantized column adds one step's,
        h^2 / 12 per replicate; any other adds the float grid of each sum,
        spacing(|u_r|)^2 / 12, so that replicates that agree to the last bit
        still leave a stderr above 0.
        """
        if self.on == 0:
            return 0.0
        quantum = self.value * weight
        averaged = quantum if self.per_sample else self.value
        if self.on == samples and averaged == averaged:
            return 0.0
        if quantum == quantum:
            try:
                return len(su) * ((0.5 * quantum) ** 2 / 12.0)
            except OverflowError:  # a step beyond ~1e154: the sums' stderr is inf
                return math.inf
        grid = np.spacing(np.abs(su))
        return float((grid * grid).sum()) / 12.0


_Values = tuple[np.ndarray, np.ndarray | None]


def _values(col: Ratio, half: _Half) -> _Values | None:
    """A ratio column's values v on a half-leaf, bool where the callable gives bool, else float, and those on its hits.

    A sparse half-leaf (see `_Half.sparse`) hands the callable its points
    of positive weight, the gathered block, and scatters the values into
    zeros of the half-leaf's size; the values on its hits are then the
    callable's own.  A denser one hands it the half-leaf itself: where
    every point hits, the values on the hits are v itself, and otherwise
    they are not formed (None).  A half-leaf without hits calls nothing and
    has no values: None.  w is zero off the hits, so w v is the same either
    way, up to the sign of a zero.
    """
    if not half.hits:
        return None
    sparse = half.sparse
    v = np.asarray(col.values(half.taken if sparse else half.pts))
    v = v if v.dtype == bool else v.astype(float, copy=False)
    if not sparse:
        return v, v if half.hits == len(v) else None
    scattered = np.zeros(len(half.pts), dtype=v.dtype)
    scattered[half.index] = v
    return scattered, v


def _ratio_terms(col: Ratio, half: _Half, values: _Values | None, share: np.ndarray, dshare: np.ndarray,
                 step: _Step) -> tuple[np.ndarray, np.ndarray | None]:
    """A half-leaf's shares of the pair averages u (0.5 w v) and d for its values, adding its tallies to `step`.

    A ratio column caps at MAGNITUDE_CAP; a `per_sample` one at the largest
    float, so it drops only non-finite values.  The least and greatest
    values, read once on the values of the hits where `_values` has them
    (a scatter is 0 off the hits, within any cap), else on the whole
    half-leaf, decide both the mask and the one value on the hits; only a
    dense, partly hit half-leaf whose two differ reads the hits again,
    masked, for that value, unless the column's is NaN already.  When every
    value lies within the cap nothing is masked, since w is already zero
    off the hits; the share of d is then None, standing for 0.5 w (or 0.5
    for a `per_sample` column).  Values beyond the cap off the hits are
    masked out all the same.  A half-leaf without values has a share of u
    of 0.  The shares are written into `share` and `dshare`; w v, the one
    value on the hits and the dropped hits go to the column's `step`.
    """
    if values is None:
        share.fill(0.0)
        return share, None
    v, hit = values
    cap = _FLOAT_MAX if col.per_sample else MAGNITUDE_CAP
    np.multiply(half.w, v, dtype=float, out=share)
    seen = v if hit is None else hit
    lo, hi = least, most = seen.min(), seen.max()
    if hit is None and not lo == hi and v.dtype != bool and step.value == step.value:  # dense, partly hit
        least, most = np.min(v, where=half.active, initial=np.inf), np.max(v, where=half.active, initial=-np.inf)
    one = 1.0 if v.dtype == bool else float(least) if least == most and -cap <= least <= cap else math.nan
    if lo >= -cap and hi <= cap:  # no NaN passes
        step.add(one, share)
        share *= 0.5
        return share, None
    bad = half.active & (~np.isfinite(v) | (np.abs(v) > cap))
    keep = half.active & ~bad
    np.copyto(share, 0.0, where=~keep)
    step.add(one, share)
    share *= 0.5
    if col.per_sample:
        np.multiply(~bad, 0.5, dtype=float, out=dshare)
    else:
        dshare.fill(0.0)
        np.copyto(dshare, half.w, where=keep)
        dshare *= 0.5
    undefined = int(np.count_nonzero(half.active & np.isnan(v)))
    step.capped += int(np.count_nonzero(bad)) - undefined
    step.undefined += undefined
    return share, dshare


def _unmasked(half: _Half, per_sample: bool, out: np.ndarray) -> np.ndarray:
    """A half-leaf's share of d with nothing masked, written into out."""
    if per_sample:
        out.fill(0.5)
        return out
    return np.multiply(half.w, 0.5, dtype=float, out=out)


def _by_replicate(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The sum of each replicate's run of v, for shape = (replicates, pairs each).

    A row sum of a C-ordered block runs along numpy's pairwise tree as a
    1-D sum does, so each equals v[run].sum() bit for bit.
    """
    return v.reshape(shape).sum(axis=1)


def _count(flags: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The number of True entries in each replicate's run of the bool array flags.

    count_nonzero of a whole array is a fast count, while count_nonzero(axis=1)
    is an integer sum along rows, so a few long rows are counted one by one.
    On a 2-core x86-64 VM, 4 rows of 4096 took 9 us one by one against
    17 us summed, and 16 rows of 1024 took 23 us against 17 us.
    """
    rows = flags.reshape(shape)
    if shape[0] <= 8:
        return np.array([np.count_nonzero(row) for row in rows])
    return np.count_nonzero(rows, axis=1)


def _ratio_sums(ratios: Sequence[Ratio], halves: tuple[_Half, _Half], shape: tuple[int, int],
                shares: list[np.ndarray], steps: list[_Step]) -> list:
    """The numerator and denominator sums per replicate of every ratio column, which `_pairwise` adds.

    The pairs are replicates as `_by_replicate` reads them.  u
    (numerator) and d (denominator) are the pair averages.  Capped and
    non-finite values are masked out of both, one half at a time.  Where neither half masks
    anything, d depends only on whether the column is `per_sample`, so it is
    formed and summed once per kind.  Either way u and d equal the masked
    ones up to the sign of a zero, which no sum keeps.  Each half's shares
    of u and d go into its two of the first four `shares`, one column at a
    time.

    A column's values are read on both halves before either is reduced; a
    half without hits has none, and adds nothing on either path.  Under a
    bool mask on both halves, a column whose values are bool on both (or
    on the one with hits) is counted: w v is 0 or 1, so a replicate's sum of u is half the
    number of its samples in w & v, and the unmasked d of a ratio column
    half the number in w.  Every partial sum of the halves' 0 and 1/2 is a
    multiple of 1/2 far below 2^53, so the float sums are these counts, bit
    for bit.  Each half's w & v is written into the mark, the last of
    `shares`, and counted before the other half's is.  Any other column
    takes the float path on both halves.
    """
    masks = halves[0].w.dtype == bool and halves[1].w.dtype == bool
    shared = {}

    def unmasked(per_sample: bool) -> np.ndarray:
        if per_sample not in shared:
            if masks and not per_sample:
                shared[per_sample] = 0.5 * (_count(halves[0].w, shape) + _count(halves[1].w, shape))
            else:
                d = _unmasked(halves[0], per_sample, shares[1])
                d += _unmasked(halves[1], per_sample, shares[3])
                shared[per_sample] = _by_replicate(d, shape)
        return shared[per_sample]

    out = []
    for col, step in zip(ratios, steps):
        va, vb = _values(col, halves[0]), _values(col, halves[1])
        if masks and all(v is None or v[0].dtype == bool for v in (va, vb)):
            counts = np.zeros(shape[0], dtype=np.intp)
            for half, v in zip(halves, (va, vb)):
                if v is not None:
                    counts += _count(np.logical_and(half.w, v[0], out=shares[4]), shape)
            step.add(None if va is None and vb is None else 1.0, int(counts.sum()))
            out += [0.5 * counts, unmasked(col.per_sample)]
            continue
        u, da = _ratio_terms(col, halves[0], va, shares[0], shares[1], step)
        ub, db = _ratio_terms(col, halves[1], vb, shares[2], shares[3], step)
        u += ub
        if da is None and db is None:
            sd = unmasked(col.per_sample)
        else:
            da = _unmasked(halves[0], col.per_sample, shares[1]) if da is None else da
            da += _unmasked(halves[1], col.per_sample, shares[3]) if db is None else db
            sd = _by_replicate(da, shape)
        out += [_by_replicate(u, shape), sd]
    return out


class _Extremes:
    """The least and greatest finite values a range column has seen: inf and -inf before any."""

    def __init__(self):
        self.lo, self.hi = math.inf, -math.inf
        self.below = self.above = False  # a value beyond MAGNITUDE_CAP on that side, or a NaN, was seen


def _feed_ranges(ranges: Sequence[Range], extremes: list[list[_Extremes]], pts: np.ndarray) -> None:
    """Add one half-leaf's hit points, a Fortran-ordered (h, d) block, to every range column.

    Each `Range` is called once and feeds each column of its block to its
    own extremes, in order; a block with other than `width` columns raises
    ValueError.  The block may be a view of the sweep's work block, and a
    column reads it only here.
    """
    for col, group in zip(ranges, extremes):
        block = np.asarray(col.values(pts), dtype=float)
        for ext, v in zip(group, [block] if col.width is None else block.T, strict=True):
            _add_values(ext, v)


def _add_values(ext: _Extremes, v: np.ndarray) -> None:
    """Flag the values beyond MAGNITUDE_CAP and keep the least and greatest finite ones, the first of a tie."""
    lo, hi = v.min(), v.max()  # NaN propagates
    if np.isfinite(lo) and np.isfinite(hi):
        ext.below |= bool(lo < -MAGNITUDE_CAP)
        ext.above |= bool(hi > MAGNITUDE_CAP)
    else:
        nan = bool(np.isnan(v).any())
        ext.below |= nan or bool(np.any(v < -MAGNITUDE_CAP))
        ext.above |= nan or bool(np.any(v > MAGNITUDE_CAP))
        v = v[np.isfinite(v)]
        if not v.size:
            return
        lo, hi = v.min(), v.max()
    if lo < ext.lo:
        ext.lo = float(lo)
    if hi > ext.hi:
        ext.hi = float(hi)


def _ratio_result(su: np.ndarray, sv: np.ndarray, capped: int, undefined: int, m: int, hits: int,
                  rounding: float) -> Estimate:
    """The ratio of the numerator and denominator sums, with the replicates' ratio-estimator stderr.

    With reps replicate sums u_r and d_r and R = sum u / sum d, the half-width
    is t * sqrt((sum (u_r - R d_r)^2 + rounding) / (reps (reps - 1)))
    / mean d, with t Student's at reps - 1 degrees of freedom.  `rounding`
    is the variance that the u_r carry below what their spread can show
    (`_Step.rounding`): each u_r of a whole lattice can take few values, which
    may all agree, so the residuals alone can read 0 on a ratio strictly
    inside its range (L'Ecuyer, Munger & Tuffin 2010), and a lattice rule
    exact on the integrand leaves residuals of rounding alone, which may
    cancel to 0.  It is inf with one replicate, and where a sum overflowed.
    `sweep` calls it with floating-point warnings off.
    """
    total_v = float(sv.sum())
    if total_v <= 0:
        return Estimate(float("nan"), float("nan"), hits, 2 * m, capped, undefined)
    ratio = float(su.sum()) / total_v
    reps = len(su)
    se = math.inf
    if reps > 1 and math.isfinite(ratio) and math.isfinite(total_v):
        resid = su - ratio * sv
        squares = float((resid * resid).sum()) + rounding
        se = STUDENT_T[reps - 2] * math.sqrt(squares / (reps * (reps - 1))) / (total_v / reps)
    return Estimate(ratio, se, hits, 2 * m, capped, undefined)


def _range_result(ext: _Extremes, hits: int) -> EssRange:
    lo, hi = (ext.lo, ext.hi) if ext.lo <= ext.hi else (-math.inf, math.inf)  # else no finite value
    return EssRange(-math.inf if ext.below else lo, math.inf if ext.above else hi, hits)


def _resolve_box(region: Region) -> AxisBox:
    if not bbox_is_finite(region.bbox):
        raise UnboundedRegion("sampling requires a finite bounding box")
    return AxisBox(region.bbox)


def volume_column(proposal: Proposal) -> Ratio:
    """Column whose value is the volume of {w > 0}, for an indicator weight w sampled from proposal."""
    vol = proposal.volume
    return Ratio(lambda pts: np.full(len(pts), vol), per_sample=True)


def mc_volume(region: Region, spec: SampleSpec) -> Estimate:
    """Unbiased Lebesgue volume estimate; deterministic for a fixed spec."""
    box = _resolve_box(region)
    if box.volume == 0.0:
        return Estimate(0.0, 0.0, 0, _samples(spec))
    return sweep(region.contains, box, spec, ratios=[volume_column(box)]).ratios[0]


def mc_integral(f: Callable, region: Region, spec: SampleSpec) -> Estimate:
    """Volume-weighted mean estimate of the integral of f over the region.

    Value and stderr are NaN when the region has hits and f is dropped on
    every one of them; an empty region integrates to 0.
    """
    box = _resolve_box(region)
    if box.volume == 0.0:
        return Estimate(0.0, 0.0, 0, _samples(spec))
    r = sweep(region.contains, box, spec, ratios=[Ratio(f, per_sample=True)]).ratios[0]
    if r.hits and r.capped + r.undefined == r.hits:  # every hit dropped: nothing to average
        return replace(r, value=math.nan, stderr=math.nan)
    return replace(r, value=box.volume * r.value, stderr=box.volume * r.stderr)


def ess_range(f: Callable, region: Region, spec: SampleSpec) -> EssRange:
    """(ess inf, ess sup) of f over the region, read as the least and greatest finite hit values."""
    box = _resolve_box(region)
    if box.volume == 0.0:
        raise NoHits("region has an empty bounding box")
    result = sweep(region.contains, box, spec, ranges=[Range(f)])
    if result.hits == 0:
        raise NoHits("no samples landed in the region")
    return result.ranges[0]
