"""Seeded Monte Carlo estimation over regions.

The sample stream is generated by the counter-based Philox generator in
fixed-size chunks, so identical specs give bit-identical estimates and
chunks could be evaluated in parallel and combined in order without
changing the result.  Samples are drawn uniformly from a `Proposal`, a set
symmetric about its centre c with an exact volume, in center-symmetric
pairs (x, 2c - x); pair averages are the unit of the variance estimate.
The pairing makes estimates of odd integrands about the centre vanish
identically instead of merely on average, which the density engine relies
on for its cancellation fixtures.

There are three kinds of proposal: an axis box (the bounding box of a
region, drawn as it always was), a spherical shell (a ball when its inner
radius is 0) and an oriented box.  Each chunk is returned as two
Fortran-ordered (m, d) blocks, so the column-wise geometry kernels read
contiguous coordinates.

Every estimator is one `sweep` of the stream: each chunk is drawn once, a
reference weight is evaluated once per half-chunk, and any number of ratio
and essential-range columns are fed from the points of positive weight.
Columns on one sweep share their samples (common random numbers), so each
agrees exactly with the same column estimated on a separate sweep.

Integrand samples that are non-finite or exceed the magnitude cap are
tallied and dropped from averages, never averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import Bbox, Region, bbox_is_finite, bbox_volume

CHUNK_PAIRS = 1 << 15
MAGNITUDE_CAP = 1.0e3
ESS_QUANTILE = 1.0e-3
CONFIDENCE = 1.96


class UnboundedRegion(ValueError):
    """Volume estimation needs a finite bounding box."""


class NoHits(RuntimeError):
    """The region received no samples at this resolution."""


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan: count, seed, optional bounding-box override.

    Sample counts are rounded up to the next even number so that the stream
    consists of whole antithetic pairs.
    """

    n: int = 200_000
    seed: int = 0
    bbox: Bbox | None = None

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

    `volume` is the set's exact Lebesgue volume.  `_block(gen, m)` draws m
    pairs as two Fortran-ordered (m, dim) arrays, the second the reflection
    of the first through the centre.
    """

    dim: int
    center: np.ndarray
    volume: float

    def _block(self, gen: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def pairs(self, seed: int, stream: int, pairs: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The chunks of `pairs` antithetic pairs; chunk k draws from the Philox stream jumped k times."""
        base = np.random.Philox(seed=np.random.SeedSequence(entropy=(int(seed), int(stream))))
        produced = 0
        chunk = 0
        while produced < pairs:
            m = min(CHUNK_PAIRS, pairs - produced)
            yield self._block(np.random.Generator(base.jumped(chunk)), m)
            produced += m
            chunk += 1

    def _reflected(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """center ± offsets for a (dim, m) block of offsets, as (m, dim) transposes."""
        c = self.center[:, None]
        return (c + offsets).T, (c - offsets).T


class AxisBox(Proposal):
    """The box lo < x < hi, paired through x -> lo + hi - x.

    Draws the (m, dim) uniforms u of every earlier release and writes
    lo_k + u_k w_k and hi_k - u_k w_k column by column, so the points are
    bit-identical to lo + u * w and hi - u * w.
    """

    def __init__(self, bbox: Bbox):
        self.lo, self.hi = (np.asarray(v, dtype=float) for v in bbox)
        self.dim = self.lo.size
        self.center = 0.5 * (self.lo + self.hi)
        self.volume = bbox_volume(bbox)

    def _block(self, gen, m):
        u = gen.random((m, self.dim))
        a = np.empty((m, self.dim), order="F")
        b = np.empty((m, self.dim), order="F")
        for k, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            step = u[:, k] * (hi - lo)
            np.add(lo, step, out=a[:, k])
            np.subtract(hi, step, out=b[:, k])
        return a, b


class Shell(Proposal):
    """The shell r0 < |x - center| < r1; a ball when r0 is 0.

    A Gaussian direction times the radius r1 * (s + u (1 - s))^(1/d), with
    s = (r0 / r1)^d, which inverts the radial density proportional to r^(d-1).
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

    def _block(self, gen, m):
        g = gen.standard_normal((self.dim, m))
        u = gen.random(m)
        radius = self.r1 * (self._inner + u * (1.0 - self._inner)) ** (1.0 / self.dim)
        norm2 = g[0] * g[0]
        for row in g[1:]:
            norm2 += row * row
        return self._reflected(g * (radius / np.sqrt(norm2)))


class OrientedBox(Proposal):
    """The box center + frame @ t with |t_k| < half[k], for an orthonormal frame."""

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

    def _block(self, gen, m):
        t = gen.random((self.dim, m))
        t = (2.0 * t - 1.0) * self.half[:, None]
        return self._reflected(self.frame @ t)


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
    proposal: Proposal | Bbox,
    spec: SampleSpec,
    stream: int = 0,
    ratios: Sequence[Ratio] = (),
    ranges: Sequence[Range] = (),
) -> Sweep:
    """One pass over the sample stream feeding every column.

    Numerator and denominator of every ratio share the stream, so ratios of
    nested sets are exact (a subset never collects more weighted hits than
    its superset) and the mean of the constant 1 is exactly 1.  Columns are
    reduced one at a time, so temporaries stay one column wide.  With a
    single antithetic pair the variance is unknown and stderr is inf.
    A bounding box is sampled as an `AxisBox`.
    """
    if not isinstance(proposal, Proposal):
        proposal = AxisBox(proposal)
    m = spec.pairs
    hits = 0
    sums = [[0.0, 0.0, 0.0, 0.0, 0.0, 0] for _ in ratios]  # su, suu, sv, svv, suv, capped
    found: list[list[np.ndarray]] = [[] for _ in ranges]
    unbounded = [[False, False] for _ in ranges]  # below -cap, above cap
    with np.errstate(all="ignore"):
        for a, b in proposal.pairs(spec.seed, stream, m):
            halves = []
            for pts in (a, b):
                w = np.asarray(weight(pts), dtype=float)
                active = w > 0
                hits += int(np.count_nonzero(active))
                halves.append((pts, w, active))
            for col, acc in zip(ratios, sums):
                u = np.zeros(len(a))
                d = np.zeros(len(a))
                for pts, w, active in halves:
                    v = np.asarray(col.values(pts), dtype=float)
                    bad = active & (~np.isfinite(v) | (np.abs(v) > col.cap))
                    acc[5] += int(np.count_nonzero(bad))
                    keep = active & ~bad
                    u += 0.5 * np.where(keep, w * v, 0.0)
                    d += 0.5 * (~bad if col.per_sample else np.where(keep, w, 0.0))
                acc[0] += float(u.sum())
                acc[1] += float((u * u).sum())
                acc[2] += float(d.sum())
                acc[3] += float((d * d).sum())
                acc[4] += float((u * d).sum())
            for pts, w, active in halves:
                if ranges and active.any():
                    _feed_ranges(ranges, found, unbounded, np.take(pts, np.flatnonzero(active), axis=0))
    return Sweep(
        hits,
        tuple(_ratio_result(acc, m, hits) for acc in sums),
        tuple(_range_result(col, vals, flags, hits) for col, vals, flags in zip(ranges, found, unbounded)),
    )


def _feed_ranges(ranges: Sequence[Range], found: list, unbounded: list, pts: np.ndarray) -> None:
    """Add one half-chunk's hit points to every range column.

    Only the last values block is kept, so adjacent columns that share a
    values callable (the axes of one gradient) evaluate it once.
    """
    source = block = None
    for col, vals, flags in zip(ranges, found, unbounded):
        if col.values is not source:
            source, block = col.values, np.asarray(col.values(pts), dtype=float)
        v = block if col.axis is None else block[:, col.axis]
        nan = bool(np.isnan(v).any())
        flags[0] |= nan or bool(np.any(v < -col.cap))
        flags[1] |= nan or bool(np.any(v > col.cap))
        finite = v[np.isfinite(v)]
        if finite.size:
            vals.append(finite)


def _ratio_result(acc: list, m: int, hits: int) -> WeightedMean:
    su, suu, sv, svv, suv, capped = acc
    if sv <= 0:
        return WeightedMean(float("nan"), float("nan"), hits, sv, capped, 2 * m)
    ratio = su / sv
    mean_v = sv / m
    resid2 = max(suu - 2 * ratio * suv + ratio * ratio * svv, 0.0)
    se = CONFIDENCE * np.sqrt(resid2 / (m * (m - 1))) / mean_v if m > 1 else np.inf
    return WeightedMean(float(ratio), float(se), hits, float(sv), capped, 2 * m)


def _range_result(col: Range, vals: list[np.ndarray], flags: list[bool], hits: int) -> EssRange:
    if vals:
        lo, hi = np.quantile(np.concatenate(vals), [col.q, 1.0 - col.q])
    else:
        lo, hi = -np.inf, np.inf
    return EssRange(float(-np.inf if flags[0] else lo), float(np.inf if flags[1] else hi), hits)


def _resolve_box(region: Region, spec: SampleSpec) -> AxisBox:
    bbox = spec.bbox if spec.bbox is not None else region.bbox
    if not bbox_is_finite(bbox):
        raise UnboundedRegion("sampling requires a finite bounding box")
    return AxisBox(bbox)


def _indicator(region: Region) -> Callable:
    return lambda pts: region.contains(pts).astype(float)


def volume_column(proposal: Proposal) -> Ratio:
    """Column whose value is the volume of {w > 0}, for an indicator weight w sampled from proposal."""
    vol = proposal.volume
    return Ratio(lambda pts: np.full(len(pts), vol), cap=np.inf, per_sample=True)


def mc_volume(region: Region, spec: SampleSpec, stream: int = 0) -> Estimate:
    """Unbiased Lebesgue volume estimate; deterministic for a fixed spec."""
    box = _resolve_box(region, spec)
    if box.volume == 0.0:
        return Estimate(0.0, 0.0, 0, 2 * spec.pairs)
    r = sweep(_indicator(region), box, spec, stream, ratios=[volume_column(box)]).ratios[0]
    return Estimate(r.value, r.stderr, r.hits, r.n)


def mc_integral(f: Callable, region: Region, spec: SampleSpec, stream: int = 0) -> Estimate:
    """Volume-weighted mean estimate of the integral of f over the region."""
    box = _resolve_box(region, spec)
    vol = box.volume
    if vol == 0.0:
        return Estimate(0.0, 0.0, 0, 2 * spec.pairs)
    r = sweep(_indicator(region), box, spec, stream, ratios=[Ratio(f, cap=np.inf, per_sample=True)]).ratios[0]
    if not r.weight > 0:
        return Estimate(0.0, 0.0, r.hits, r.n, r.capped)
    return Estimate(float(vol * r.value), float(vol * r.stderr), r.hits, r.n, r.capped)


def mc_weighted_mean(
    values: Callable,
    weight: Callable,
    bbox: Bbox,
    spec: SampleSpec,
    stream: int = 0,
    cap: float = MAGNITUDE_CAP,
) -> WeightedMean:
    """Weighted mean of `values` under the sample-weight field `weight`.

    Samples whose value is non-finite or exceeds `cap` in magnitude are
    tallied in `capped` and dropped from both sums (see `sweep`).
    """
    return sweep(weight, bbox, spec, stream, ratios=[Ratio(values, cap)]).ratios[0]


def ess_range(
    f: Callable,
    region: Region,
    spec: SampleSpec,
    q: float = ESS_QUANTILE,
    cap: float = MAGNITUDE_CAP,
    stream: int = 0,
) -> EssRange:
    """Robust surrogate for (ess inf, ess sup) of f over the region."""
    column = Range(f, q, cap)
    box = _resolve_box(region, spec)
    if box.volume == 0.0:
        raise NoHits("region has an empty bounding box")
    result = sweep(_indicator(region), box, spec, stream, ranges=[column])
    if result.hits == 0:
        raise NoHits("no samples landed in the region")
    return result.ranges[0]
