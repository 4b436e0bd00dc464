"""Numerical evaluation of density measures.

A density measure for a feature set F inside a domain Omega assigns to a set
A the limit, as delta shrinks, of the weighted volume ratio

    ratio(delta) = integral over A ∩ F_delta ∩ Omega  /  integral over F_delta ∩ Omega

with F_delta the open delta-neighborhood of F.  The limit functional exists
only abstractly; this engine computes the canonical ratio profile along a
halving delta schedule, estimates the limit from the tail of the profile,
and reports when no limit exists (the [liminf, limsup] interval is then the
honest answer).  Each level is one pass over one sample stream (the lattice
replicates shifted from Philox stream k at level k) that feeds every
functional evaluated there: ratios, sharp
integrals, essential ranges and the volume of F_delta ∩ Omega.  Numerator
and denominator of every ratio share that stream, which makes normalization
and set monotonicity exact rather than statistical.  Each level reads only
its own stream, so the levels of a profile are independent work, and any
order or process gives the same bytes.

A profile of at least `FORK_PAIRS` pairs per level runs its levels on
W = min(levels, usable CPUs - other runnable tasks) CPUs: level k goes to
share k mod W, the calling process runs share 0 on the CPU it runs on and
forked children the others, each pinned to one of the next CPUs of the
caller's affinity mask.  Below that size, where the machine's other
runnable tasks leave fewer than 2 CPUs, without `os.fork` or
`os.sched_getaffinity`, in a process that runs more than one OS thread
(numpy's BLAS threads count; the CLI entry, `__main__`, makes BLAS
single-threaded, as OPENBLAS_NUM_THREADS=1 set before numpy is imported does
in a library process), or while a function of this module is rebound (a
tracer's wrapper), the levels run one after another in the calling process.
The CLI's tasks share the CPUs the same way where each is below that size
and together they fill a level of that size per share (`_in_tasks`).
Where it forks, a callable (integrand, weight, region test) may run in a child:
its return values and what it writes to stdout and stderr reach the caller,
its other side effects (counters, appended lists, globals) do not.

A level samples one cover of F_delta ∩ Omega and runs exactly the
membership tests that the cover does not decide.  `_level_cover` decides
both, and a new cover is one more candidate there.  The clipped box (the
feature's bbox grown by delta, cut to Omega's) comes first; the feature's
own cover replaces it only where its volume is strictly smaller:

    cover                                   volume                         guarantee               tests
    clipped box                             its own                        covers F_delta ∩ Omega  F_delta, Omega
      of a 1-D point in a `Box` Omega       at most 2 delta                is F_delta ∩ Omega      none
    ball around a point in d >= 2           the d-ball's                   inside F_delta          Omega
      folded on k faces of a `Box` Omega    the ball's / 2^k               inside F_delta          Omega
    shell around a sphere of radius r       ball(r+delta) - ball(r-delta)  inside F_delta          Omega
      inner half, where Omega is its ball   ball(r) - ball(r-delta)        inside F_delta          Omega
    ball or shell inside Omega (`_inside`)  as above                       inside F_delta, Omega   none
    oriented box, segment of length L       (L+2 delta) (2 delta)^(d-1)    covers F_delta          F_delta, Omega

A 1-D point's ball would be the interval its box already is.  A ball folds
onto Omega's side of each face of an axis `Box` Omega that its point lies
exactly on: a convex Omega lies in each face's halfspace, so the folded
ball still covers F_delta ∩ Omega.  On the ball a cone's membership
depends on the direction coordinates alone, so every replicate, a whole
lattice, reads a sector's angular fraction to within one hit.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .geometry import (
    Ball,
    Bbox,
    Box,
    Cone,
    Feature,
    Neighborhood,
    PointFeature,
    Region,
    RegionBoundary,
    SegmentFeature,
    bbox_diagonal,
    bbox_inflate,
    bbox_intersect,
    bbox_is_finite,
    bbox_volume,
)
from .quadrature import (
    AxisBox,
    EssRange,
    Estimate,
    OrientedBox,
    Proposal,
    Range,
    Ratio,
    SampleSpec,
    Shell,
    Sweep,
    UnboundedRegion,
    sweep,
    volume_column,
)

DEFAULT_TOL = 0.02
DEFAULT_COUNT = 12
# `count` is read from a config, `deltas()` lists every level and each level is
# a full pass; from 1075 halvings on, a delta0 <= 1 gives delta 0.0 (0.5**1075 == 0.0)
MAX_LEVELS = 1024
# pairs per level from which a profile forks (module docstring): on 2 cores a
# 12-level profile broke even at 25,000-50,000 pairs, so forking starts at the next power of two
FORK_PAIRS = 2**16
# its fourth field counts the runnable tasks of the machine, this process included
_LOADAVG = "/proc/loadavg"
T = TypeVar("T")

CONVERGED = "converged"
OSCILLATING = "oscillating"
INSUFFICIENT = "insufficient"


class VanishingReference(RuntimeError):
    """The reference mass of F_delta ∩ Omega is indistinguishable from zero."""


class TooShort(ValueError):
    """Limit estimation needs at least three profile entries."""


@dataclass(frozen=True)
class DeltaSchedule:
    """delta0 * 0.5**k, k = 0..count-1: only delta -> 0 matters, so delta halves at every level."""

    delta0: float
    count: int = DEFAULT_COUNT

    def __post_init__(self):
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        if self.count < 3:
            raise ValueError("need at least three levels")
        if self.count > MAX_LEVELS:
            raise ValueError(f"need at most {MAX_LEVELS} levels")

    def deltas(self) -> list[float]:
        return [self.delta0 * 0.5**k for k in range(self.count)]

    @classmethod
    def auto(cls, feature: Feature, omega: Region, count: int = DEFAULT_COUNT) -> "DeltaSchedule":
        """Half the feature's bbox diagonal, falling back to the domain's when degenerate."""
        d = bbox_diagonal(feature.bbox)
        if not np.isfinite(d) or d <= 0:
            if not bbox_is_finite(omega.bbox):
                raise UnboundedRegion("cannot derive a schedule from an unbounded domain")
            d = bbox_diagonal(omega.bbox)
        return cls(d / 2.0, count)


@dataclass(frozen=True)
class Interval:
    """Closed interval with tolerance metadata."""

    lo: float
    hi: float
    tol: float = 0.0

    def __post_init__(self):
        if np.isfinite(self.lo) and np.isfinite(self.hi) and not self.lo <= self.hi + self.tol:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}] at tol {self.tol}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


@dataclass(frozen=True)
class LevelEstimate:
    """One row of a delta profile: `capped` and `undefined` count the hits dropped as beyond the cap and as NaN."""

    delta: float
    value: float
    stderr: float
    hits: int
    capped: int = 0
    undefined: int = 0


@dataclass(frozen=True)
class ProbeResult:
    series: tuple[LevelEstimate, ...]
    limit: Interval
    verdict: str
    unintegrable: bool = False


def limit_estimate(series: Sequence[LevelEstimate], tol: float) -> tuple[Interval, str]:
    """Estimate the limit of a profile sorted by decreasing delta.

    The tail window holds the last ceil(K/3) entries; its stderr-widened
    min/max give the reported interval.  Converged means the spread fits in
    tol; oscillating means the spread exceeds tol but agrees with the
    previous window (a stable envelope); everything else is insufficient.
    """
    if len(series) < 3:
        raise TooShort("need at least three profile entries")
    w = math.ceil(len(series) / 3)
    lo, hi = _window_range(series[-w:])
    interval = Interval(lo, hi, tol)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return interval, INSUFFICIENT
    spread = hi - lo
    if spread <= tol:
        return interval, CONVERGED
    if len(series) >= 2 * w:
        lo2, hi2 = _window_range(series[-2 * w:-w])
        if np.isfinite(lo2) and np.isfinite(hi2):
            spread2 = hi2 - lo2
            margin = max(tol, 0.25 * max(spread, spread2))
            mids_close = abs(interval.mid - 0.5 * (lo2 + hi2)) <= margin
            if abs(spread - spread2) <= margin and mids_close:
                return interval, OSCILLATING
    return interval, INSUFFICIENT


def _window_range(rows: Sequence[LevelEstimate]) -> tuple[float, float]:
    """The least value - stderr and the greatest value + stderr; NaN where any row's is NaN.

    Python's min and max skip a NaN unless it comes first, so it is checked
    for explicitly.
    """
    lows = [r.value - r.stderr for r in rows]
    highs = [r.value + r.stderr for r in rows]
    return (math.nan if any(map(math.isnan, lows)) else min(lows),
            math.nan if any(map(math.isnan, highs)) else max(highs))


# ----------------------------------------------------------- ratio machinery

# The columns of a level's pass, given the level's delta and proposal.
Columns = Callable[[float, Proposal], tuple[Sequence[Ratio], Sequence[Range]]]


def _level_bbox(feature: Feature, omega: Region, delta: float) -> Bbox:
    if not bbox_is_finite(omega.bbox):
        raise UnboundedRegion("the domain must have a finite bounding box")
    bbox = bbox_intersect(bbox_inflate(feature.bbox, delta), omega.bbox)
    if bbox_volume(bbox) == 0.0:
        raise VanishingReference(f"F_delta ∩ Omega has an empty bounding box at delta={delta}")
    return bbox


class _Cover(NamedTuple):
    """What a level samples, and the membership tests that its proposal does not decide."""

    proposal: Proposal
    tests: tuple[Callable, ...]


def _level_cover(feature: Feature, omega: Region, delta: float) -> _Cover:
    """The level's cover of F_delta ∩ Omega and the tests it runs, as the module docstring's table says."""
    box = AxisBox(_level_bbox(feature, omega, delta))
    both = (Neighborhood(feature, delta).contains, omega.contains)
    if isinstance(feature, PointFeature) and feature.dim == 1:
        return _Cover(box, () if isinstance(omega, Box) else both)
    if isinstance(feature, PointFeature):
        own = Shell(feature.point, 0.0, delta, _faces(feature.point, omega))
    elif isinstance(feature, RegionBoundary) and isinstance(feature.region, Ball):
        sphere = feature.region
        outer = sphere.radius if omega == sphere else sphere.radius + delta
        own = Shell(sphere.center, max(sphere.radius - delta, 0.0), outer)
    elif isinstance(feature, SegmentFeature) and feature.a != feature.b:
        slab = OrientedBox.around_segment(feature.a, feature.b, delta)
        return _Cover(slab if slab.volume < box.volume else box, both)
    else:
        return _Cover(box, both)
    if not own.volume < box.volume:
        return _Cover(box, both)
    return _Cover(own, () if _inside(own, omega) else (omega.contains,))


def _faces(point: Sequence[float], omega: Region, tol: float = 0.0) -> tuple[tuple[int, int], ...]:
    """The faces of an axis box Omega within tol of the point, as (axis, inward sign); none for other Omegas."""
    if not isinstance(omega, Box):
        return ()
    near = lambda c, face: abs(c - face) <= tol
    return tuple((k, 1 if near(c, lo) else -1) for k, (c, lo, hi) in enumerate(zip(point, omega.lo, omega.hi))
                 if near(c, lo) or near(c, hi))


def _reference_weight(tests: Sequence[Callable], weight: Callable | None) -> Callable:
    """The level's weight on its cover's points: `weight` (or 1) where each of `tests` holds, 0 elsewhere.

    A point of a box exactly on its rim, which the strict tests leave out,
    counts where they are skipped: it is drawn about once in 1e12 samples, as
    the folded ball's rim points are.  Tested or not, the weight is one
    value per point: a `weight` that returns one number for a block weighs
    every point by it.
    """

    def w(pts):
        mask = None
        for test in tests:
            mask = test(pts) if mask is None else mask & test(pts)
        if weight is None:
            return np.ones(len(pts), dtype=bool) if mask is None else mask
        with np.errstate(all="ignore"):
            base = np.broadcast_to(np.asarray(weight(pts), dtype=float), (len(pts),))
        return base if mask is None else np.where(mask, base, 0.0)

    return w


def _inside(shell: Shell, omega: Region) -> bool:
    """Whether a shell's closed outer ball lies inside Omega by a safe margin: sdf(c) + r1 + margin < 0.

    Only an Omega with an exact signed distance (a pseudo-distance may fall
    short) and a finite bounding box is asked: a `Ball` or an axis `Box`.
    Its points then lie in Omega, and so does every rounding of them: a
    point c + o with |o| <= r1 rounds by a few d ulps of the sizes involved
    (its coordinates, r1 and Omega's bounding box), and so do Omega's test
    of it and sdf(c), while the margin asked for is 2^-40 d times their
    sum, ~2^11 times more.  A folded ball's centre lies on a face of Omega,
    and a collar whose shell reaches Omega's sphere touches it: not inside.
    """
    if not (omega.exact and bbox_is_finite(omega.bbox)):
        return False
    c, r = shell.center, shell.r1
    margin = 2.0 ** -40 * shell.dim * (r + np.abs(c).max() + max(np.abs(end).max() for end in omega.bbox))
    return bool(omega.sdf(c)[0] + r + margin < 0.0)


def _level_pass(feature: Feature, omega: Region, delta: float, spec: SampleSpec, stream: int,
                columns: Columns, weight: Callable | None = None) -> Sweep:
    """One kernel pass over F_delta ∩ Omega feeding every column of the level."""
    cover = _level_cover(feature, omega, delta)
    ratios, ranges = columns(delta, cover.proposal)
    result = sweep(_reference_weight(cover.tests, weight), cover.proposal, spec, stream, ratios, ranges)
    if result.hits == 0:
        raise VanishingReference(f"no reference mass at delta={delta}")
    return result


def _profile(feature: Feature, omega: Region, schedule: DeltaSchedule, spec: SampleSpec,
             columns: Columns, weight: Callable | None = None) -> list[tuple[float, Sweep]]:
    """One pass per level along the schedule, level k drawn from stream k; in shares from `FORK_PAIRS` pairs on."""
    deltas = schedule.deltas()
    run = lambda k: _level_pass(feature, omega, deltas[k], spec, k, columns, weight)
    return list(zip(deltas, _in_shares(run, len(deltas), len(deltas) if spec.pairs >= FORK_PAIRS else 1)))


def _in_shares(run: Callable[[int], T], count: int, most: int) -> list[T]:
    """run(k) for k = 0..count-1 in at most `most` shares over `_cpus`: a profile's levels, the CLI's tasks.

    What forked shares finished is taken as it is; the caller runs every other
    k itself, in order, so the earliest failing k raises its own exception.
    """
    done = _forked(run, count, _cpus(min(count, most)))
    return [done[k] if k in done else run(k) for k in range(count)]


def _in_tasks(run: Callable[[int], T], pairs: Sequence[int]) -> list[T]:
    """run(k) for tasks of pairs[k] pairs per level: in turn if one is at fork size, else a share per `FORK_PAIRS`."""
    return _in_shares(run, len(pairs), 1 if max(pairs, default=0) >= FORK_PAIRS else sum(pairs) // FORK_PAIRS)


def _cpus(count: int) -> list[int]:
    """The CPUs that `count` independent runs share; one or none runs them serially.

    They are W = min(count, usable CPUs - other runnable tasks) CPUs of the
    affinity mask, from the one the caller runs on, cyclically: a machine
    busy with other work gets no more processes, and the scheduler has
    spread independent processes over their CPUs, so their shares start
    apart.  A share pinned to one CPU finds one here, so nothing it runs forks again.
    """
    if count < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or _rebound():
        return []
    try:
        if len(os.listdir("/proc/self/task")) != 1:  # forking a threaded process may copy a held lock
            return []
        with open(_LOADAVG, "rb") as loadavg:
            busy = int(loadavg.read().split()[3].split(b"/")[0]) - 1  # runnable tasks besides this one
        with open("/proc/self/stat", "rb") as stat:
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39: the CPU it last ran on
    except (OSError, ValueError, IndexError):
        return []
    mask = sorted(os.sched_getaffinity(0))
    width = min(count, len(mask) - busy)
    if width < 2:
        return []
    start = mask.index(here) if here in mask else 0
    return (mask[start:] + mask[:start])[:width]


def _rebound() -> bool:
    """Whether a function of this module was rebound: a wrapper (a tracer's counter) must see every level."""
    return any(globals()[name] is not fn for name, fn in _OWN)


def _forked(run: Callable[[int], T], count: int, cpus: list[int]) -> dict[int, T]:
    """The run(k) that W = len(cpus) shares finished, by k; none where W < 2.

    Run k belongs to share k mod W.  Share 0 runs here on cpus[0] and share
    j in a forked child on cpus[j], which sends back, pickled, the runs it
    finished; a child that dies sends nothing.  Every share stops at its
    first failing run.  Every child is reaped before this returns, killed
    first when the caller raises, and the caller's affinity mask is
    restored.  A caller whose stdout or stderr cannot be flushed forks nothing.
    """
    done: dict[int, T] = {}
    if len(cpus) < 2 or not _flushed():
        return done
    import signal

    mask = os.sched_getaffinity(0)
    children: dict[int, int] = {}  # pid: the read end of its pipe, until it is reaped
    try:
        for j in range(1, len(cpus)):
            try:
                pid, read = _fork(run, range(j, count, len(cpus)), cpus[j])
            except OSError:  # no process or pipe to spare: the caller runs the shares left
                break
            children[pid] = read
        os.sched_setaffinity(0, cpus[:1])
        _run_share(run, range(0, count, len(cpus)), done)
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                sent = pipe.read()
            if _reap(pid, children) == 0:
                done.update(pickle.loads(sent))
    finally:
        for pid in list(children):
            os.kill(pid, signal.SIGKILL)
            _reap(pid, children)
        os.sched_setaffinity(0, mask)
    return done


def _run_share(run: Callable[[int], T], share: range, done: dict[int, T]) -> None:
    """Run the share in order into `done` up to the first run that raises, which `_in_shares` runs again."""
    try:
        for k in share:
            done[k] = run(k)
    except Exception:
        pass


def _fork(run: Callable[[int], T], share: range, cpu: int) -> tuple[int, int]:
    """Start a child that runs the share on one CPU: its pid and the read end of the pipe that it answers on."""
    read, write = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child(run, share, cpu, write)
    except OSError:
        os.close(read)
        raise
    finally:
        os.close(write)
    return pid, read


def _child(run: Callable[[int], T], share: range, cpu: int, write: int):
    """In a forked child: run the share on one CPU, pickle the runs it finished into the pipe and exit 0."""
    status = 1
    try:
        os.sched_setaffinity(0, (cpu,))
        done: dict[int, T] = {}
        _run_share(run, share, done)
        if _flushed():  # else the caller runs the share again, and its output with it
            with open(write, "wb") as pipe:
                pickle.dump(done, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
    finally:
        os._exit(status)


def _flushed() -> bool:
    """Flush stdout and stderr: a child then repeats none of the caller's output and loses none of its own."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


def _reap(pid: int, children: dict[int, int]) -> int:
    """Wait for a child to exit, close its pipe and return its wait status."""
    status = os.waitpid(pid, 0)[1]
    os.close(children.pop(pid))
    return status


def _memberships(regions: Sequence[Region]) -> Columns:
    columns = tuple(Ratio(a.contains) for a in regions)
    return lambda delta, proposal: (columns, ())


def _ratio_probe(levels: list[tuple[float, Sweep]], j: int, tol: float) -> ProbeResult:
    """Profile and limit of ratio column j; unintegrable once some level drops a hit, capped or undefined."""
    series = []
    for delta, result in levels:
        r = result.ratios[j]
        series.append(LevelEstimate(delta, r.value, r.stderr, r.hits, r.capped, r.undefined))
    limit, verdict = limit_estimate(series, tol)
    unintegrable = any(l.capped > 0 or l.undefined > 0 for l in series)
    return ProbeResult(tuple(series), limit, verdict, unintegrable)


def density_ratio(
    a: Region,
    feature: Feature,
    omega: Region,
    delta: float,
    spec: SampleSpec,
    weight: Callable | None = None,
) -> Estimate:
    """Weighted volume ratio of A within F_delta ∩ Omega at a single delta."""
    return _level_pass(feature, omega, delta, spec, 0, _memberships([a]), weight).ratios[0]


def density_probe(
    a: Region,
    feature: Feature,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    weight: Callable | None = None,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Density ratio profile over the schedule plus its limit estimate."""
    return _ratio_probe(_profile(feature, omega, schedule, spec, _memberships([a]), weight), 0, tol)


def sharp_integral(
    fn: Callable,
    feature: Feature,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    weight: Callable | None = None,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Weighted means of fn over F_delta ∩ Omega along the schedule.

    For fn continuous at a singleton feature the converged limit is the
    point value.  Samples beyond the magnitude cap witness an essentially
    unbounded integrand, and NaN samples one undefined there; when any level
    drops a hit for either cause the result carries the unintegrable flag
    (integration against a density measure is then meaningless even if the
    symmetric mean profile happens to settle), and each row counts its
    causes apart.
    """
    columns = (Ratio(fn),)
    levels = _profile(feature, omega, schedule, spec, lambda delta, proposal: (columns, ()), weight)
    return _ratio_probe(levels, 0, tol)


@dataclass(frozen=True)
class ActionLevel:
    delta: float
    lo: float
    hi: float
    lo_envelope: float
    hi_envelope: float
    hits: int


@dataclass(frozen=True)
class ActionProfile:
    levels: tuple[ActionLevel, ...]
    interval: Interval
    unbounded_lo: bool
    unbounded_hi: bool


def action_profile(
    fn: Callable,
    feature: Feature,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> ActionProfile:
    """Essential-range profile of fn near the feature, with monotone envelopes.

    The essential supremum over F_delta ∩ Omega is nondecreasing in delta, so
    the upper envelope is the running minimum over shrinking deltas (and the
    lower envelope the running maximum); the envelopes at the smallest delta
    estimate the action interval.
    """
    return _action_profiles(lambda delta: fn, None, feature, omega, schedule, spec, tol)[0]


def _action_profiles(block_at: Callable[[float], Callable], width: int | None, feature: Feature, omega: Region,
                     schedule: DeltaSchedule, spec: SampleSpec, tol: float) -> tuple[ActionProfile, ...]:
    """The action profile of every column of `Range(block_at(delta), width)`, from one pass per level.

    The level's values may depend on delta (a difference step); a block of
    `width` columns is evaluated once per sample for all of them.
    """
    levels = _profile(feature, omega, schedule, spec, lambda delta, proposal: ((), (Range(block_at(delta), width),)))
    columns = len(levels[0][1].ranges)
    return tuple(_envelopes([(delta, r.ranges[j]) for delta, r in levels], tol) for j in range(columns))


def _envelopes(levels: list[tuple[float, EssRange]], tol: float) -> ActionProfile:
    rows = []
    lo_env, hi_env = -np.inf, np.inf
    seen_lo = seen_hi = False
    for delta, r in levels:
        seen_lo |= not np.isfinite(r.lo)
        seen_hi |= not np.isfinite(r.hi)
        if np.isfinite(r.lo):
            lo_env = max(lo_env, r.lo)
        if np.isfinite(r.hi):
            hi_env = min(hi_env, r.hi)
        rows.append(ActionLevel(delta, r.lo, r.hi, lo_env, hi_env, r.hits))
    lo = -np.inf if seen_lo else lo_env
    hi = np.inf if seen_hi else hi_env
    if np.isfinite(lo) and np.isfinite(hi) and lo > hi:
        lo, hi = hi, lo  # envelopes crossed within sampling noise; keep ordered
    return ActionProfile(tuple(rows), Interval(lo, hi, tol), seen_lo, seen_hi)


def action_interval(
    fn: Callable,
    feature: Feature,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> Interval:
    """[lim ess inf, lim ess sup] of fn near the feature (quantile surrogate)."""
    return action_profile(fn, feature, omega, schedule, spec, tol).interval


def cone_density(
    x: Sequence[float],
    v: Sequence[float],
    alpha: float,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Density profile of the open cone with apex x, axis v and aperture alpha.

    A directionally concentrated (extremal, 0-1 valued) density measure puts
    full mass on one such cone; the Lebesgue-reference value reported here is
    evidence about concentration directions, never an extremality verdict.
    """
    cone = Cone(tuple(x), tuple(v), float(alpha))
    return density_probe(cone, PointFeature(tuple(x)), omega, schedule, spec, tol=tol)


@dataclass(frozen=True)
class SigmaProbeReport:
    members: tuple[ProbeResult, ...]
    union: ProbeResult
    member_sum: float
    union_value: float
    combined_tol: float
    violation: bool


def sigma_probe(
    members: Sequence[Region],
    union: Region,
    feature: Feature,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> SigmaProbeReport:
    """Countable-additivity probe for a disjoint family with a known union.

    Members and union are columns of one pass per level, so each profile
    equals its own `density_probe`.  The member limits are summed and
    compared to the limit on the full union (a closed form for the infinite
    family the finitely many members come from).  A gap beyond the combined
    tolerance flags that no countably additive measure can produce these
    densities.
    """
    family = (*members, union)
    levels = _profile(feature, omega, schedule, spec, _memberships(family))
    *member_results, union_result = (_ratio_probe(levels, j, tol) for j in range(len(family)))
    member_sum = float(sum(r.limit.mid for r in member_results))
    union_value = union_result.limit.mid
    combined = tol + 0.5 * union_result.limit.width + sum(
        0.5 * r.limit.width for r in member_results
    )
    violation = abs(member_sum - union_value) > combined
    return SigmaProbeReport(tuple(member_results), union_result, member_sum, union_value, combined, violation)


@dataclass(frozen=True)
class AuraLevel:
    delta: float
    volume: float
    volume_stderr: float
    hits: int


@dataclass(frozen=True)
class AuraReport:
    levels: tuple[AuraLevel, ...]
    decreasing: bool


def aura_report(
    feature: Feature,
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
) -> AuraReport:
    """Volumes of the sets F_delta ∩ Omega along the schedule.

    The volumes must decrease toward zero (within stderr).  The engine gives
    each of these sets full mass 1 by construction, since every ratio's
    numerator and denominator coincide on it; together the levels witness a
    shrinking sequence of sets that carries all of the limit functional's
    mass.
    """
    volume = lambda delta, proposal: ((volume_column(proposal),), ())
    levels = []
    for delta, result in _profile(feature, omega, schedule, spec, volume):
        vol = result.ratios[0]
        levels.append(AuraLevel(delta, vol.value, vol.stderr, vol.hits))
    decreasing = all(
        levels[i + 1].volume <= levels[i].volume + levels[i].volume_stderr + levels[i + 1].volume_stderr
        for i in range(len(levels) - 1)
    )
    return AuraReport(tuple(levels), decreasing)


# the module's own functions, which `_rebound` compares with what is bound now
_OWN = tuple((name, fn) for name, fn in globals().items()
             if type(fn) is type(_rebound) and fn.__module__ == __name__)
