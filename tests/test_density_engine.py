import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from puremeasure import density_engine
from puremeasure.__main__ import _BLAS_THREADS
from puremeasure.density_engine import (
    CONVERGED,
    INSUFFICIENT,
    OSCILLATING,
    MAX_LEVELS,
    DeltaSchedule,
    Interval,
    LevelEstimate,
    TooShort,
    VanishingReference,
    _level_pass,
    _level_cover,
    action_interval,
    action_profile,
    aura_report,
    cone_density,
    density_probe,
    density_ratio,
    limit_estimate,
    sharp_integral,
    sigma_probe,
)
from puremeasure.geometry import (
    Ball,
    Box,
    Complement,
    Cone,
    Cusp,
    Halfspace,
    Intersection,
    Neighborhood,
    PointFeature,
    RegionBoundary,
    RegionFeature,
    SegmentFeature,
    Union,
    interval,
    make_bbox,
)
from puremeasure.quadrature import AxisBox, OrientedBox, Range, Ratio, SampleSpec, Shell, sweep, volume_column
from puremeasure.trace_gradient import ScalarField, density_gradient

OMEGA1 = interval(-1.0, 1.0)
ORIGIN1 = PointFeature((0.0,))
DISK = Ball((0.0, 0.0), 1.0)
ORIGIN2 = PointFeature((0.0, 0.0))
BALL3 = Ball((0.0,) * 3, 1.0)
ORIGIN3 = PointFeature((0.0,) * 3)
OCTANT = Box((0.0,) * 3, (1.0,) * 3)


def sched(feature, omega, count=12):
    return DeltaSchedule.auto(feature, omega, count=count)


# ----------------------------------------------------------- delta schedules

def test_schedule_validation():
    with pytest.raises(ValueError):
        DeltaSchedule(0.0)
    with pytest.raises(ValueError):
        DeltaSchedule(1.0, count=2)
    with pytest.raises(ValueError):
        DeltaSchedule(1.0, count=MAX_LEVELS + 1)
    s = DeltaSchedule(1.0, 4)
    assert s.deltas() == [1.0, 0.5, 0.25, 0.125]


def test_schedule_auto_falls_back_to_domain():
    s = DeltaSchedule.auto(ORIGIN1, OMEGA1)
    assert s.delta0 == pytest.approx(1.0)  # half the domain diagonal
    shell = RegionBoundary(DISK)
    s2 = DeltaSchedule.auto(shell, DISK)
    assert s2.delta0 == pytest.approx(np.sqrt(2))


# ------------------------------------------------------------ density ratio

def test_density_ratio_half_by_symmetry():
    est = density_ratio(interval(0.0, 1.0), ORIGIN1, OMEGA1, 0.1, SampleSpec(n=50_000, seed=1))
    assert est.value == pytest.approx(0.5, abs=1e-12)  # antithetic pairs split evenly


def test_density_ratio_restricted_reference():
    step = lambda p: (p[:, 0] > 0).astype(float)
    est = density_ratio(
        interval(0.0, 1.0), ORIGIN1, OMEGA1, 0.1, SampleSpec(n=50_000, seed=2), weight=step
    )
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_density_ratio_normalization_exact():
    for delta in (0.5, 0.1, 0.01):
        est = density_ratio(OMEGA1, ORIGIN1, OMEGA1, delta, SampleSpec(n=20_000, seed=3))
        assert est.value == 1.0


def test_density_ratio_range():
    rng_regions = [interval(-1.0, -0.3), interval(-0.2, 0.4), interval(0.0, 1.0)]
    for i, a in enumerate(rng_regions):
        est = density_ratio(a, ORIGIN1, OMEGA1, 0.3, SampleSpec(n=30_000, seed=4 + i))
        assert -2 * est.stderr <= est.value <= 1 + 2 * est.stderr


def test_density_ratio_vanishing_reference():
    far = PointFeature((5.0,))
    with pytest.raises(VanishingReference):
        density_ratio(interval(0.0, 1.0), far, OMEGA1, 0.5, SampleSpec(n=1000, seed=5))


# ------------------------------------------------------------ limit estimate

def _levels(rows):
    """A profile of LevelEstimate rows from (delta, value, stderr) triples."""
    return [LevelEstimate(delta, value, stderr, 0) for delta, value, stderr in rows]


def test_limit_estimate_converged():
    deltas = [0.5 * 0.5**k for k in range(12)]
    series = _levels((d, 0.5 + d, 0.0) for d in deltas)
    iv, verdict = limit_estimate(series, 0.02)
    assert verdict == CONVERGED
    assert iv.mid == pytest.approx(0.5, abs=0.01)
    iv, verdict = limit_estimate(_flat_rows(), 0.02)
    assert verdict == CONVERGED
    assert (iv.lo, iv.hi) == (0.495, 0.505)


def _flat_rows(nan_at=None):
    """Twelve rows of 0.5 ± 0.005, one value NaN if asked (a level whose every hit was capped)."""
    return _levels((0.5 * 0.5**k, np.nan if k == nan_at else 0.5, 0.005) for k in range(12))


def test_limit_estimate_oscillating():
    deltas = [0.5 * 0.5**k for k in range(30)]
    series = _levels((d, np.sin(1.0 / d), 0.0) for d in deltas)
    iv, verdict = limit_estimate(series, 0.05)
    assert verdict == OSCILLATING
    assert -1.1 <= iv.lo <= iv.hi <= 1.1
    assert iv.width > 1.0


def test_limit_estimate_insufficient_on_divergence():
    deltas = [0.5 * 0.5**k for k in range(12)]
    series = _levels((d, 1.0 / np.sqrt(d), 0.0) for d in deltas)
    _, verdict = limit_estimate(series, 0.02)
    assert verdict == INSUFFICIENT
    # a NaN level anywhere in the tail window (rows 8-11) makes the limit unknown
    for row in (8, 10, 11):
        iv, verdict = limit_estimate(_flat_rows(nan_at=row), 0.02)
        assert verdict == INSUFFICIENT
        assert np.isnan(iv.lo) and np.isnan(iv.hi)


def test_limit_estimate_too_short():
    with pytest.raises(TooShort):
        limit_estimate(_levels([(0.5, 1.0, 0.0), (0.25, 1.0, 0.0)]), 0.02)


# ------------------------------------------------------------ sharp integral

def test_sharp_integral_continuous_point_value():
    r = sharp_integral(
        lambda p: np.cos(p[:, 0]), ORIGIN1, OMEGA1, sched(ORIGIN1, OMEGA1), SampleSpec(n=50_000, seed=6)
    )
    assert r.verdict == CONVERGED
    assert r.limit.mid == pytest.approx(1.0, abs=0.01)
    assert not r.unintegrable


def test_sharp_integral_over_cusp():
    cusp = Cusp(2.0)
    tip = PointFeature((0.0, 0.0))
    r = sharp_integral(lambda p: p[:, 0], tip, cusp, sched(tip, cusp), SampleSpec(n=100_000, seed=7))
    assert r.verdict == CONVERGED
    assert abs(r.limit.mid) <= 0.02


def test_sharp_integral_unintegrable_with_symmetric_mean():
    fn = lambda p: np.sign(p[:, 0]) / np.sqrt(np.abs(p[:, 0]))
    r = sharp_integral(fn, ORIGIN1, OMEGA1, sched(ORIGIN1, OMEGA1), SampleSpec(n=200_000, seed=8))
    assert r.unintegrable
    # center-symmetric pairs cancel the odd integrand identically
    assert all(abs(l.value) <= 0.05 for l in r.series)
    assert any(l.capped > 0 for l in r.series)


def test_sandwich_between_essential_bounds():
    spec = SampleSpec(n=50_000, seed=9)
    s = sched(ORIGIN1, OMEGA1)
    for fn in (lambda p: np.cos(p[:, 0]), lambda p: p[:, 0] ** 2 + 0.25):
        r = sharp_integral(fn, ORIGIN1, OMEGA1, s, spec)
        iv = action_interval(fn, ORIGIN1, OMEGA1, s, spec)
        assert r.verdict == CONVERGED
        assert iv.contains(r.limit.mid, slack=iv.tol)


def test_sharpness_of_essential_bounds():
    omega = interval(0.0, 1.0)
    origin = PointFeature((0.0,))
    s = sched(origin, omega)
    eps = 0.1
    fixtures = [
        (lambda p: np.sin(1.0 / p[:, 0]), 12),
        (lambda p: p[:, 0] * np.sign(np.sin(1.0 / p[:, 0])), 13),
    ]
    for fn, seed in fixtures:
        spec = SampleSpec(n=200_000, seed=seed)
        upper = action_interval(fn, origin, omega, s, spec, tol=0.05).hi
        weight = lambda p: (fn(p) >= upper - eps).astype(float)
        r = sharp_integral(fn, origin, omega, s, spec, weight=weight)
        assert r.limit.mid > upper - 2 * eps


# ----------------------------------------------------------- action interval

def test_action_interval_oscillation():
    omega = interval(0.0, 1.0)
    origin = PointFeature((0.0,))
    iv = action_interval(
        lambda p: np.sin(1.0 / p[:, 0]), origin, omega, sched(origin, omega),
        SampleSpec(n=200_000, seed=10), tol=0.05,
    )
    assert iv.lo == pytest.approx(-1.0, abs=0.05)
    assert iv.hi == pytest.approx(1.0, abs=0.05)


def test_action_interval_constant_and_continuous():
    spec = SampleSpec(n=30_000, seed=11)
    s = sched(ORIGIN1, OMEGA1)
    const = action_interval(lambda p: np.full(len(p), 3.5), ORIGIN1, OMEGA1, s, spec)
    assert const.lo == pytest.approx(3.5) and const.hi == pytest.approx(3.5)
    linear = action_interval(lambda p: p[:, 0], ORIGIN1, OMEGA1, s, spec)
    assert abs(linear.lo) <= 0.02 and abs(linear.hi) <= 0.02


def test_action_profile_envelopes_monotone():
    spec = SampleSpec(n=30_000, seed=12)
    prof = action_profile(lambda p: p[:, 0] ** 2, ORIGIN1, OMEGA1, sched(ORIGIN1, OMEGA1), spec)
    uppers = [l.hi_envelope for l in prof.levels]
    lowers = [l.lo_envelope for l in prof.levels]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert all(a <= b for a, b in zip(lowers, lowers[1:]))
    assert not prof.unbounded_lo and not prof.unbounded_hi


def test_action_profile_flags_unbounded():
    omega = interval(0.0, 1.0)
    origin = PointFeature((0.0,))
    prof = action_profile(
        lambda p: 1.0 / np.sqrt(p[:, 0]), origin, omega, sched(origin, omega),
        SampleSpec(n=100_000, seed=13),
    )
    assert prof.unbounded_hi
    assert prof.interval.hi == np.inf


# ------------------------------------------------------------- cone density

@pytest.mark.parametrize("n", [1000, 200_000])
def test_a_disk_sector_reads_its_angular_fraction_on_the_ball(n):
    # below delta = 1 the ball around the origin is smaller than its clipped
    # box, and on the ball the cone's membership depends on the angle
    # coordinate alone: a whole lattice puts exactly 1/4 of every replicate in
    # the pi/4 sector, while the interval keeps one hit's rounding
    for seed in range(3):
        r = cone_density((0.0, 0.0), (1.0, 0.0), np.pi / 4, DISK, sched(ORIGIN2, DISK), SampleSpec(n=n, seed=seed))
        levels = [l for l in r.series if l.delta < 1]
        assert len(levels) == 11
        assert all(l.value == 0.25 and l.stderr > 0 for l in levels), (seed, r.series)


def test_cone_density_disk_sector():
    r = cone_density(
        (0.0, 0.0), (1.0, 0.0), np.pi / 4, DISK, sched(ORIGIN2, DISK), SampleSpec(n=100_000, seed=14)
    )
    assert r.verdict == CONVERGED
    assert r.limit.mid == pytest.approx(0.25, abs=0.02)


def test_cone_density_cusp_axis_and_anti_axis():
    cusp = Cusp(2.0)
    tip = PointFeature((0.0, 0.0))
    s = sched(tip, cusp)
    along = cone_density((0.0, 0.0), (1.0, 0.0), np.pi / 4, cusp, s, SampleSpec(n=100_000, seed=15))
    assert along.limit.mid == pytest.approx(1.0, abs=0.02)
    against = cone_density((0.0, 0.0), (-1.0, 0.0), np.pi / 4, cusp, s, SampleSpec(n=100_000, seed=16))
    assert against.limit.mid == pytest.approx(0.0, abs=0.02)


def test_cone_aperture_validated():
    with pytest.raises(ValueError):
        cone_density((0.0, 0.0), (1.0, 0.0), 2.0, DISK, sched(ORIGIN2, DISK), SampleSpec(n=1000, seed=0))
    # the norm of (1e308, 1e308) overflows: such an axis would become (0, 0),
    # and a cone that contains no point would converge to 0 instead of 1/(2 pi)
    with pytest.raises(ValueError, match="finite nonzero"):
        cone_density((0.0, 0.0), (1e308, 1e308), 0.5, DISK, sched(ORIGIN2, DISK), SampleSpec(n=1000, seed=0))


# -------------------------------------------------------------- sigma probe

def test_sigma_probe_slab_family_violation():
    members = [Box((1.0 / (k + 2), -1.0), (1.0 / (k + 1), 1.0)) for k in range(1, 9)]
    union = Box((0.0, -1.0), (0.5, 1.0))
    rep = sigma_probe(members, union, ORIGIN2, DISK, sched(ORIGIN2, DISK), SampleSpec(n=100_000, seed=17))
    assert all(abs(r.limit.mid) <= 0.02 for r in rep.members)
    assert rep.union_value == pytest.approx(0.5, abs=0.03)
    assert rep.violation


def test_sigma_probe_single_member_no_violation():
    a = Box((0.0, -1.0), (0.5, 1.0))
    rep = sigma_probe([a], a, ORIGIN2, DISK, sched(ORIGIN2, DISK), SampleSpec(n=50_000, seed=18))
    assert rep.member_sum == rep.union_value
    assert not rep.violation


def test_sigma_probe_empty_family():
    empty = Box((2.0, 2.0), (3.0, 3.0))  # disjoint from the domain
    rep = sigma_probe([empty, empty], empty, ORIGIN2, DISK, sched(ORIGIN2, DISK), SampleSpec(n=20_000, seed=19))
    assert rep.member_sum == 0.0
    assert rep.union_value == 0.0
    assert not rep.violation


# -------------------------------------------------------------- aura report

def test_aura_interval_volumes():
    rep = aura_report(ORIGIN1, OMEGA1, sched(ORIGIN1, OMEGA1), SampleSpec(n=50_000, seed=20))
    assert rep.decreasing
    for level in rep.levels:
        # F_delta ∩ Omega = (-delta, delta) fills its own sampling box exactly
        assert level.volume == pytest.approx(2 * level.delta, rel=1e-12)


def test_aura_collar_volumes_decrease():
    shell = RegionBoundary(DISK)
    rep = aura_report(shell, DISK, sched(shell, DISK), SampleSpec(n=100_000, seed=21))
    assert rep.decreasing
    annulus = [l.volume for l in rep.levels]
    assert annulus[-1] < 0.05 * annulus[0]


def test_aura_vanishing_reference():
    far = PointFeature((5.0,))
    with pytest.raises(VanishingReference):
        aura_report(far, OMEGA1, DeltaSchedule(0.5, 3), SampleSpec(n=1000, seed=22))


# ------------------------------------------------------ cross-op invariants

def test_additivity_at_the_limit_and_monotonicity():
    a, b = interval(0.0, 1.0), interval(-1.0, -0.5)
    both = Union((a, b))
    spec = SampleSpec(n=50_000, seed=23)
    s = sched(ORIGIN1, OMEGA1)
    pa = density_probe(a, ORIGIN1, OMEGA1, s, spec)
    pb = density_probe(b, ORIGIN1, OMEGA1, s, spec)
    pab = density_probe(both, ORIGIN1, OMEGA1, s, spec)
    assert pab.limit.mid == pytest.approx(pa.limit.mid + pb.limit.mid, abs=pa.limit.tol + pb.limit.tol)
    # shared stream: per-level monotone, and hits nest exactly
    for ra, rab in zip(pa.series, pab.series):
        assert ra.value <= rab.value + 1e-15
        assert ra.hits <= rab.hits


def test_core_containment_zero_at_positive_distance():
    away = interval(0.25, 0.75)
    probe = density_probe(away, ORIGIN1, OMEGA1, sched(ORIGIN1, OMEGA1), SampleSpec(n=50_000, seed=24))
    for level in probe.series:
        if level.delta < 0.25:
            assert level.value == 0.0


def test_interval_invariant():
    with pytest.raises(ValueError):
        Interval(1.0, 0.5, tol=0.1)
    iv = Interval(0.4, 0.6, tol=0.02)
    assert iv.mid == pytest.approx(0.5)
    assert iv.width == pytest.approx(0.2)


# ------------------------------------------------------ one pass per level

def test_sigma_probe_members_equal_standalone_probes():
    members = [Box((1.0 / (k + 2), -1.0), (1.0 / (k + 1), 1.0)) for k in range(1, 4)]
    union = Box((0.0, -1.0), (0.5, 1.0))
    s, spec = sched(ORIGIN2, DISK, count=5), SampleSpec(n=40_000, seed=25)
    rep = sigma_probe(members, union, ORIGIN2, DISK, s, spec)
    assert rep.members == tuple(density_probe(a, ORIGIN2, DISK, s, spec) for a in members)
    assert rep.union == density_probe(union, ORIGIN2, DISK, s, spec)


def test_sigma_probe_weighs_each_half_chunk_once(reference_weight_calls):
    # the reference weight runs once per half-leaf, whether the level samples
    # the clipped box (delta = 1.41) or the ball around the origin
    members = [Box((1.0 / (k + 2), -1.0), (1.0 / (k + 1), 1.0)) for k in range(1, 9)]
    sigma_probe(members, Box((0.0, -1.0), (0.5, 1.0)), ORIGIN2, DISK, sched(ORIGIN2, DISK, count=4),
                SampleSpec(n=2000, seed=26))
    # 4 levels x 2 half-leaves of 31 lattices of 32 pairs, shared by all 9 probes
    assert reference_weight_calls == [992] * 8


def test_the_domain_is_tested_only_where_the_cover_reaches_its_boundary(ball_contains_calls):
    # the disk's test runs on the clipped box at delta = 1.41, and not on the
    # balls of delta = 0.71, 0.35 and 0.18, which lie inside the disk
    schedule = sched(ORIGIN2, DISK, count=4)
    kinds = [type(_level_cover(ORIGIN2, DISK, delta).proposal) for delta in schedule.deltas()]
    assert kinds == [AxisBox, Shell, Shell, Shell]
    density_probe(Box((0.0, -1.0), (0.5, 1.0)), ORIGIN2, DISK, schedule, SampleSpec(n=2000, seed=26))
    assert ball_contains_calls == [992] * 2
    # a ball that reaches the disk's sphere keeps the test
    ball_contains_calls.clear()
    density_ratio(Box((0.0, -1.0), (0.5, 1.0)), PointFeature((0.5, 0.0)), DISK, 0.5, SampleSpec(n=2000, seed=26))
    assert ball_contains_calls == [992] * 2


def test_a_point_level_in_an_interval_runs_no_membership_test(monkeypatch):
    # the clipped box of a 1-D point is F_delta ∩ Omega: neither the distance
    # to the point nor the interval's test runs, with or without a weight
    calls = []

    def counted(name, original):
        def method(self, pts):
            calls.append(name)
            return original(self, pts)

        return method

    for cls, name in ((PointFeature, "distance"), (Box, "contains")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    spec = SampleSpec(n=2000, seed=5)
    for omega in (OMEGA1, interval(0.0, 1.0)):
        schedule = sched(ORIGIN1, omega, count=4)
        r = sharp_integral(lambda p: np.cos(p[:, 0]), ORIGIN1, omega, schedule, spec)
        assert r.verdict == CONVERGED and all(level.hits == 1984 for level in r.series)
        r = sharp_integral(lambda p: p[:, 0], ORIGIN1, omega, schedule, spec, weight=lambda p: p[:, 0] < 0.03)
        assert 0 < r.series[-1].hits < 1984
        assert action_interval(lambda p: p[:, 0], ORIGIN1, omega, schedule, spec).width > 0
    assert calls == []


def test_single_pair_is_insufficient():
    square = Box((-1.0, -1.0), (1.0, 1.0))
    for seed in (2, 6, 8, 9):
        r = cone_density((0.0, 0.0), (1.0, 0.0), np.pi / 4, square, DeltaSchedule(0.5, 3),
                         SampleSpec(n=2, seed=seed))
        assert r.verdict == INSUFFICIENT
        assert all(level.stderr == np.inf for level in r.series)


def test_action_empty_neighbourhood_vanishing_reference():
    far = PointFeature((1.5, 1.5))
    square = Box((0.0, 0.0), (1.0, 1.0))
    args = (far, square, DeltaSchedule(0.6, 3), SampleSpec(n=1000, seed=27))
    with pytest.raises(VanishingReference):
        action_interval(lambda p: p[:, 0], *args)
    with pytest.raises(VanishingReference):
        action_profile(lambda p: p[:, 0], *args)


# ------------------------------------------- levels one after another

def _last_level_first(feature, omega, schedule, spec, columns, weight=None):
    """The per-level loop run from the last level to the first, returned in level order."""
    levels = list(enumerate(schedule.deltas()))[::-1]
    return [(delta, _level_pass(feature, omega, delta, spec, k, columns, weight)) for k, delta in levels][::-1]


def _each_level_twice(feature, omega, schedule, spec, columns, weight=None):
    """The per-level loop running every level twice in a row and keeping the second pass."""
    def twice(k, delta):
        _level_pass(feature, omega, delta, spec, k, columns, weight)
        return _level_pass(feature, omega, delta, spec, k, columns, weight)
    return [(delta, twice(k, delta)) for k, delta in enumerate(schedule.deltas())]


RERUNS = {"last_level_first": _last_level_first, "each_level_twice": _each_level_twice}


SLABS = [Box((1.0 / (k + 2), -1.0), (1.0 / (k + 1), 1.0)) for k in range(1, 4)]

# 35,001 pairs per level: a whole chunk of two leaves and a one-leaf rest
PROFILED = {
    "density_probe": lambda spec: density_probe(
        Box((0.0, -1.0), (1.0, 1.0)), ORIGIN2, DISK, sched(ORIGIN2, DISK, count=5), spec),
    "action_profile": lambda spec: action_profile(
        lambda p: np.sin(1.0 / p[:, 0]), ORIGIN1, OMEGA1, sched(ORIGIN1, OMEGA1, count=5), spec),
    "sigma_probe": lambda spec: sigma_probe(
        SLABS, Box((0.0, -1.0), (0.5, 1.0)), ORIGIN2, DISK, sched(ORIGIN2, DISK, count=5), spec),
    "density_gradient": lambda spec: density_gradient(
        DISK, (0.0, 0.0), sched(ORIGIN2, DISK, count=5), spec,
        field=ScalarField(f=lambda p: np.abs(p[:, 0]) + p[:, 0] * p[:, 1])),
    "density_probe_3d": lambda spec: density_probe(
        OCTANT, ORIGIN3, BALL3, sched(ORIGIN3, BALL3, count=5), spec),
    "sharp_integral_3d": lambda spec: sharp_integral(
        lambda p: np.abs(p[:, 0]) + p[:, 1] * p[:, 2], ORIGIN3, BALL3, sched(ORIGIN3, BALL3, count=5), spec,
        weight=lambda p: 1.0 + p[:, 2]),
}


@pytest.mark.parametrize("rerun", RERUNS, ids=list(RERUNS))
@pytest.mark.parametrize("probe", PROFILED, ids=list(PROFILED))
def test_each_level_reads_only_its_own_stream(probe, rerun, monkeypatch):
    # a level's bytes do not depend on which levels ran before it, nor on
    # whether it ran already: any order of levels, or any thread, gives them
    spec = SampleSpec(n=70_001, seed=41)
    profiled = PROFILED[probe](spec)
    monkeypatch.setattr(density_engine, "_profile", RERUNS[rerun])
    assert repr(profiled) == repr(PROFILED[probe](spec))  # repr tells -0.0 from 0.0 and matches NaN


def _vanishing_at_level_2(dim):
    """Levels 0 and 1 reach the small ball; level 2 (delta 0.5) meets its box
    but not the ball, and levels 3-5 do not even meet its box, with another
    message."""
    return (Box((0.0,) * dim, (1.0,) * dim), PointFeature((0.0,) * dim), Ball((0.5,) * dim, 0.1),
            DeltaSchedule(2.0, 6), SampleSpec(n=2000, seed=3))


@pytest.mark.parametrize("dim", [2, 3])
def test_profile_raises_the_earliest_vanishing_level(dim):
    with pytest.raises(VanishingReference, match=r"^no reference mass at delta=0\.5$"):
        density_probe(*_vanishing_at_level_2(dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_profile_runs_no_level_past_the_first_failure(dim, monkeypatch):
    streams = []

    def recorded(feature, omega, delta, spec, stream, *rest):
        streams.append(stream)
        return _level_pass(feature, omega, delta, spec, stream, *rest)

    monkeypatch.setattr(density_engine, "_level_pass", recorded)
    with pytest.raises(VanishingReference):
        density_probe(*_vanishing_at_level_2(dim))
    assert streams == [0, 1, 2]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_levels_run_on_the_calling_thread(dim):
    callers = set()

    def weight(p):
        callers.add(threading.get_ident())
        return np.ones(len(p))

    origin, ball = PointFeature((0.0,) * dim), Ball((0.0,) * dim, 1.0)
    density_probe(Box((0.0,) * dim, (1.0,) * dim), origin, ball, sched(origin, ball, count=4),
                  SampleSpec(n=2000, seed=5), weight=weight)
    assert callers == {threading.get_ident()}


# ------------------------------------------------------------- forked shares

# Run in a fresh interpreter: under pytest numpy's BLAS thread may keep every
# profile serial, and forking a threaded process warns on Python 3.12.
FORK_SCRIPT = textwrap.dedent("""
    import os, tempfile, time
    import numpy as np
    import test_density_engine as t
    from puremeasure import density_engine
    from puremeasure.density_engine import DeltaSchedule, VanishingReference, density_probe, sharp_integral
    from puremeasure.quadrature import SampleSpec

    # two shares: levels 0, 2, 4, ... in the caller and 1, 3, 5, ... in one child
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    mask, caller, forks, fork = os.sched_getaffinity(0), os.getpid(), [], os.fork
    os.fork = lambda: forks.append(1) or fork()
    spec = SampleSpec(n=70_001, seed=41)
    weighted = lambda weight: sharp_integral(lambda p: np.abs(p[:, 0]), t.ORIGIN3, t.BALL3,
                                             t.sched(t.ORIGIN3, t.BALL3, count=5), spec, weight=weight)
    serial = {name: repr(probe(spec)) for name, probe in t.PROFILED.items()}
    plain = repr(weighted(lambda p: 1.0 + p[:, 2]))
    assert not forks

    # the machine's runnable tasks, as the kernel counts them: this process alone, or one more
    fd, loadavg = tempfile.mkstemp()
    os.close(fd)
    def runnable(count):
        with open(loadavg, "w") as f:
            f.write(f"0.00 0.00 0.00 {count}/100 1")

    density_engine.FORK_PAIRS, density_engine._LOADAVG = 1, loadavg
    runnable(2)
    assert repr(weighted(lambda p: 1.0 + p[:, 2])) == plain and not forks  # the other CPU is busy
    runnable(1)
    for name, probe in t.PROFILED.items():
        assert repr(probe(spec)) == serial[name], name
    assert len(forks) == len(t.PROFILED)

    def here():
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])

    for cpu in sorted(mask):  # the shares start at the CPU the caller runs on
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)
        for _ in range(10):
            before, cpus, after = here(), density_engine._cpus(6), here()
            if before == after:
                break
        assert cpus[0] == after and sorted(cpus) == sorted(mask), (cpu, after, cpus)

    levels, bbox = [], density_engine._level_bbox
    density_engine._level_bbox = lambda *args: levels.append(1) or bbox(*args)
    assert repr(weighted(lambda p: 1.0 + p[:, 2])) == plain
    density_engine._level_bbox = bbox
    assert len(forks) == len(t.PROFILED) and len(levels) == 5  # a rebound function keeps profiles serial

    said = []
    def says_so_in_a_child(p):
        if os.getpid() != caller and not said:
            said.append(print("a child's line"))
        return 1.0 + p[:, 2]

    print("the caller's line")  # still in the buffer: stdout is a pipe
    assert repr(weighted(says_so_in_a_child)) == plain

    def dies_in_a_child(p):
        if os.getpid() != caller:
            os._exit(3)
        return 1.0 + p[:, 2]

    assert repr(weighted(dies_in_a_child)) == plain

    for dim in (2, 3):
        for delta0, first in ((2.0, 2), (4.0, 3)):  # the caller's share, then the child's
            region, feature, omega, _, small = t._vanishing_at_level_2(dim)
            schedule = DeltaSchedule(delta0, 6)
            assert schedule.deltas()[first] == 0.5
            try:
                density_probe(region, feature, omega, schedule, small)
            except VanishingReference as e:
                assert str(e) == "no reference mass at delta=0.5", (dim, delta0, str(e))
            else:
                raise AssertionError("no level failed")

    def interrupted(p):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    try:
        weighted(interrupted)
    except KeyboardInterrupt:
        assert time.perf_counter() - start < 30, "a child outlived the caller's exception"
    else:
        raise AssertionError("the caller's share was not interrupted")

    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a child was left")
    assert os.sched_getaffinity(0) == mask
    os.unlink(loadavg)
    print("forks", len(forks))
""")


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
                    or len(os.sched_getaffinity(0)) < 2, reason="the fork path needs os.fork and 2 usable CPUs")
def test_forked_shares_give_the_serial_bytes():
    # the script asserts, with FORK_PAIRS lowered: the fork path ran; the
    # PROFILED probes give their serial repr; a busy machine and a rebound
    # engine function keep a profile serial; the shares start at the
    # caller's CPU; the
    # earliest failing level raises its own message, in the caller's share
    # and in a child's; a child that dies costs only time; a caller that
    # raises kills its children; no child is left; and the caller's affinity
    # mask is restored.  Here: the caller's pending output is written once and
    # a child's output is written
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(density_engine.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, tests)), "PYTHONWARNINGS": "error",
           **dict.fromkeys(_BLAS_THREADS, "1")}
    proc = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("the caller's line") == 1 and lines.count("a child's line") == 1, lines
    # one fork per profile: the PROFILED probes, the printing and the dying
    # child, four failing profiles, the interrupted one
    assert lines[-1].split() == ["forks", str(len(PROFILED) + 2 + 4 + 1)]


# ------------------------------------------------------- level proposals

CUBE8 = Box((-1.0,) * 8, (1.0,) * 8)
ORIGIN8 = PointFeature((0.0,) * 8)
QUADRANT8 = Intersection((Halfspace((-1.0,) + (0.0,) * 7, 0.0), Halfspace((0.0, -1.0) + (0.0,) * 6, 0.0)))
CUBE3 = Box((-1.0,) * 3, (1.0,) * 3)
DIAGONAL = SegmentFeature((-0.2,) * 3, (0.6,) * 3)
SQUARE = Box((0.0, 0.0), (1.0, 1.0))
EDGE = PointFeature((0.0, 0.5))
# the faces of an axis box Omega that a point lies exactly on, as (axis, inward sign)
FACES = {
    (EDGE, SQUARE): ((0, 1),),
    (PointFeature((1.0, 0.0)), SQUARE): ((0, -1), (1, 1)),
    (PointFeature((0.5, 0.5, 1.0)), OCTANT): ((2, -1),),
}


@pytest.mark.parametrize("feature, omega, delta, kind", [
    (ORIGIN1, OMEGA1, 0.1, AxisBox),  # a 1-D point has no ball of its own: it would be the box
    # just off the square's edge: no face to fold on, and the clipped box 2 d^2 < pi d^2
    (PointFeature((1e-13, 0.5)), SQUARE, 0.1, AxisBox),
    (ORIGIN2, DISK, 0.1, Shell),  # pi/4 of the box
    (PointFeature((0.0,) * 3), Ball((0.0,) * 3, 1.0), 0.1, Shell),  # pi/6 of the box
    (ORIGIN8, CUBE8, 0.1, Shell),  # pi^4/6144 of the box
    (RegionBoundary(DISK), DISK, 0.05, Shell),  # the inner half-shell
    (RegionBoundary(DISK), DISK, 0.5, Shell),  # 3 pi / 16 = 0.59 of the clipped box [-1, 1]^2
    (DIAGONAL, CUBE3, 0.1, OrientedBox),
    (SegmentFeature((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0)), CUBE3, 0.1, AxisBox),  # already axis-aligned
    (SegmentFeature((0.1,) * 3, (0.1,) * 3), CUBE3, 0.1, AxisBox),  # degenerate
    (RegionBoundary(CUBE3), CUBE3, 0.01, AxisBox),
    (RegionFeature(Ball((0.0,) * 3, 0.1)), CUBE3, 0.01, AxisBox),
    (RegionBoundary(DISK), Box((-2.0, -2.0), (2.0, 2.0)), 0.05, Shell),  # the whole shell
    (EDGE, SQUARE, 0.1, Shell),  # the half-disk, pi d^2 / 2 < 2 d^2
    (PointFeature((1.0, 0.0)), SQUARE, 0.1, Shell),  # a corner's quarter-disk, pi d^2 / 4 < d^2
    (PointFeature((0.5, 0.5, 1.0)), OCTANT, 0.1, Shell),  # a face's half-ball, 2 pi d^3 / 3 < 4 d^3
])
def test_level_proposal_selection(feature, omega, delta, kind):
    proposal = _level_cover(feature, omega, delta).proposal
    assert type(proposal) is kind
    if kind is Shell and isinstance(feature, PointFeature):
        assert proposal.r0 == 0.0 and proposal.r1 == delta
        assert proposal.folds == FACES.get((feature, omega), ())
        ball = Shell(feature.point, 0.0, delta).volume
        assert proposal.volume == ball / 2 ** len(proposal.folds)
    if kind is Shell and isinstance(feature, RegionBoundary):
        # Omega = the disk discards the outer half of the collar
        assert (proposal.r0, proposal.r1) == (1.0 - delta, 1.0 if omega == DISK else 1.0 + delta)


def test_aura_volumes_are_unbiased_on_feature_proposals():
    # the collar of the unit sphere above the plane z = 0.3, its inner
    # collar (the inner half-shell covers it exactly) and the 8-D ball
    # inside the cube
    sphere = Ball((0.0,) * 3, 1.0)
    schedule = DeltaSchedule(0.1, 3)
    cap = lambda r, h: np.pi * (r - h) ** 2 * (2 * r + h) / 3  # the cap of B(0, r) above z = h
    upper = Box((-2.0, -2.0, 0.3), (2.0, 2.0, 2.0))
    rep = aura_report(RegionBoundary(sphere), upper, DeltaSchedule(0.05, 3), SampleSpec(n=100_000, seed=3))
    for level in rep.levels:
        assert type(_level_cover(RegionBoundary(sphere), upper, level.delta).proposal) is Shell
        exact = cap(1 + level.delta, 0.3) - cap(1 - level.delta, 0.3)
        assert abs(level.volume - exact) <= 2 * level.volume_stderr
    rep = aura_report(RegionBoundary(sphere), sphere, schedule, SampleSpec(n=100_000, seed=3))
    for level in rep.levels:
        assert level.volume == pytest.approx(4 * np.pi / 3 * (1 - (1 - level.delta) ** 3), rel=1e-12)
        assert level.hits == 98_304  # 24 whole lattices of 2048 pairs
    rep = aura_report(ORIGIN8, CUBE8, schedule, SampleSpec(n=1000, seed=3))
    for level in rep.levels:
        assert level.volume == pytest.approx(np.pi ** 4 / 24 * level.delta ** 8, rel=1e-12)
        assert level.hits == 992  # the ball lies inside the cube; 31 lattices of 16 pairs


@pytest.mark.parametrize("feature, omega, volume", [
    (EDGE, SQUARE, lambda d: np.pi * d ** 2 / 2),  # the half-disk on the square's edge
    (PointFeature((0.0, 0.0)), SQUARE, lambda d: np.pi * d ** 2 / 4),  # the quarter-disk at its corner
    (PointFeature((0.5, 0.5, 0.0)), OCTANT, lambda d: 2 * np.pi * d ** 3 / 3),  # the half-ball on a cube's face
], ids=["edge", "corner", "face_3d"])
def test_aura_volumes_are_exact_on_folded_balls(feature, omega, volume):
    # the folded ball is F_delta ∩ Omega itself: every sample is a hit
    rep = aura_report(feature, omega, DeltaSchedule(0.4, 4), SampleSpec(n=1000, seed=3))
    for level in rep.levels:
        assert type(_level_cover(feature, omega, level.delta).proposal) is Shell
        assert level.volume == pytest.approx(volume(level.delta), rel=1e-12)
        assert level.hits == 992  # 31 lattices of 16 pairs


# the shells the engine builds, all inside their feature's F_delta: the 2-D,
# 3-D and 8-D balls, both circle collars, a folded half-disk, quarter-disk,
# half-ball and 3-D corner
SHELL_LEVELS = {
    "disk": (ORIGIN2, DISK),
    "ball_3d": (ORIGIN3, BALL3),
    "ball_8d": (ORIGIN8, CUBE8),
    "inner_collar": (RegionBoundary(DISK), DISK),
    "whole_collar": (RegionBoundary(DISK), Box((-2.0, -2.0), (2.0, 2.0))),
    "half_disk": (EDGE, SQUARE),
    "quarter_disk": (PointFeature((1.0, 1.0)), SQUARE),
    "half_ball": (PointFeature((0.5, 0.5, 1.0)), OCTANT),
    "corner_3d": (PointFeature((0.0, 1.0, 0.0)), OCTANT),
}


@pytest.mark.parametrize("level", SHELL_LEVELS, ids=list(SHELL_LEVELS))
def test_every_shell_point_lies_in_the_neighbourhood(level):
    # a shell level tests its points against Omega alone, so every point and
    # reflection must lie in F_delta
    feature, omega = SHELL_LEVELS[level]
    for delta in (0.4, 0.1, 1e-3):
        proposal = _level_cover(feature, omega, delta).proposal
        assert type(proposal) is Shell
        neighbourhood = Neighborhood(feature, delta)
        for seed in range(3):
            for a, b in proposal.pairs(seed, 1, 3000):
                assert neighbourhood.contains(a).all() and neighbourhood.contains(b).all(), (delta, seed)


# the unfolded shells whose closed outer ball lies inside Omega at every
# delta of the shell-level tests
INSIDE = {"disk", "ball_3d", "ball_8d", "whole_collar"}


@pytest.mark.parametrize("level", SHELL_LEVELS, ids=list(SHELL_LEVELS))
def test_a_shell_inside_the_domain_has_every_point_in_it(level):
    # a shell level inside Omega skips Omega's test too, so every point and
    # reflection must lie in Omega; a folded ball or a collar that reaches
    # Omega's sphere is not inside
    feature, omega = SHELL_LEVELS[level]
    for delta in (0.4, 0.1, 1e-3):
        proposal = _level_cover(feature, omega, delta).proposal
        assert density_engine._inside(proposal, omega) == (level in INSIDE)
        for a, b in proposal.pairs(0, 1, 3000):
            assert omega.contains(a).all() and omega.contains(b).all() or level not in INSIDE


def test_a_ball_inside_the_domain_only_by_rounding_is_not_inside():
    # the margin scales with the sizes involved: a ball 1e-13 inside the unit
    # disk, or 1e-7 inside a disk a million units from the origin, is tested
    for center, radius, r1 in (((0.0, 0.0), 1.0, 1.0 - 1e-13), ((1e6, 0.0), 1.0, 1.0 - 1e-7),
                               ((1e6, 0.0), 1.0, 1.0 - 1e-9)):
        shell = Shell(center, 0.0, r1)
        assert not density_engine._inside(shell, Ball(center, radius))
        assert not density_engine._inside(shell, Box(tuple(c - radius for c in center),
                                                     tuple(c + radius for c in center)))
    assert density_engine._inside(Shell((1e6, 0.0), 0.0, 0.999), Ball((1e6, 0.0), 1.0))
    assert not density_engine._inside(Shell((0.0, 0.0), 0.0, 0.5), Halfspace((1.0, 0.0), 1.0))
    # only an exact Omega with a finite bounding box is asked, though each
    # of these holds the ball: a pseudo-distance (the cusp, an intersection)
    # or an unbounded Omega (a cone, the outside of a disk) never skips its
    # test
    for center, omega in (((0.5, 0.0), Cusp(1.0)),
                          ((0.25, 0.0), Intersection((DISK, Ball((0.5, 0.0), 1.0)))),
                          ((1.0, 0.0), Cone((0.0, 0.0), (1.0, 0.0), 0.5)),
                          ((5.0, 0.0), Complement(DISK))):
        shell = Shell(center, 0.0, 0.01)
        assert omega.contains(np.array([[center[0] + x, center[1] + y] for x, y in
                                        ((0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01))])).all()
        assert not density_engine._inside(shell, omega), omega


# the three kinds of level that a weight meets: a 1-D point in an interval
# and a ball inside the disk run no membership test, and a box level runs both
SCALAR_WEIGHT_LEVELS = {
    "point_1d": (ORIGIN1, OMEGA1, DeltaSchedule(0.5, 4), AxisBox),
    "ball_in_disk": (ORIGIN2, DISK, DeltaSchedule(0.5, 4), Shell),
    "box": (PointFeature((0.5, 0.5)), Box((0.0, 0.0), (1.0, 1.0)), DeltaSchedule(2.0, 3), AxisBox),
}


@pytest.mark.parametrize("level", SCALAR_WEIGHT_LEVELS, ids=list(SCALAR_WEIGHT_LEVELS))
def test_a_scalar_weight_weighs_every_point(level):
    # a weight that returns one number for a block weighs every point by it,
    # bit for bit as the same number repeated for each point does
    feature, omega, schedule, kind = SCALAR_WEIGHT_LEVELS[level]
    assert {type(_level_cover(feature, omega, delta).proposal) for delta in schedule.deltas()[:2]} == {kind}
    spec = SampleSpec(n=20_000, seed=1)
    fn = lambda p: p[:, 0] ** 2
    scalar = sharp_integral(fn, feature, omega, schedule, spec, weight=lambda p: 2.0)
    full = sharp_integral(fn, feature, omega, schedule, spec, weight=lambda p: np.full(len(p), 2.0))
    assert repr(scalar) == repr(full)
    assert all(row.hits > 2 and row.value > 0 for row in scalar.series)


def _tested_weight(feature, omega, delta, weight=None):
    """A level's reference weight with the neighbourhood's and Omega's tests run on every point."""
    neighbourhood = Neighborhood(feature, delta)

    def w(pts):
        mask = neighbourhood.contains(pts) & omega.contains(pts)
        return mask if weight is None else np.where(mask, weight(pts), 0.0)

    return w


# a level of every cover kind, at the deltas 0.4, 0.1 and 1e-3 unless given:
# 1-D points in an interval, balls and a collar inside Omega skip both tests;
# folded balls and the inner collar skip the neighbourhood's; the oriented
# box, a plain box and the clipped box that beats the half-disk at the
# square's edge (0.70 against 0.77) run both
SKIPPING_LEVELS = {
    "origin_1d": (ORIGIN1, OMEGA1),
    "end_1d": (PointFeature((1.0,)), OMEGA1),
    "inner_1d": (PointFeature((0.3,)), interval(0.0, 1.0)),
    "disk": (ORIGIN2, DISK),
    "ball_3d": (ORIGIN3, BALL3),
    "ball_8d": (ORIGIN8, CUBE8),
    "whole_collar": (RegionBoundary(DISK), Box((-2.0, -2.0), (2.0, 2.0))),
    "half_disk": (EDGE, SQUARE),
    "quarter_disk": (PointFeature((1.0, 1.0)), SQUARE),
    "half_ball": (PointFeature((0.5, 0.5, 1.0)), OCTANT),
    "inner_collar": (RegionBoundary(DISK), DISK),
    "oriented_box": (DIAGONAL, CUBE3),
    "box": (RegionFeature(Ball((0.0,) * 3, 0.1)), CUBE3),
    "edge_box": (EDGE, SQUARE, (0.7,)),
}


@pytest.mark.parametrize("level", SKIPPING_LEVELS, ids=list(SKIPPING_LEVELS))
def test_skipped_membership_tests_keep_every_bit(level):
    # a level that skips the tests its cover decides gives the same bits as
    # one that runs them on every point, with and without a weight
    feature, omega, *deltas = SKIPPING_LEVELS[level]
    spec = SampleSpec(n=5000, seed=11)
    weight = lambda p: 1.5 + np.cos(p[:, 0])
    ratios = (Ratio(lambda p: np.sin(3.0 * p[:, 0]) + p[:, -1]), Ratio(lambda p: p[:, 0] > 0.05))
    ranges = (Range(lambda p: p[:, 0] * p[:, -1]),)
    for delta in (deltas[0] if deltas else (0.4, 0.1, 1e-3)):
        proposal = _level_cover(feature, omega, delta).proposal
        columns = lambda delta, proposal: (ratios, ranges)
        for w in (None, weight):
            result = _level_pass(feature, omega, delta, spec, 3, columns, w)
            tested = sweep(_tested_weight(feature, omega, delta, w), proposal, spec, 3, ratios, ranges)
            assert repr(result) == repr(tested), (delta, w)


def test_feature_proposals_converge_on_thin_features():
    spec = SampleSpec(n=20_000, seed=4)
    r = density_probe(QUADRANT8, ORIGIN8, CUBE8, DeltaSchedule(0.4, 4), spec)
    assert r.verdict == CONVERGED and r.limit.mid == pytest.approx(0.25, abs=0.02)
    quadrant3 = Intersection((Halfspace((0.0, -1.0, 0.0), 0.0), Halfspace((0.0, 0.0, -1.0), 0.0)))
    r = density_probe(quadrant3, DIAGONAL, CUBE3, DeltaSchedule(0.1, 4), spec)
    assert r.verdict == CONVERGED and r.limit.mid == pytest.approx(0.75, abs=0.02)


# ⋃ₖ (2^(-2k-1), 2^(-2k)) near 0: on a ratio-1/2 schedule from delta = 1 its
# density ratios alternate exactly between 1/3 and 1/6, so no limit exists
DYADIC = Union(tuple(interval(2.0 ** (-2 * k - 1), 2.0 ** (-2 * k)) for k in range(13)))
# of 40 seeds at n = 20,000, those whose quadrant profile ends converged with
# 1/4 inside its interval under the plain Monte Carlo points the lattice
# replicates replaced; the lattice gets all 40
MONTE_CARLO_QUADRANT_HITS = 36


@pytest.mark.parametrize("n", [2000, 20_000])
def test_dyadic_union_stays_oscillating(n):
    for seed in range(40):
        r = density_probe(DYADIC, ORIGIN1, OMEGA1, DeltaSchedule(1.0), SampleSpec(n=n, seed=seed))
        assert r.verdict == OSCILLATING, seed


def test_quadrant_verdicts_are_no_worse_than_monte_carlo():
    quadrant = Intersection((Halfspace((-1.0, 0.0), 0.0), Halfspace((0.0, -1.0), 0.0)))
    right = 0
    for seed in range(40):
        r = density_probe(quadrant, ORIGIN2, DISK, sched(ORIGIN2, DISK), SampleSpec(n=20_000, seed=seed))
        right += r.verdict == CONVERGED and r.limit.contains(0.25)
    assert right >= MONTE_CARLO_QUADRANT_HITS
    # at n = 2000 the ball reads the quadrant's 1/4 exactly below delta = 1,
    # where the box's noise had every seed read oscillating
    for seed in range(60):
        r = density_probe(quadrant, ORIGIN2, DISK, sched(ORIGIN2, DISK), SampleSpec(n=2000, seed=seed))
        assert r.verdict == CONVERGED and r.limit.contains(0.25), seed


# the pi/4 cone along x1 from the middle of the square's left edge: half of
# every half-disk around it, which the ball folded onto the square samples
EDGE_CONE = Cone((0.0, 0.5), (1.0, 0.0), np.pi / 4)
# the pi/4 cone inward from the unit disk's rim: 1/2 in the limit, sampled
# from the clipped box (2 d^2 < pi d^2), since a ball Omega folds nothing
RIM = PointFeature((1.0, 0.0))
RIM_CONE = Cone((1.0, 0.0), (-1.0, 0.0), np.pi / 4)


def _rim_sector(delta):
    """The rim sector's exact ratio: the quarter-disk pi d^2 / 4 over the lens B((1, 0), d) ∩ the disk."""
    lens = delta ** 2 * np.arccos(delta / 2) + np.arccos(1 - delta ** 2 / 2) - 0.5 * delta * np.sqrt(4 - delta ** 2)
    return np.pi * delta ** 2 / 4 / lens


@pytest.mark.parametrize("n", [
    pytest.param(2000, marks=pytest.mark.xfail(
        strict=True, reason="the box-sampled rim sector reads oscillating on 46 of 60 seeds at n = 2000")),
    20_000,
])
def test_a_box_sampled_sector_converges_across_seeds(n):
    # The rim sector's profile holds 1/2 at every seed, yet at n = 2000 the
    # replicates' noise on the box makes its tail windows differ by more than
    # tol while agreeing with each other, which reads as oscillating (ROADMAP
    # item 3).  A fix makes n = 2000 pass, which strict mode reports.
    for seed in range(60):
        r = density_probe(RIM_CONE, RIM, DISK, sched(RIM, DISK), SampleSpec(n=n, seed=seed))
        assert r.limit.contains(0.5), seed
        assert r.verdict == CONVERGED, seed


def test_stderr_intervals_cover_known_values_across_seeds():
    # `stderr` is already the ~95% half-width (Student's t at the replicates'
    # degrees of freedom, quadrature.STUDENT_T), so value ± stderr should hold
    # the true value about 95% of the time, whether the pass holds 31 lattices
    # of 16 pairs (n = 1000) or 16 of 2^k pairs (n = 1024, 2048, 4096).
    sector = Intersection((Halfspace((-1.0, 0.0), 0.0), Halfspace((0.0, -1.0), 0.0)))
    segment, unit = Box((0.0,), (0.3,)), AxisBox(make_bbox([0.0], [1.0]))
    boundary = RegionBoundary(DISK)
    x_sq = lambda p: p[:, 0] ** 2
    x_plus_y = lambda p: p[:, 0] + p[:, 1]
    collar_sched, edge_sched = DeltaSchedule(0.5, 3), DeltaSchedule(0.4, 3)
    seeds = range(200)
    trials = {"rim_sector": len(seeds), "segment": len(seeds), "edge_mean": len(seeds) * edge_sched.count}
    rim_sector = _rim_sector(0.4)
    for n in (1000, 1024, 2048, 4096):
        hits = dict.fromkeys(trials, 0)
        for seed in seeds:
            spec = SampleSpec(n=n, seed=seed)
            # the pi/4 cone from the disk's rim, sampled from the clipped box
            e = density_ratio(RIM_CONE, RIM, DISK, 0.4, spec)
            hits["rim_sector"] += abs(e.value - rim_sector) <= e.stderr
            # the pi/4 cone from the square's edge fills 1/2 of every half-disk
            # there: on the folded ball its membership depends on the angle
            # alone, so a whole lattice reads 1/2 exactly, yet the interval
            # keeps one hit's rounding
            e = density_ratio(EDGE_CONE, EDGE, SQUARE, 0.4, spec)
            assert e.value == 0.5 and e.stderr > 0, (n, seed)
            # the interval (0, 0.3) sampled on (0, 1)
            e = sweep(segment.contains, unit, spec, ratios=[volume_column(unit)]).ratios[0]
            hits["segment"] += abs(e.value - 0.3) <= e.stderr
            # the mean of x1 + x2 over the half-disk of radius delta there is
            # 0.5 + 4 delta / (3 pi); each level is its own stream, on the folded ball
            mean = sharp_integral(x_plus_y, EDGE, SQUARE, edge_sched, spec)
            hits["edge_mean"] += sum(abs(l.value - (0.5 + 4 * l.delta / (3 * np.pi))) <= l.stderr
                                     for l in mean.series)
            # the quarter-disk sector fills 1/4 of every disk around the origin; the
            # ball reads it exactly, yet the interval keeps one hit's rounding
            e = density_ratio(sector, ORIGIN2, DISK, 0.5, spec)
            assert e.value == 0.25 and e.stderr > 0, (n, seed)
            # the inner collar 1 - delta < |x| < 1 of the disk: the folded shell
            # integrates x1^2 exactly, (1 + (1 - delta)^2) / 4, at every level
            collar = sharp_integral(x_sq, boundary, DISK, collar_sched, spec)
            assert all(abs(l.value - (1 + (1 - l.delta) ** 2) / 4) <= 4e-16 for l in collar.series), (n, seed)
        for name, count in hits.items():
            assert 0.9 <= count / trials[name] <= 0.99, (n, name, count / trials[name])
        for seed in range(20):
            # the same quadrant in 8-D, sampled from the ball around the origin: a
            # whole lattice splits evenly among the quadrants of (x1, x2), so every
            # replicate reads 1/4 exactly, yet the interval keeps one hit's rounding
            e = density_ratio(QUADRANT8, ORIGIN8, CUBE8, 0.5, SampleSpec(n=n, seed=seed))
            assert e.value == 0.25 and e.stderr > 0, (n, seed)


def test_ratios_on_which_every_hit_agrees_keep_stderr_zero():
    # the cusp's tip lies inside the cone along it and outside the cone against
    # it, at every delta: both ratios are exact, as plain Monte Carlo reports
    cusp = Cusp(2.0)
    for x_axis, value in ((1.0, 1.0), (-1.0, 0.0)):
        r = cone_density((0.0, 0.0), (x_axis, 0.0), np.pi / 4, cusp, DeltaSchedule(0.1, 3), SampleSpec(n=4096, seed=5))
        assert all((l.value, l.stderr) == (value, 0.0) and l.hits > 0 for l in r.series), r.series


def test_a_weight_of_one_value_is_an_indicator():
    # a float weight that is 1 on its support quantizes a membership column as
    # the bool mask does: the same value and stderr, and the stderr is not 0
    # although every replicate reads 1/4
    for seed in range(3):
        spec = SampleSpec(n=1024, seed=seed)
        plain = density_ratio(QUADRANT8, ORIGIN8, CUBE8, 0.5, spec)
        weighted = density_ratio(QUADRANT8, ORIGIN8, CUBE8, 0.5, spec, weight=lambda p: np.ones(len(p)))
        assert (weighted.value, weighted.stderr) == (plain.value, plain.stderr), seed
        assert weighted.value == 0.25 and weighted.stderr > 0, seed


@pytest.mark.parametrize("n", [1000, 200_000])
def test_folded_shell_integrates_the_circle_collar_exactly(n):
    # on the shell 1 - delta < |x| < 1, x1^2 = r^2 cos^2(theta) with r^2 linear
    # in the folded radius coordinate: every whole lattice integrates it
    # exactly, so each level's mean is (1 + (1 - delta)^2) / 4 to rounding
    boundary = RegionBoundary(DISK)
    schedule = DeltaSchedule(0.32, 6)
    assert all(isinstance(_level_cover(boundary, DISK, d).proposal, Shell) for d in schedule.deltas())
    for seed in range(3):
        r = sharp_integral(lambda p: p[:, 0] ** 2, boundary, DISK, schedule, SampleSpec(n=n, seed=seed))
        for level in r.series:
            assert abs(level.value - (1 + (1 - level.delta) ** 2) / 4) <= 4e-16, (seed, level)


def test_exact_levels_keep_a_stderr_above_zero():
    # with the fold, the collar's replicate sums can agree to the last bit
    # (at seed 2 the smallest delta did), which left stderr exactly 0; the
    # float grid of the sums keeps it above 0 without moving the value
    boundary = RegionBoundary(DISK)
    r = sharp_integral(lambda p: p[:, 0] ** 2, boundary, DISK, sched(boundary, DISK), SampleSpec(n=200_000, seed=2))
    assert all(level.stderr > 0 for level in r.series), r.series
    assert all(level.stderr < 1e-15 for level in r.series[2:]), r.series


def test_stderr_intervals_cover_the_segment_at_a_power_of_two():
    # The segment fixture above over 1000 seeds at n = 1024 and 4096, where
    # each replicate is a shifted grid of 2^k points and its reflection, whose
    # hit count takes one of two adjacent values, so the replicates often all
    # agree: the residuals alone covered 0.864 and 0.855.  One hit's rounding
    # variance in the interval keeps it at ~95% or above.
    segment, unit = Box((0.0,), (0.3,)), AxisBox(make_bbox([0.0], [1.0]))
    seeds = range(1000)
    for n in (1024, 4096):
        hits = 0
        for seed in seeds:
            e = sweep(segment.contains, unit, SampleSpec(n=n, seed=seed), ratios=[volume_column(unit)]).ratios[0]
            hits += abs(e.value - 0.3) <= e.stderr
        assert 0.9 <= hits / len(seeds) <= 0.99, (n, hits / len(seeds))


@pytest.mark.xfail(strict=True, reason="8-D wedge of 1 radian at n = 1024: 0.77 over these seeds")
def test_stderr_intervals_cover_a_thin_wedge_at_a_power_of_two():
    # The 1-radian wedge 0 < angle(x1, x2) < 1 in 8-D, whose density at the
    # origin is 1 / (2 pi).  At n = 1024 ~10 of a replicate's 64 samples fall
    # in the wedge, and the lattice's 2-D projection is coarse: the interval holds
    # 0.93-0.965 at n = 1000, 2048 and 4096, but 0.77 here.  A fix makes this
    # pass, which strict mode reports.
    wedge = Intersection((Halfspace((0.0, -1.0) + (0.0,) * 6, 0.0),
                          Halfspace((-np.sin(1.0), np.cos(1.0)) + (0.0,) * 6, 0.0)))
    seeds = range(200)
    hits = 0
    for seed in seeds:
        e = density_ratio(wedge, ORIGIN8, CUBE8, 0.5, SampleSpec(n=1024, seed=seed))
        hits += abs(e.value - 1 / (2 * np.pi)) <= e.stderr
    assert 0.9 <= hits / len(seeds) <= 0.99, hits / len(seeds)
