import numpy as np
import pytest

from puremeasure.geometry import Ball, Box, Intersection, interval
from puremeasure.quadrature import (
    Estimate,
    NoHits,
    Range,
    Ratio,
    SampleSpec,
    UnboundedRegion,
    ess_range,
    mc_integral,
    mc_volume,
    mc_weighted_mean,
    sweep,
)

DISK = Ball((0.0, 0.0), 1.0)


def test_disk_volume_matches_pi():
    spec = SampleSpec(n=1_000_000, seed=42)
    est = mc_volume(DISK, spec)
    assert est.stderr < 0.012
    assert abs(est.value - np.pi) <= 2 * est.stderr + 1e-12


def test_empty_region_volume():
    empty = Intersection((Box((0, 0), (1, 1)), Box((2, 2), (3, 3))))
    est = mc_volume(empty, SampleSpec(n=1000, seed=1))
    assert est.value == 0.0 and est.hits == 0


def test_box_volume_is_exact():
    est = mc_volume(Box((0.0, 0.0), (1.0, 1.0)), SampleSpec(n=10_000, seed=3))
    # every sample hits, so the estimator collapses to the box volume
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    assert est.hits == est.n


def test_unbounded_region_rejected():
    from puremeasure.geometry import Halfspace

    with pytest.raises(UnboundedRegion):
        mc_volume(Halfspace((1.0, 0.0), 0.0), SampleSpec(n=100, seed=0))


def test_determinism_bit_identical():
    spec = SampleSpec(n=50_000, seed=123)
    a = mc_volume(DISK, spec)
    b = mc_volume(DISK, spec)
    assert a == b
    fa = mc_integral(lambda p: p[:, 0] ** 2, DISK, spec)
    fb = mc_integral(lambda p: p[:, 0] ** 2, DISK, spec)
    assert fa == fb


def test_stderr_shrinks_like_sqrt_n():
    small = mc_volume(DISK, SampleSpec(n=100_000, seed=9))
    big = mc_volume(DISK, SampleSpec(n=200_000, seed=9))
    ratio = small.stderr / big.stderr
    assert abs(ratio - np.sqrt(2)) <= 0.2 * np.sqrt(2)


def test_integral_examples():
    spec = SampleSpec(n=400_000, seed=11)
    const = mc_integral(lambda p: np.ones(len(p)), DISK, spec)
    vol = mc_volume(DISK, spec)
    assert const.value == pytest.approx(vol.value, rel=1e-12)

    x2 = mc_integral(lambda p: p[:, 0] ** 2, DISK, spec)
    assert abs(x2.value - np.pi / 4) <= 3 * x2.stderr + 1e-12

    # odd integrand over the symmetric box: pairs cancel exactly
    odd = mc_integral(lambda p: p[:, 0], DISK, spec)
    assert odd.value == 0.0


def test_integral_additivity_same_stream():
    spec = SampleSpec(n=100_000, seed=5)
    f = lambda p: np.sin(p[:, 0])
    g = lambda p: p[:, 1] ** 3
    total = mc_integral(lambda p: f(p) + g(p), DISK, spec)
    split = mc_integral(f, DISK, spec).value + mc_integral(g, DISK, spec).value
    assert total.value == pytest.approx(split, rel=1e-10, abs=1e-12)


def test_integral_counts_nonfinite():
    region = interval(0.0, 1.0)
    spec = SampleSpec(n=20_000, seed=17)
    est = mc_integral(lambda p: np.log(p[:, 0] - 0.5), region, spec)
    assert est.nonfinite > 0
    assert np.isfinite(est.value)


def test_weighted_mean_normalization_exact():
    omega = interval(-1.0, 1.0)
    spec = SampleSpec(n=50_000, seed=23)
    wm = mc_weighted_mean(
        lambda p: np.ones(len(p)),
        lambda p: omega.contains(p).astype(float),
        omega.bbox,
        spec,
    )
    assert wm.value == 1.0
    assert wm.stderr == 0.0


def test_weighted_mean_monotone_hits():
    omega = interval(-1.0, 1.0)
    sub = interval(0.0, 1.0)
    spec = SampleSpec(n=50_000, seed=23)
    inner = mc_weighted_mean(
        lambda p: np.ones(len(p)),
        lambda p: sub.contains(p).astype(float),
        omega.bbox,
        spec,
    )
    outer = mc_weighted_mean(
        lambda p: np.ones(len(p)),
        lambda p: omega.contains(p).astype(float),
        omega.bbox,
        spec,
    )
    assert inner.hits <= outer.hits


def test_ess_range_oscillation():
    region = interval(0.0, 0.1)
    spec = SampleSpec(n=200_000, seed=31)
    r = ess_range(lambda p: np.sin(1.0 / p[:, 0]), region, spec)
    assert r.lo == pytest.approx(-1.0, abs=0.05)
    assert r.hi == pytest.approx(1.0, abs=0.05)


def test_ess_range_constant():
    region = interval(0.0, 1.0)
    r = ess_range(lambda p: np.full(len(p), 2.5), region, SampleSpec(n=10_000, seed=2))
    assert r.lo == pytest.approx(2.5) and r.hi == pytest.approx(2.5)


def test_ess_range_flags_unbounded():
    region = interval(0.0, 0.1)
    spec = SampleSpec(n=200_000, seed=7)
    r = ess_range(lambda p: 1.0 / np.sqrt(np.abs(p[:, 0])), region, spec)
    assert r.hi == np.inf
    assert not r.bounded
    assert np.isfinite(r.lo)


def test_ess_range_no_hits():
    tiny = Intersection((Box((0, 0), (1, 1)), Box((2, 2), (3, 3))))
    with pytest.raises(NoHits):
        ess_range(lambda p: p[:, 0], tiny, SampleSpec(n=100, seed=0))


def test_estimate_invariants():
    spec = SampleSpec(n=10_001, seed=4)  # odd count rounds up to even
    est = mc_volume(DISK, spec)
    assert isinstance(est, Estimate)
    assert est.n == 10_002
    assert 0 <= est.hits <= est.n
    assert est.stderr >= 0


def test_single_pair_stderr_is_infinite():
    spec = SampleSpec(n=2, seed=2)
    assert spec.pairs == 1
    line = interval(-1.0, 1.0)
    assert mc_volume(DISK, spec).stderr == np.inf
    assert mc_integral(lambda p: p[:, 0] ** 2, line, spec).stderr == np.inf
    wm = mc_weighted_mean(lambda p: p[:, 0], lambda p: line.contains(p).astype(float), line.bbox, spec)
    assert wm.stderr == np.inf


def test_sweep_columns_equal_standalone_estimators():
    # one column caps samples; every column still equals its own estimator
    region = interval(-1.0, 1.0)
    weight = lambda p: region.contains(p).astype(float)
    inverse = lambda p: 1.0 / p[:, 0]
    square = lambda p: p[:, 0] ** 2
    bbox = (np.array([-1.5]), np.array([1.5]))
    spec = SampleSpec(n=100_001, seed=8)  # spans several chunks
    result = sweep(weight, bbox, spec, stream=3,
                   ratios=[Ratio(inverse, cap=5.0), Ratio(square)], ranges=[Range(inverse), Range(square)])
    assert result.ratios[0].capped > 0
    assert result.ratios[0] == mc_weighted_mean(inverse, weight, bbox, spec, stream=3, cap=5.0)
    assert result.ratios[1] == mc_weighted_mean(square, weight, bbox, spec, stream=3)
    box_spec = SampleSpec(spec.n, spec.seed, bbox)
    assert result.ranges[0] == ess_range(inverse, region, box_spec, stream=3)
    assert result.ranges[1] == ess_range(square, region, box_spec, stream=3)
    assert result.hits == result.ratios[1].hits == result.ranges[1].hits


def test_sweep_evaluates_a_shared_range_block_once():
    rows = []

    def block(p):
        rows.append(len(p))
        return np.column_stack([p[:, 0], -p[:, 0]])

    result = sweep(lambda p: np.ones(len(p)), DISK.bbox, SampleSpec(n=1000, seed=1),
                   ranges=[Range(block, axis=0), Range(block, axis=1)])
    assert rows == [500, 500]  # once per half-chunk for both columns
    assert result.ranges[0].lo == pytest.approx(-result.ranges[1].hi)
