import itertools
import math

import numpy as np
import pytest

from puremeasure import quadrature
from puremeasure.geometry import Ball, Box, Intersection, interval
from puremeasure.quadrature import (
    CHUNK_PAIRS,
    ESS_QUANTILE,
    LATTICE_A,
    LATTICE_BITS,
    LEAF_PAIRS,
    MAGNITUDE_CAP,
    REPLICATES,
    STUDENT_T,
    AxisBox,
    EssRange,
    Estimate,
    NoHits,
    OrientedBox,
    Range,
    Ratio,
    SampleSpec,
    Shell,
    Sweep,
    UnboundedRegion,
    _Base,
    _Work,
    _lattice,
    _pairwise,
    _ratio_result,
    _shifts,
    ess_range,
    mc_integral,
    mc_volume,
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
    spec = SampleSpec(n=1000, seed=1)
    est = mc_volume(empty, spec)
    assert est.value == 0.0 and est.hits == 0
    # an empty bounding box reports the samples a pass would evaluate
    assert est.n == mc_integral(lambda p: p[:, 0], empty, spec).n == mc_volume(DISK, spec).n == 992


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
    # at least as fast as plain Monte Carlo's 1/sqrt(n): lattice replicates of
    # the disk's indicator shrink about like n^(-3/4); a stderr from 16
    # replicates scatters ~18%, so the ratio is averaged over seeds
    ratios = [mc_volume(DISK, SampleSpec(n=100_000, seed=seed)).stderr
              / mc_volume(DISK, SampleSpec(n=200_000, seed=seed)).stderr for seed in range(8)]
    assert math.exp(np.mean(np.log(ratios))) >= np.sqrt(2)


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
    # log of a negative number is NaN: undefined, not beyond the cap
    est = mc_integral(lambda p: np.log(p[:, 0] - 0.5), region, spec)
    assert est.undefined > 0 and est.capped == 0
    assert np.isfinite(est.value)


@pytest.mark.parametrize("region", [DISK, Box((0.0, 0.0), (1.0, 1.0))], ids=["disk", "square"])
def test_an_integral_that_drops_every_hit_is_nan(region):
    # log(x1 - 5) is NaN on all of the region: nothing is left to average,
    # which once read an exact-looking 0 +- 0 (on the disk its misses kept
    # the per-sample denominator positive)
    est = mc_integral(lambda p: np.log(p[:, 0] - 5.0), region, SampleSpec(n=20_000, seed=0))
    assert est.hits > 0 and est.undefined == est.hits and est.capped == 0
    assert math.isnan(est.value) and math.isnan(est.stderr)


def test_overflowing_column_reads_infinite_stderr():
    # every value is finite and within the per-sample cap, but the replicate sums
    # overflow: the variance is unknown, so stderr is inf, and nothing warns
    est = mc_integral(lambda p: np.full(len(p), 1e308), interval(0.0, 1.0), SampleSpec(n=1000))
    assert est.value == np.inf and est.stderr == np.inf and est.capped == 0


def test_a_step_beyond_the_squarable_reads_infinite_stderr():
    # a constant column is quantized: one sample moves a replicate sum by c / 2, whose
    # square overflows past ~2.7e154 and once raised OverflowError
    est = mc_integral(lambda p: np.full(len(p), 1e200), DISK, SampleSpec(n=2000, seed=1))
    assert est.value == pytest.approx(np.pi * 1e200, rel=0.05)
    assert est.stderr == np.inf and est.capped == 0 and est.undefined == 0


def _weighted_mean(values, weight, bbox, spec, stream=0):
    """The one ratio column `Ratio(values)` of a sweep over the box."""
    return sweep(weight, AxisBox(bbox), spec, stream, ratios=[Ratio(values)]).ratios[0]


def test_weighted_mean_normalization_exact():
    omega = interval(-1.0, 1.0)
    spec = SampleSpec(n=50_000, seed=23)
    wm = _weighted_mean(
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
    inner = _weighted_mean(
        lambda p: np.ones(len(p)),
        lambda p: sub.contains(p).astype(float),
        omega.bbox,
        spec,
    )
    outer = _weighted_mean(
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
    spec = SampleSpec(n=10_001, seed=4)  # odd count rounds up to 5001 pairs
    est = mc_volume(DISK, spec)
    assert isinstance(est, Estimate)
    assert est.n == 2 * 19 * 256  # 19 whole lattices of 256 pairs
    assert 0 <= est.hits <= est.n
    assert est.stderr >= 0


def test_single_pair_stderr_is_infinite():
    spec = SampleSpec(n=2, seed=2)
    assert spec.pairs == 1
    line = interval(-1.0, 1.0)
    assert mc_volume(DISK, spec).stderr == np.inf
    assert mc_integral(lambda p: p[:, 0] ** 2, line, spec).stderr == np.inf
    wm = _weighted_mean(lambda p: p[:, 0], lambda p: line.contains(p).astype(float), line.bbox, spec)
    assert wm.stderr == np.inf


def test_sweep_columns_equal_standalone_estimators():
    # one column caps samples (the hits with |x1| < 1 / MAGNITUDE_CAP); every
    # column still equals its own estimator
    region = interval(-1.0, 1.0)
    weight = lambda p: region.contains(p).astype(float)
    inverse = lambda p: 1.0 / p[:, 0]
    square = lambda p: p[:, 0] ** 2
    bbox = (np.array([-1.5]), np.array([1.5]))
    spec = SampleSpec(n=100_001, seed=8)  # spans several chunks
    box = AxisBox(bbox)
    result = sweep(weight, box, spec, stream=3,
                   ratios=[Ratio(inverse), Ratio(square)], ranges=[Range(inverse), Range(square)])
    assert result.ratios[0].capped > 0
    assert result.ratios[0] == _weighted_mean(inverse, weight, bbox, spec, stream=3)
    assert result.ratios[1] == _weighted_mean(square, weight, bbox, spec, stream=3)
    assert result.ranges[0] == sweep(region.contains, box, spec, stream=3, ranges=[Range(inverse)]).ranges[0]
    assert result.ranges[1] == sweep(region.contains, box, spec, stream=3, ranges=[Range(square)]).ranges[0]
    assert result.hits == result.ratios[1].hits == result.ranges[1].hits


def test_sweep_evaluates_a_shared_range_block_once():
    rows = []

    def block(p):
        rows.append(len(p))
        return np.column_stack([p[:, 0], -p[:, 0]])

    result = sweep(lambda p: np.ones(len(p)), AxisBox(DISK.bbox), SampleSpec(n=1000, seed=1),
                   ranges=[Range(block, width=2)])
    assert rows == [496, 496]  # once per half-leaf for both columns: 31 lattices of 16 pairs
    assert result.ranges[0].lo == pytest.approx(-result.ranges[1].hi)


def test_a_range_block_of_another_width_raises():
    block = lambda p: np.column_stack([p[:, 0], -p[:, 0], p[:, 1]])
    with pytest.raises(ValueError):
        sweep(lambda p: np.ones(len(p)), AxisBox(DISK.bbox), SampleSpec(n=1000, seed=1), ranges=[Range(block, width=2)])


def test_a_range_of_width_three_without_hits_reports_three_unbounded_ranges():
    result = sweep(lambda p: np.zeros(len(p)), AxisBox(DISK.bbox), SampleSpec(n=1000, seed=1),
                   ranges=[Range(lambda p: p[:, [0, 1, 0]], width=3)])
    assert result.hits == 0
    assert result.ranges == (EssRange(-np.inf, np.inf, 0),) * 3


# ----------------------------------------------------------------- proposals

def _draws(proposal, n=4000, seed=5, stream=2):
    return [pair for pair in proposal.pairs(seed, stream, n)]


def _frame_coordinates(box, pts):
    return (pts - box.center) @ box.frame


SEGMENT_BOX = OrientedBox.around_segment((-0.2, 0.1, 0.3), (0.6, 0.5, -0.4), 0.05)


def _layout(pairs):
    """(replicates, pairs each), from the definition: the largest 2^k with 16 replicates of 2^k in `pairs`, as many as fit."""
    size = 1
    while 2 * size * REPLICATES <= pairs:
        size *= 2
    return pairs // size, size


def _unit_points(coords, seed, stream, pairs, dtype=float):
    """Each replicate's shifted lattice points, from the definition: frac(phi(i) a^j / 2^bits + shift).

    In long double the sum is exact, where a float rounds it.
    """
    reps, size = _layout(pairs)
    shifts = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=(seed, stream)))).random(
        (reps, coords))
    out = []
    for r in range(reps):
        rows = []
        for i in range(size):
            phi = int(format(i, f"0{LATTICE_BITS}b")[::-1], 2)  # the radical inverse, times 2^bits
            rows.append([(phi * pow(LATTICE_A, j, 1 << LATTICE_BITS) % (1 << LATTICE_BITS)) / 2.0 ** LATTICE_BITS
                         for j in range(coords)])
        u = np.array(rows, dtype=dtype) + shifts[r].astype(dtype)
        out.append(np.where(u >= 1, u - 1, u))
    return out


@pytest.mark.parametrize("dim", range(1, 10))
def test_axis_box_is_the_old_stream(dim):
    # the old affine map, bit for bit, now fed the replicates' shifted lattice points
    rng = np.random.default_rng(dim)
    lo = rng.uniform(-2.0, 0.0, dim)
    hi = lo + rng.uniform(0.1, 3.0, dim)
    pairs = 3 * REPLICATES + 5
    drawn = list(AxisBox((lo, hi)).pairs(11, 4, pairs))
    assert [len(a) for a, _ in drawn] == [2] * 26
    for (a, b), u in zip(drawn, _unit_points(dim, 11, 4, pairs)):
        assert np.array_equal(a, lo + u * (hi - lo))
        assert np.array_equal(b, hi - u * (hi - lo))
        assert a.flags.f_contiguous and b.flags.f_contiguous


def test_lattice_sequence_extends_the_power_of_two_lattices():
    # the first 2^k points are the lattice {j h / 2^k mod 1} for every k, and
    # every point is exact in a float
    h = np.array([pow(LATTICE_A, j, 1 << LATTICE_BITS) for j in range(5)], dtype=object)
    points = _lattice(5, 1 << 10)
    for k in range(11):
        lattice = {tuple(int(x) for x in (j * h) % (1 << k)) for j in range(1 << k)}
        prefix = {tuple(int(x) for x in p) for p in (points[:, :1 << k].T * (1 << k))}
        assert prefix == lattice, k
    assert np.array_equal(points * 2.0 ** LATTICE_BITS, np.round(points * 2.0 ** LATTICE_BITS))


def test_every_lattice_coordinate_is_a_permutation_of_its_grid():
    # the shell's angle table rests on this: the first 2^k points of every
    # coordinate are the grid i / 2^k in some order, since every h_j is odd
    points = _lattice(9, 1 << 14)
    for k in range(15):
        cells = points[:, :1 << k] * (1 << k)
        assert np.array_equal(np.sort(cells, axis=1), np.broadcast_to(np.arange(1 << k), cells.shape)), k


@pytest.mark.parametrize("pairs", [1, 2, 15, 16, 17, 1501, 100_000])
def test_replicates_take_exactly_the_sample_count(pairs):
    # R whole lattices of 2^k pairs each: 16 <= R <= 31 from 16 pairs on (one
    # replicate per pair below), more than 15/16 of the pairs, and Estimate.n
    # reports exactly the samples they hold
    box = AxisBox((np.zeros(2), np.ones(2)))
    sizes = [len(a) for a, _ in box.pairs(3, 1, pairs)]
    size = sizes[0]
    assert set(sizes) == {size} and size & (size - 1) == 0
    if pairs >= REPLICATES:
        assert REPLICATES <= len(sizes) < 2 * REPLICATES
    else:
        assert len(sizes) == pairs
    assert 16 * sum(sizes) > 15 * pairs
    spec = SampleSpec(n=2 * pairs, seed=3)
    assert sweep(lambda p: p[:, 0] < 0.5, box, spec, ratios=[Ratio(lambda p: p[:, 1])]).ratios[0].n == 2 * sum(sizes)


def test_shifts_are_independent_per_stream():
    assert np.array_equal(_shifts(7, 3, REPLICATES, 2), _shifts(7, 3, REPLICATES, 2))
    assert not np.array_equal(_shifts(7, 3, REPLICATES, 2), _shifts(7, 4, REPLICATES, 2))
    assert not np.array_equal(_shifts(7, 3, REPLICATES, 2), _shifts(8, 3, REPLICATES, 2))


def test_student_t_table_is_the_975_quantile():
    # integrate the t density from 0 to the tabled value by Simpson's rule
    for df, t in enumerate(STUDENT_T, start=1):
        c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        x = np.linspace(0.0, t, 20_001)
        f = c * (1.0 + x * x / df) ** (-(df + 1) / 2)
        area = (x[1] - x[0]) / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
        assert 0.5 + area == pytest.approx(0.975, abs=2e-5), df


def test_proposal_draws_lie_in_their_set():
    ball = Shell((0.3,) * 8, 0.0, 0.2)
    shell = Shell((0.0, 1.0, -1.0), 0.9, 1.1)
    for a, b in _draws(ball) + _draws(shell):
        for pts in (a, b):
            assert pts.flags.f_contiguous
    for pts in (p for pair in _draws(ball) for p in pair):
        assert np.all(np.linalg.norm(pts - ball.center, axis=1) < 0.2)
    for pts in (p for pair in _draws(shell) for p in pair):
        r = np.linalg.norm(pts - shell.center, axis=1)
        assert np.all((0.9 < r) & (r < 1.1))
    for pts in (p for pair in _draws(SEGMENT_BOX) for p in pair):
        assert pts.flags.f_contiguous
        assert np.all(np.abs(_frame_coordinates(SEGMENT_BOX, pts)) < SEGMENT_BOX.half)


def test_oriented_box_frame_follows_the_segment():
    a, b = np.array([-0.2, 0.1, 0.3]), np.array([0.6, 0.5, -0.4])
    frame = SEGMENT_BOX.frame
    assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-14)
    assert np.allclose(np.abs(frame[:, 0]), np.abs(b - a) / np.linalg.norm(b - a), atol=1e-14)
    assert np.allclose(SEGMENT_BOX.center, 0.5 * (a + b))
    assert SEGMENT_BOX.half == pytest.approx([0.5 * np.linalg.norm(b - a) + 0.05, 0.05, 0.05])


def test_proposals_are_uniform_on_their_set():
    # E|x|^2 = d r^2 / (d + 2) on a d-ball; E t_k^2 = h_k^2 / 3 on a box
    ball = Shell((0.0,) * 5, 0.0, 2.0)
    pts = np.concatenate([a for a, _ in _draws(ball, n=200_000)])
    assert np.mean(np.sum(pts ** 2, axis=1)) == pytest.approx(5 * 4.0 / 7, rel=0.01)
    t = _frame_coordinates(SEGMENT_BOX, np.concatenate([a for a, _ in _draws(SEGMENT_BOX, n=200_000)]))
    assert np.mean(t ** 2, axis=0) == pytest.approx(SEGMENT_BOX.half ** 2 / 3, rel=0.02)
    # the shell's radius has density proportional to r^2 on (1, 2) in 3-D: E r = (2^4 - 1) / 4 / ((2^3 - 1) / 3)
    shell = Shell((0.0,) * 3, 1.0, 2.0)
    r = np.linalg.norm(np.concatenate([a for a, _ in _draws(shell, n=200_000)]), axis=1)
    assert np.mean(r) == pytest.approx((15 / 4) / (7 / 3), rel=0.005)
    # the 2-D angle map: E x_k^2 = r^2 / 4 on a disk; in 1-D the radius alone: E |x| = 1 on 0.5 < |x| < 1.5
    pts = np.concatenate([a for a, _ in _draws(Shell((0.0, 0.0), 0.0, 2.0), n=200_000)])
    assert np.mean(pts ** 2, axis=0) == pytest.approx([1.0, 1.0], rel=0.01)
    r = np.abs(np.concatenate([a for a, _ in _draws(Shell((0.0,), 0.5, 1.5), n=200_000)]))
    assert np.mean(r) == pytest.approx(1.0, rel=0.005)


@pytest.mark.parametrize("make, dim", [
    (lambda c: AxisBox((c + np.array([-0.5, -2.0]), c + np.array([0.5, 2.0]))), 2),
    (lambda c: Shell(c, 0.0, 0.3), 8),
    (lambda c: Shell(c, 0.8, 1.2), 3),
    (lambda c: OrientedBox.around_segment(c + np.array([-1.0, -0.5, 0.2]), c + np.array([1.0, 0.5, -0.2]), 0.1), 3),
], ids=["axis_box", "ball", "shell", "oriented_box"])
def test_pairs_reflect_through_the_centre(make, dim):
    # products, not powers: numpy's x ** 3 is not exactly odd
    odd = lambda p: p[:, 0] * p[:, 0] * p[:, 0] - 2.0 * p[:, 0] * p[:, -1] * p[:, -1] + p[:, -1]
    for a, b in _draws(make(np.zeros(dim))):
        assert np.array_equal(b, -a)
        assert np.all(odd(a) + odd(b) == 0.0)
    moved = make(np.full(dim, 0.75))
    for a, b in _draws(moved):
        assert np.allclose(0.5 * (a + b), moved.center, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_a_folded_radius_of_one_maps_onto_the_outer_sphere(dim):
    # the fold sends u_0 = 1/2 to 1: its points lie at radius r1, finite; the
    # points are a base of 4 on the grid i/4 under a zero shift
    shell = Shell(np.full(dim, 0.5), 0.6, 1.5)
    u = np.full((shell.coords, 4), 0.25)
    u[0] = [0.5, 0.0, 0.75, 0.25]
    a, b = _Base(shell, u, np.zeros((shell.coords, 1))).halves(_Work(4, shell, False), 0, 1, 0, 4)
    r = np.linalg.norm(a - shell.center, axis=1)
    assert np.all(np.isfinite(a)) and np.allclose(a + b, 2 * shell.center, rtol=0, atol=1e-15)
    assert r[0] == pytest.approx(1.5, rel=1e-15)
    # u_0 = 0 folds to 0, the inner radius, and 3/4 to 1/2 as 1/4 does
    assert r[1] == pytest.approx(0.6, rel=1e-15)
    assert r[2] == pytest.approx((0.6 ** dim + 0.5 * (1.5 ** dim - 0.6 ** dim)) ** (1 / dim), rel=1e-14)


def _shell_from_definition(shell, u, exact):
    """center + and - the offsets of float unit points u (m, coords), from the radius map and cos and sin of 2 pi u.

    Formed in long double, each term in its well-conditioned form, and
    rounded once at the end.  The radius and the Box-Muller norms read u, as
    the sweep does; the angles read `exact`, the same points summed without
    rounding, as the sweep's table does.  A float's rounding of an angle
    coordinate, up to 2^-54, would move a direction by more than the
    tolerance where the normalisation of an odd dimension's Gaussians
    amplifies it.
    """
    d = shell.dim
    u = u.astype(np.longdouble)
    angles = [1] if d == 2 else [2] if d == 3 else list(range(2, shell.coords, 2))
    turn = 2 * np.arccos(np.longdouble(-1)) * exact[:, angles]
    t = 1 - np.abs(2 * u[:, 0] - 1)
    inner = (np.longdouble(shell.r0) / np.longdouble(shell.r1)) ** d
    radius = np.longdouble(shell.r1) * (inner + t * (1 - inner)) ** (1 / np.longdouble(d))
    if d == 2:
        direction = np.column_stack([np.cos(turn[:, 0]), np.sin(turn[:, 0])])
    elif d == 3:
        rho = 2 * np.sqrt(u[:, 1] * (1 - u[:, 1]))  # sqrt(1 - z^2), without its cancellation near the poles
        direction = np.column_stack([rho * np.cos(turn[:, 0]), rho * np.sin(turn[:, 0]), 1 - 2 * u[:, 1]])
    else:
        norm = np.sqrt(-np.log1p(-u[:, 1::2]))
        g = np.stack([norm * np.cos(turn), norm * np.sin(turn)], axis=2).reshape(len(u), -1)[:, :d]
        direction = g / np.sqrt(np.sum(g * g, axis=1, keepdims=True))
    offsets = radius[:, None] * direction
    center = shell.center.astype(np.longdouble)
    return (center + offsets).astype(float), (center - offsets).astype(float)


@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                    reason="the definition is formed in a long double wider than a float")
@pytest.mark.parametrize("pairs", [REPLICATES * 64 + 5, REPLICATES * 700 + 3], ids=["whole", "cut"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
def test_shell_points_match_their_definition(dim, pairs, monkeypatch):
    # the oracle rebuilds the stream through the same angle table, so it cannot
    # catch a wrong cell or replicate; this checks the points the sweep hands
    # out against cos and sin of the definition's angles.  With LEAF_PAIRS =
    # 256, 16 replicates of 64 pairs run as leaves of 4 whole ones, and 21 of
    # 512 pairs are each cut in halves; either way the leaves come in order
    monkeypatch.setattr(quadrature, "LEAF_PAIRS", 256)
    shell = Shell(np.linspace(-0.4, 0.3, dim), 0.2 if dim == 3 else 0.0, 0.7)
    seen = []

    def weight(p):
        seen.append(p.copy())
        return np.ones(len(p), dtype=bool)

    sweep(weight, shell, SampleSpec(n=2 * pairs, seed=13), 6)
    u, exact = (np.concatenate(_unit_points(shell.coords, 13, 6, pairs, dtype)) for dtype in (float, np.longdouble))
    a, b = _shell_from_definition(shell, u, exact)
    assert len(seen) > 2 and len(a) == sum(len(p) for p in seen[0::2])
    assert np.max(np.abs(np.concatenate(seen[0::2]) - a)) <= 1e-15 * shell.r1
    assert np.max(np.abs(np.concatenate(seen[1::2]) - b)) <= 1e-15 * shell.r1


def test_proposal_volumes_match_closed_forms():
    for dim, unit in [(1, 2.0), (2, math.pi), (3, 4 * math.pi / 3), (4, math.pi ** 2 / 2),
                      (8, math.pi ** 4 / 24), (9, 32 * math.pi ** 4 / 945)]:
        assert Shell((0.0,) * dim, 0.0, 0.3).volume == pytest.approx(unit * 0.3 ** dim, rel=1e-14)
    assert Shell((1.0, 2.0, 3.0), 0.9, 1.1).volume == pytest.approx(4 * math.pi / 3 * (1.1 ** 3 - 0.9 ** 3), rel=1e-14)
    assert Shell((0.0, 0.0), 0.5, 1.5).volume == pytest.approx(2 * math.pi, rel=1e-14)
    length = math.sqrt(0.8 ** 2 + 0.4 ** 2 + 0.7 ** 2)
    assert SEGMENT_BOX.volume == pytest.approx((length + 0.1) * 0.1 ** 2, rel=1e-14)
    assert AxisBox((np.array([0.0, -1.0]), np.array([0.5, 1.0]))).volume == 1.0


def test_shell_rejects_bad_radii():
    with pytest.raises(ValueError):
        Shell((0.0, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        Shell((0.0, 0.0), -0.1, 1.0)
    with pytest.raises(ValueError, match="distinct axes"):
        Shell((0.0, 0.0), 0.0, 1.0, ((0, 1), (0, -1)))
    with pytest.raises(ValueError, match="distinct axes"):
        Shell((0.0, 0.0), 0.0, 1.0, ((2, 1),))
    with pytest.raises(ValueError, match="distinct axes"):
        Shell((0.0, 0.0), 0.0, 1.0, ((1, 0),))


@pytest.mark.parametrize("dim, folds", [
    (2, ((0, 1),)),
    (2, ((0, -1), (1, 1))),
    (3, ((2, -1),)),
    (3, ((0, 1), (1, -1), (2, 1))),
    (8, ((1, 1), (6, -1))),
], ids=["half_disk", "quarter_disk", "half_ball", "corner_3d", "ball_8d"])
def test_folded_pairs_share_their_folded_coordinates(dim, folds):
    # around the origin the unfolded pairs are (o, -o) exactly; folding axis k
    # by sign s gives both members s |o_k| there and leaves the other axes be
    ball, folded = Shell(np.zeros(dim), 0.0, 0.7), Shell(np.zeros(dim), 0.0, 0.7, folds)
    assert folded.volume == ball.volume / 2 ** len(folds)
    for (a, b), (fa, fb) in zip(_draws(ball), _draws(folded)):
        expected = a.copy()
        for k, sign in folds:
            expected[:, k] = sign * np.abs(a[:, k])
        assert np.array_equal(fa, expected)
        expected[:, [k for k in range(dim) if k not in dict(folds)]] *= -1.0
        assert np.array_equal(fb, expected)
        assert fa.flags.f_contiguous and fb.flags.f_contiguous
    # away from the origin each member lies in the ball and on the folds' side
    moved = Shell(np.full(dim, 0.75), 0.0, 0.7, folds)
    for a, b in _draws(moved):
        for pts in (a, b):
            assert np.all(np.linalg.norm(pts - moved.center, axis=1) < 0.7)
            assert all(np.all(sign * (pts[:, k] - 0.75) >= 0.0) for k, sign in folds)


# ------------------------------------------------------------ kernel oracle

def _oracle_sweep(weight, proposal, spec, stream=0, ratios=(), ranges=()):
    """`sweep` as a plain loop over the replicates: masks for every column, every hit value kept, np.quantile at the end.

    It applies the kernel's rules itself: a weight counts only where it is
    finite and positive, a ratio column drops values beyond MAGNITUDE_CAP, a
    per-sample one only non-finite values, and a range column reads the
    ESS_QUANTILE quantiles and turns an end infinite past MAGNITUDE_CAP or
    at a NaN.  Where the weight takes one value a on its support (1 for a
    bool weight) and a ratio column's values are bool (c = 1) or one
    constant c on the hits of every half, with none of them dropped (a half
    without hits shows no value), the column adds
    (a c / 2)^2 / 12 per replicate to its squared residuals; any other adds
    spacing(|u_r|)^2 / 12 for each numerator sum u_r.  Neither is added
    where w v is 0 on every sample its denominator counts, or is not 0 on
    any of them and the column's one c (a c for a per-sample column) exists.
    """
    hits = used = 0
    # each replicate's numerator and denominator sum, the capped count, the
    # values c and a the halves take (None once a half takes more than one),
    # the samples where w v is not 0, those the denominator counts, and the
    # undefined (NaN) count
    sums = [[[], [], 0, set(), set(), 0, 0, 0] for _ in ratios]
    # a range of width k is k value columns
    found = [[] for col in ranges for _ in range(1 if col.width is None else col.width)]
    unbounded = [[False, False] for _ in found]
    with np.errstate(all="ignore"):
        for a, b in proposal.pairs(spec.seed, stream, spec.pairs):
            used += len(a)
            halves = []
            for pts in (a, b):
                raw = np.asarray(weight(pts))
                w = raw.astype(float)
                active = (w > 0) & np.isfinite(w)
                hits += int(np.count_nonzero(active))
                halves.append((pts, w, active, set(w[active].tolist())))
            for col, acc in zip(ratios, sums):
                u = np.zeros(len(a))
                d = np.zeros(len(a))
                cap = np.inf if col.per_sample else MAGNITUDE_CAP
                for pts, w, active, levels in halves:
                    values = np.asarray(col.values(pts))
                    v = values.astype(float)
                    bad = active & (~np.isfinite(v) | (np.abs(v) > cap))
                    acc[2] += int(np.count_nonzero(bad & ~np.isnan(v)))
                    acc[7] += int(np.count_nonzero(bad & np.isnan(v)))
                    keep = active & ~bad
                    u += 0.5 * np.where(keep, w * v, 0.0)
                    d += 0.5 * (~bad if col.per_sample else np.where(keep, w, 0.0))
                    on = v[active]
                    if on.size:
                        within = np.all(np.abs(on) <= cap) and np.all(np.isfinite(on))
                        one = within and (values.dtype == bool or np.all(on == on[0]))
                        acc[3] = acc[3] | {1.0 if values.dtype == bool else float(on[0])} \
                            if one and acc[3] is not None else None
                    acc[4] = acc[4] | levels if len(levels) <= 1 and acc[4] is not None else None
                    acc[5] += int(np.count_nonzero(keep & (v != 0)))
                    acc[6] += int(np.count_nonzero(~bad if col.per_sample else keep))
                acc[0].append(float(u.sum()))
                acc[1].append(float(d.sum()))
            for pts, w, active, _ in halves:
                if not active.any():
                    continue
                hit = np.take(pts, np.flatnonzero(active), axis=0)
                columns = []
                for col in ranges:
                    v = np.asarray(col.values(hit), dtype=float)
                    columns += [v] if col.width is None else [v[:, j] for j in range(col.width)]
                for v, vals, flags in zip(columns, found, unbounded):
                    nan = bool(np.isnan(v).any())
                    flags[0] |= nan or bool(np.any(v < -MAGNITUDE_CAP))
                    flags[1] |= nan or bool(np.any(v > MAGNITUDE_CAP))
                    vals.append(v[np.isfinite(v)])
    means = []
    for col, (us, ds, capped, values, levels, on, counted, undefined) in zip(ratios, sums):
        us, ds = np.array(us), np.array(ds)
        sv = float(ds.sum())
        if sv <= 0:
            means.append(Estimate(float("nan"), float("nan"), hits, 2 * used, capped, undefined))
            continue
        ratio = float(us.sum()) / sv
        reps = len(us)
        resid = us - ratio * ds
        c = values.pop() if values is not None and len(values) == 1 else None
        a = levels.pop() if levels is not None and len(levels) == 1 else None
        quantum = c * a if c is not None and a is not None else None
        averaged = quantum if col.per_sample else c
        if on == 0 or (on == counted and averaged is not None):
            rounding = 0.0
        elif quantum is not None:
            rounding = reps * ((0.5 * quantum) ** 2 / 12.0)
        else:
            grid = np.spacing(np.abs(us))
            rounding = float((grid * grid).sum()) / 12.0
        se = STUDENT_T[reps - 2] * math.sqrt((float((resid * resid).sum()) + rounding) / (reps * (reps - 1))) \
            / (sv / reps) if reps > 1 else np.inf
        means.append(Estimate(ratio, se, hits, 2 * used, capped, undefined))
    extents = []
    for vals, (below, above) in zip(found, unbounded):
        values = np.concatenate(vals) if vals else np.empty(0)
        lo, hi = np.quantile(values, [ESS_QUANTILE, 1.0 - ESS_QUANTILE]) if values.size else (-np.inf, np.inf)
        extents.append(EssRange(float(-np.inf if below else lo), float(np.inf if above else hi), hits))
    return Sweep(hits, tuple(means), tuple(extents))


ORACLE_PROPOSALS = {
    "axis_box": AxisBox((np.array([-1.0, -0.8]), np.array([1.2, 0.9]))),
    "disk": Shell((0.1, -0.05), 0.0, 1.0),
    "shell": Shell((0.1, -0.05, 0.0), 0.3, 1.0),
    "ball_8d": Shell((0.1, -0.05, 0.0, 0.2, 0.0, -0.1, 0.0, 0.05), 0.0, 1.3),
    "half_disk": Shell((0.1, -0.05), 0.0, 1.0, ((1, 1),)),
    "corner_3d": Shell((-0.6, -0.3, 0.0), 0.0, 1.5, ((0, 1), (1, 1), (2, -1))),
    "oriented_box": OrientedBox.around_segment((-0.7, 0.2, 0.1), (0.8, -0.3, 0.4), 0.3),
}


def _signed_weight(p):
    # negative on part of the set, NaN on a thin band and +inf on another: none counts as weight
    w = np.where(np.abs(p[:, 1]) < 0.02, np.nan, np.cos(2.0 * p[:, 0]) + 0.3 * p[:, 1])
    return np.where(np.abs(p[:, 0] + 0.1) < 0.02, np.inf, w)


def _band(p):
    return np.abs(p[:, 1]) < 0.15


ORACLE_WEIGHTS = {
    "float": _signed_weight,
    "bool": lambda p: p[:, 0] + p[:, 1] < 0.6,
    "view": lambda p: p[:, 0],  # a view of the points it is handed, negative on part of the set
    "level": lambda p: np.where(p[:, 0] + p[:, 1] < 0.6, 2.5, 0.0),  # one value on its support, as a mask
    # every point has weight, so range columns read each half-leaf itself, ungathered
    "all_bool": lambda p: np.ones(len(p), dtype=bool),
    "all_float": lambda p: 2.0 + np.cos(p[:, 0]),
    # a band that holds at most half of the points of every half-leaf here
    # (17-41%), so ratio columns read them gathered; it meets the capped and
    # undefined values of the columns below
    "sparse": _band,
    "sparse_float": lambda p: np.where(_band(p), 1.0 + p[:, 0] * p[:, 0], 0.0),
}


def _wild(p):
    # +-inf and NaN beside finite values within MAGNITUDE_CAP
    x = p[:, 0]
    return np.where(x > 0.8, np.inf, np.where(x < -0.8, -np.inf, np.where(np.abs(p[:, 1]) < 0.01, np.nan, x)))


def _oracle_columns():
    block = lambda p: np.column_stack([p[:, 0] * p[:, 1], np.sin(3.0 * p[:, 1])])
    inverse = lambda p: 1.0 / p[:, 0]
    ratios = [
        Ratio(lambda p: p[:, 0]),  # a view of the points it is handed, read before every other column
        Ratio(lambda p: p[:, 0] * p[:, 0] + p[:, 1]),
        Ratio(inverse),  # capped where |x1| < 1 / MAGNITUDE_CAP, beside the clean column above
        Ratio(lambda p: p[:, 1] > 0.1),  # bool values, as membership columns give them
        Ratio(lambda p: np.full(len(p), 2.5)),  # constant, so every hit agrees
        Ratio(lambda p: np.full(len(p), -1.5), per_sample=True),  # constant, as a volume column's
        Ratio(lambda p: np.exp(p[:, 1]), per_sample=True),
        Ratio(inverse, per_sample=True),  # keeps its values beyond MAGNITUDE_CAP
        Ratio(_wild),
        Ratio(_wild, per_sample=True),
        Ratio(lambda p: np.log(p[:, 0] + 0.5)),  # NaN on the hits left of x1 = -0.5: undefined, not capped
        # one value on the supports of the bool, level and sparse weights alone
        Ratio(lambda p: np.where(_band(p) | (p[:, 0] + p[:, 1] < 0.6), 1.5, p[:, 1])),
    ]
    ranges = [
        Range(block, width=2),
        Range(inverse),
        Range(_wild),
        Range(lambda p: np.round(4.0 * p[:, 1]) / 4.0 + 1.0),  # heavy ties
        Range(lambda p: p[:, :2], width=2),  # a view of the points it is handed, unchanged
    ]
    return ratios, ranges


# A leaf holds LEAF_PAIRS / 2^k whole replicates of 2^k pairs each
ORACLE_SIZES = {
    "one_chunk": 3001,  # 23 replicates of 64 pairs in one leaf
    "three_chunks_odd_rest": 2 * (3 * CHUNK_PAIRS + 7) - 1,  # 24 of 4096: six leaves of 4
    "cli_samples": 50_000,  # 24 of 1024: leaves of 16 and 8
    "one_leaf_over": 2 * (LEAF_PAIRS + 1),  # 16 of 1024: exactly one full leaf, one pair left out
    "three_chunks_leaf_rest": 2 * (31 * 512 + 511),  # 31 of 512: one leaf, 511 pairs left out
}


@pytest.mark.parametrize("n", ORACLE_SIZES.values(), ids=list(ORACLE_SIZES))
@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=list(ORACLE_WEIGHTS))
@pytest.mark.parametrize("kind", ORACLE_PROPOSALS, ids=list(ORACLE_PROPOSALS))
def test_sweep_matches_the_plain_loop_bit_for_bit(kind, weight, n):
    proposal, spec = ORACLE_PROPOSALS[kind], SampleSpec(n=n, seed=19)
    ratios, ranges = _oracle_columns()
    result = sweep(ORACLE_WEIGHTS[weight], proposal, spec, 5, ratios, ranges)
    expected = _oracle_sweep(ORACLE_WEIGHTS[weight], proposal, spec, 5, ratios, ranges)
    assert repr(result) == repr(expected)  # repr tells -0.0 from 0.0 and matches NaN
    assert any(r.capped for r in result.ratios) and any(r.undefined for r in result.ratios) and result.hits > 0
    assert (result.hits == result.ratios[0].n) == weight.startswith("all_")


@pytest.mark.parametrize("weight", ORACLE_WEIGHTS, ids=list(ORACLE_WEIGHTS))
@pytest.mark.parametrize("kind", ORACLE_PROPOSALS, ids=list(ORACLE_PROPOSALS))
def test_long_replicates_match_the_plain_loop_bit_for_bit(kind, weight, monkeypatch):
    # a replicate longer than LEAF_PAIRS runs alone, cut in halves along numpy's
    # pairwise sum; a small LEAF_PAIRS (above numpy's 128-value block) cuts the
    # 21 replicates of 512 pairs here
    monkeypatch.setattr(quadrature, "LEAF_PAIRS", 256)
    proposal, spec = ORACLE_PROPOSALS[kind], SampleSpec(n=2 * (REPLICATES * 700 + 3), seed=23)
    ratios, ranges = _oracle_columns()
    result = sweep(ORACLE_WEIGHTS[weight], proposal, spec, 2, ratios, ranges)
    assert repr(result) == repr(_oracle_sweep(ORACLE_WEIGHTS[weight], proposal, spec, 2, ratios, ranges))


@pytest.mark.parametrize("weight", ["sparse", "bool", "all_bool"])
@pytest.mark.parametrize("kind", ["axis_box", "shell"])
def test_a_sparse_half_leaf_hands_ratio_columns_its_hits_alone(kind, weight):
    # a half-leaf on which at most half of the points have weight hands every
    # ratio column exactly those points, gathered into a Fortran-ordered
    # block, the one that range columns get; a denser one hands it the
    # half-leaf itself
    weighed, handed, ranged = [], [], []

    def recorded(p):
        w = ORACLE_WEIGHTS[weight](p)
        weighed.append((p.copy(), w > 0))
        return w

    def column(p):
        handed.append((p, p.copy(), p.flags.f_contiguous))
        return p[:, 0] * p[:, 1]

    def extent(p):
        ranged.append(p)
        return p[:, 0]

    proposal, spec = ORACLE_PROPOSALS[kind], SampleSpec(n=50_000, seed=41)
    sweep(recorded, proposal, spec, 1, [Ratio(column), Ratio(lambda p: p[:, 1] > 0.1)], [Range(extent)])
    assert len(weighed) == len(handed) == len(ranged) == 4  # 2 leaves, each half handed on once
    sparse = 0
    for (pts, active), (handed_block, block, fortran), range_block in zip(weighed, handed, ranged):
        if 2 * np.count_nonzero(active) <= len(pts):
            sparse += 1
            assert fortran and block.shape == (np.count_nonzero(active), pts.shape[1])
            assert np.array_equal(block, pts[active]) and handed_block is range_block
        else:
            assert np.array_equal(block, pts)
    assert sparse == (4 if weight == "sparse" else 0)


def _counted_columns():
    # bool columns under a bool weight are counted, per-sample or not; a
    # float and a capped column in the same sweep are not
    return [
        Ratio(lambda p: p[:, 1] > 0.1),
        Ratio(lambda p: p[:, 0] * p[:, 1]),
        Ratio(lambda p: np.abs(p[:, 0]) < 0.3),
        Ratio(_wild),
        Ratio(lambda p: p[:, 0] > -0.2, per_sample=True),
        Ratio(lambda p: p[:, 0] > 5.0),  # no sample inside
        Ratio(lambda p: p[:, 0] > -5.0),  # every sample inside: a ratio of exactly 1, stderr 0
    ]


def _recorded_sweep(monkeypatch, weight, proposal, spec, ratios):
    """sweep's result, and the replicate sums that each ratio column hands to `_ratio_result`."""
    sums = []

    def recorded(su, sv, *rest):
        sums.append((su.tolist(), sv.tolist()))
        return _ratio_result(su, sv, *rest)

    monkeypatch.setattr(quadrature, "_ratio_result", recorded)
    return sweep(weight, proposal, spec, 3, ratios), sums


def _every_second(weight):
    """weight on odd calls, no hit on even ones: a sweep's first half-leaves, the points, go without."""
    calls = itertools.count()
    return lambda p: weight(p) & bool(next(calls) % 2)


def _assert_counted_columns_match_the_float_path(monkeypatch, kind, n, mask):
    # the bool mask is counted; the same weight as the floats 0 and 1 runs the
    # float path, whose replicate sums and stderr must be the same bits
    proposal, spec = ORACLE_PROPOSALS[kind], SampleSpec(n=n, seed=31)
    counted, counted_sums = _recorded_sweep(monkeypatch, mask(), proposal, spec, _counted_columns())
    as_floats = mask()
    summed, float_sums = _recorded_sweep(monkeypatch, lambda p: as_floats(p).astype(float), proposal, spec,
                                         _counted_columns())
    assert counted_sums == float_sums
    assert repr(counted) == repr(summed)
    assert repr(counted) == repr(_oracle_sweep(mask(), proposal, spec, 3, _counted_columns()))
    assert counted.ratios[0].stderr > 0 and counted.ratios[3].capped > 0
    assert (counted.ratios[-1].value, counted.ratios[-1].stderr) == (1.0, 0.0)


MASKS = {
    "mask": lambda: ORACLE_WEIGHTS["bool"],
    "reflections_only": lambda: _every_second(ORACLE_WEIGHTS["bool"]),
}


@pytest.mark.parametrize("mask", MASKS, ids=list(MASKS))
@pytest.mark.parametrize("n", [1000, 1024, 200_000])
@pytest.mark.parametrize("kind", ["axis_box", "shell"])
def test_counted_columns_match_the_float_path_bit_for_bit(kind, n, mask, monkeypatch):
    _assert_counted_columns_match_the_float_path(monkeypatch, kind, n, MASKS[mask])


@pytest.mark.parametrize("kind", ["axis_box", "shell"])
def test_counted_long_replicates_match_the_float_path_bit_for_bit(kind, monkeypatch):
    # 21 replicates of 512 pairs, each cut in halves by `_pairwise`
    monkeypatch.setattr(quadrature, "LEAF_PAIRS", 256)
    _assert_counted_columns_match_the_float_path(monkeypatch, kind, 2 * (REPLICATES * 700 + 3), MASKS["mask"])


def test_a_column_bool_on_one_half_only_matches_the_plain_loop():
    # values that are bool on the points and float on their reflections: the
    # column is counted only where both halves are bool, so this one takes the
    # float path on both halves
    def column():
        calls = itertools.count()
        return Ratio(lambda p: (p[:, 1] > 0.1) if next(calls) % 2 == 0 else (p[:, 1] > 0.1).astype(float))

    proposal, spec = ORACLE_PROPOSALS["axis_box"], SampleSpec(n=3001, seed=37)
    result = sweep(ORACLE_WEIGHTS["bool"], proposal, spec, 1, [column()])
    assert repr(result) == repr(_oracle_sweep(ORACLE_WEIGHTS["bool"], proposal, spec, 1, [column()]))
    assert result.ratios[0].stderr > 0


def test_a_callable_may_run_a_sweep_of_its_own():
    # a weight and a ratio column that each estimate a volume between receiving
    # their points and reading them: a work block shared with the inner sweep
    # would overwrite those points, or the first half's shares, in between
    def area():
        return mc_volume(DISK, SampleSpec(n=4000, seed=2)).value

    weight = lambda p: area() * p[:, 0] + p[:, 1]
    ratios = [Ratio(lambda p: area() - p[:, 1]), Ratio(lambda p: p[:, 0] * p[:, 1])]
    proposal, spec = ORACLE_PROPOSALS["axis_box"], SampleSpec(n=3001, seed=29)
    result = sweep(weight, proposal, spec, 1, ratios)
    assert repr(result) == repr(_oracle_sweep(weight, proposal, spec, 1, ratios))


@pytest.mark.parametrize("n", [CHUNK_PAIRS, 4 * LEAF_PAIRS, LEAF_PAIRS + 1, 1696])
def test_numpy_sums_along_the_leaf_cuts(n):
    # sweep's leaves assume that numpy sums n > 128 contiguous values as the sum of
    # the first n//2 - (n//2) % 8 plus the sum of the rest, the exact half of a
    # replicate of 2^k pairs; a numpy that sums otherwise moves the last bits of
    # every estimate, and fails here first
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * np.exp(8.0 * rng.standard_normal(n))
    cut = n // 2 - n // 2 % 8
    assert a.sum() == a[:cut].sum() + a[cut:].sum()
    assert _pairwise(lambda start, stop: [a[start:stop].sum(), stop - start], 0, n) == [a.sum(), n]
