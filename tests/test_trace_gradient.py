import numpy as np
import pytest

from puremeasure.density_engine import (
    CONVERGED,
    INSUFFICIENT,
    DeltaSchedule,
    Interval,
    VanishingReference,
    sharp_integral,
)
from puremeasure.geometry import Ball, Box, PointFeature, interval
from puremeasure.quadrature import SampleSpec
from puremeasure.trace_gradient import (
    FD_RATIO,
    GradientBox,
    NotOnBoundary,
    ScalarField,
    _rule_block,
    boundary_point,
    boundary_trace,
    calculus_rule_check,
    central_differences,
    density_gradient,
)

SQUARE = Box((0.0, 0.0), (1.0, 1.0))
EDGE_POINT = (0.0, 0.5)
LINE = interval(-1.0, 1.0)


def edge_schedule():
    return DeltaSchedule.auto(PointFeature(EDGE_POINT), SQUARE)


def line_schedule():
    return DeltaSchedule.auto(PointFeature((0.0,)), LINE)


# ------------------------------------------------------------------- traces

def test_trace_of_continuous_function():
    r = boundary_trace(lambda p: p[:, 0] + p[:, 1], SQUARE, EDGE_POINT, edge_schedule(),
                       SampleSpec(n=100_000, seed=30))
    assert r.verdict == CONVERGED
    assert r.limit.mid == pytest.approx(0.5, abs=0.02)


def test_trace_of_locally_constant_step():
    u = lambda p: (p[:, 1] > p[:, 0]).astype(float)
    r = boundary_trace(u, SQUARE, EDGE_POINT, edge_schedule(), SampleSpec(n=100_000, seed=31))
    assert r.verdict == CONVERGED
    assert r.limit.mid == pytest.approx(1.0, abs=0.02)


def test_trace_diverges_for_unbounded_integrand():
    u = lambda p: 1.0 / np.sqrt(p[:, 0])
    r = boundary_trace(u, SQUARE, EDGE_POINT, edge_schedule(), SampleSpec(n=100_000, seed=32))
    assert r.verdict == INSUFFICIENT
    assert r.unintegrable


def test_trace_rejects_interior_point():
    with pytest.raises(NotOnBoundary):
        boundary_trace(lambda p: p[:, 0], SQUARE, (0.5, 0.5), edge_schedule(),
                       SampleSpec(n=1000, seed=0))


@pytest.mark.parametrize("offset", [1e-12, -1e-12])
def test_a_point_just_off_a_face_traces_as_the_point_on_it(offset):
    # within BOUNDARY_TOL of the face x1 = 0 the point is moved onto it, so the
    # trace samples the half-disk as it does at the face point itself
    point = (offset, 0.5)
    assert boundary_point(SQUARE, point) == EDGE_POINT
    u = lambda p: p[:, 0] + p[:, 1]
    spec = SampleSpec(n=20_000, seed=1)
    off = boundary_trace(u, SQUARE, point, edge_schedule(), spec)
    assert repr(off) == repr(boundary_trace(u, SQUARE, EDGE_POINT, edge_schedule(), spec))


def test_a_point_near_a_corner_moves_onto_both_faces():
    assert boundary_point(SQUARE, (1.0 - 1e-11, 1.0 + 1e-11)) == (1.0, 1.0)
    assert boundary_point(SQUARE, (0.5, 1e-10)) == (0.5, 0.0)


def test_trace_matches_point_value_on_smooth_fixture_suite():
    points = [(0.0, 0.25), (1.0, 0.75), (0.5, 0.0), (0.5, 1.0)]
    u = lambda p: np.cos(p[:, 0]) * np.exp(p[:, 1])
    for i, pt in enumerate(points):
        sched = DeltaSchedule.auto(PointFeature(pt), SQUARE)
        r = boundary_trace(u, SQUARE, pt, sched, SampleSpec(n=60_000, seed=40 + i))
        expected = float(np.cos(pt[0]) * np.exp(pt[1]))
        assert r.limit.mid == pytest.approx(expected, abs=0.02)


def test_trace_at_jump_point_gives_one_sided_mean():
    # informational fixture: interior jump, the mean of the one-sided traces
    omega = interval(0.0, 1.0)
    sched = DeltaSchedule(0.25, 10)
    u = lambda p: (p[:, 0] > 0.5).astype(float)
    r = sharp_integral(u, PointFeature((0.5,)), omega, sched, SampleSpec(n=50_000, seed=37))
    assert r.limit.mid == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------- gradients

def test_gradient_of_abs_at_kink():
    rep = density_gradient(LINE, (0.0,), line_schedule(), SampleSpec(n=50_000, seed=33),
                           grad=lambda p: np.sign(p))
    iv = rep.box.intervals[0]
    assert iv.lo == pytest.approx(-1.0, abs=0.05)
    assert iv.hi == pytest.approx(1.0, abs=0.05)


def test_gradient_finite_difference_matches_analytic():
    analytic = density_gradient(LINE, (0.0,), line_schedule(), SampleSpec(n=50_000, seed=34),
                                grad=lambda p: np.sign(p))
    fd = density_gradient(LINE, (0.0,), line_schedule(), SampleSpec(n=50_000, seed=34),
                          field=ScalarField(f=lambda p: np.abs(p[:, 0])))
    for a, b in zip(analytic.box.intervals, fd.box.intervals):
        assert a.lo == pytest.approx(b.lo, abs=0.05)
        assert a.hi == pytest.approx(b.hi, abs=0.05)


def test_gradient_collapses_at_smooth_point():
    rep = density_gradient(LINE, (0.0,), line_schedule(), SampleSpec(n=50_000, seed=35),
                           field=ScalarField(f=lambda p: p[:, 0] ** 2, grad=lambda p: 2 * p))
    assert rep.box.intervals[0].width <= 0.05


def test_an_analytic_gradient_replaces_the_field():
    # the report reads gradients only: with `grad` given, the field's differences are never formed
    spec, grad = SampleSpec(n=20_000, seed=36), lambda p: np.sign(p)
    both = density_gradient(LINE, (0.0,), line_schedule(), spec, field=ScalarField(f=lambda p: p[:, 0] ** 2),
                            grad=grad)
    assert repr(both) == repr(density_gradient(LINE, (0.0,), line_schedule(), spec, grad=grad))


def test_gradient_away_from_kink():
    omega = interval(-0.25, 1.25)
    sched = DeltaSchedule.auto(PointFeature((0.5,)), omega)
    rep = density_gradient(omega, (0.5,), sched, SampleSpec(n=50_000, seed=36),
                           grad=lambda p: np.sign(p))
    iv = rep.box.intervals[0]
    assert iv.lo == pytest.approx(1.0, abs=0.05) and iv.hi == pytest.approx(1.0, abs=0.05)


def test_gradient_respects_lipschitz_bound():
    rep = density_gradient(LINE, (0.0,), line_schedule(), SampleSpec(n=50_000, seed=37),
                           grad=lambda p: np.sign(p))
    assert rep.box.within_bound(1.0, slack=0.05)


def test_gradient_in_two_dimensions():
    disk = Ball((0.0, 0.0), 1.0)
    sched = DeltaSchedule.auto(PointFeature((0.0, 0.0)), disk)
    # f(x, y) = |x| + y: gradient = (sign(x), 1) a.e.
    grad = lambda p: np.column_stack([np.sign(p[:, 0]), np.ones(len(p))])
    rep = density_gradient(disk, (0.0, 0.0), sched, SampleSpec(n=60_000, seed=38), grad=grad)
    gx, gy = rep.box.intervals
    assert gx.lo == pytest.approx(-1.0, abs=0.05) and gx.hi == pytest.approx(1.0, abs=0.05)
    assert gy.lo == pytest.approx(1.0, abs=0.05) and gy.hi == pytest.approx(1.0, abs=0.05)


# ----------------------------------------------------------- calculus rules

def test_sum_rule_with_cancellation():
    f1 = ScalarField(f=lambda p: np.abs(p[:, 0]), grad=lambda p: np.sign(p))
    f2 = ScalarField(f=lambda p: -np.abs(p[:, 0]), grad=lambda p: -np.sign(p))
    rep = calculus_rule_check("sum", f1, f2, (0.0,), LINE, line_schedule(),
                              SampleSpec(n=50_000, seed=39))
    assert rep.contained
    lhs = rep.lhs.intervals[0]
    assert abs(lhs.lo) <= 0.05 and abs(lhs.hi) <= 0.05
    rhs = rep.rhs.intervals[0]
    assert rhs.lo == pytest.approx(-2.0, abs=0.1) and rhs.hi == pytest.approx(2.0, abs=0.1)


def test_sum_rule_equality_for_smooth_fields():
    f1 = ScalarField(f=lambda p: p[:, 0] ** 2, grad=lambda p: 2 * p)
    f2 = ScalarField(f=lambda p: 3 * p[:, 0], grad=lambda p: np.full_like(p, 3.0))
    rep = calculus_rule_check("sum", f1, f2, (0.0,), LINE, line_schedule(),
                              SampleSpec(n=50_000, seed=40))
    assert rep.contained
    lhs, rhs = rep.lhs.intervals[0], rep.rhs.intervals[0]
    assert lhs.mid == pytest.approx(rhs.mid, abs=2 * rep.tol)


def test_product_rule_at_kink():
    fx = ScalarField(f=lambda p: p[:, 0], grad=lambda p: np.ones_like(p))
    fabs = ScalarField(f=lambda p: np.abs(p[:, 0]), grad=lambda p: np.sign(p))
    rep = calculus_rule_check("product", fx, fabs, (0.0,), LINE, line_schedule(),
                              SampleSpec(n=50_000, seed=41))
    assert rep.contained


def test_rule_name_validated():
    f = ScalarField(f=lambda p: p[:, 0], grad=lambda p: np.ones_like(p))
    with pytest.raises(ValueError):
        calculus_rule_check("chain", f, f, (0.0,), LINE, line_schedule(), SampleSpec(n=100, seed=0))


def test_gradient_box_containment_helper():
    from puremeasure.density_engine import Interval

    small = GradientBox((Interval(-0.5, 0.5),))
    big = GradientBox((Interval(-1.0, 1.0),))
    assert small.contained_in(big)
    assert not big.contained_in(small)
    assert big.within_bound(1.0)


def test_gradient_empty_neighbourhood_vanishing_reference():
    with pytest.raises(VanishingReference):
        density_gradient(SQUARE, (1.5, 1.5), DeltaSchedule(0.6, 3), SampleSpec(n=1000, seed=0),
                         grad=lambda p: np.ones_like(p))


def test_rule_check_boxes_equal_separate_gradients():
    spec = SampleSpec(n=20_000, seed=42)
    s = line_schedule()
    fabs = ScalarField(f=lambda p: np.abs(p[:, 0]))  # finite differences
    fcos = ScalarField(f=lambda p: np.cos(p[:, 0]), grad=lambda p: -np.sin(p))
    box_abs = density_gradient(LINE, (0.0,), s, spec, field=fabs).box
    box_cos = density_gradient(LINE, (0.0,), s, spec, field=fcos).box

    rep = calculus_rule_check("sum", fabs, fcos, (0.0,), LINE, s, spec)
    a, b = box_abs.intervals[0], box_cos.intervals[0]
    assert rep.rhs == GradientBox((Interval(a.lo + b.lo, a.hi + b.hi, rep.tol),))

    fx = ScalarField(f=lambda p: p[:, 0], grad=lambda p: np.ones_like(p))
    fsign = ScalarField(f=lambda p: np.abs(p[:, 0]), grad=lambda p: np.sign(p))
    rep = calculus_rule_check("product", fx, fsign, (0.0,), LINE, s, spec)
    product = lambda p: p[:, [0]] * np.sign(p) + np.abs(p[:, 0])[:, None] * np.ones_like(p)
    assert rep.lhs == density_gradient(LINE, (0.0,), s, spec, grad=product).box


@pytest.mark.parametrize("rule", ["sum", "product"])
def test_rule_check_evaluates_each_gradient_once_per_sample(rule):
    calls = {"f1": [], "f2": []}

    def counted(name, grad):
        def g(p):
            calls[name].append(len(p))
            return grad(p)

        return g

    f1 = ScalarField(f=lambda p: np.cos(p[:, 0]), grad=counted("f1", lambda p: -np.sin(p)))
    f2 = ScalarField(f=lambda p: p[:, 0] ** 2, grad=counted("f2", lambda p: 2.0 * p))
    calculus_rule_check(rule, f1, f2, (0.0,), LINE, DeltaSchedule(0.5, 4), SampleSpec(n=2000, seed=44))
    assert calls == {"f1": [992] * 8, "f2": [992] * 8}  # 4 levels x 2 half-leaves, every sample a hit


def test_gradients_take_one_pass_per_level(reference_weight_calls):
    # every level samples the ball around the origin, whose reference weight
    # runs once per half-leaf
    ball3 = Ball((0.0, 0.0, 0.0), 1.0)
    kink = ScalarField(f=lambda p: np.abs(p[:, 0]) + p[:, 1] * p[:, 2])
    s = DeltaSchedule(0.5, 3)
    density_gradient(ball3, (0.0, 0.0, 0.0), s, SampleSpec(n=2000, seed=43), field=kink)
    assert reference_weight_calls == [992] * 6  # 3 levels x 2 half-leaves for all 3 coordinates
    reference_weight_calls.clear()
    calculus_rule_check("sum", kink, kink, (0.0, 0.0, 0.0), ball3, s, SampleSpec(n=2000, seed=43))
    assert reference_weight_calls == [992] * 6  # and for all 3 fields


# ------------------------------------------------------- central differences

def _reference_difference(fn, pts, axis, h):
    """(fn(pts + step) - fn(pts - step)) / 2h with step = h e_axis, formed as whole shifted blocks."""
    step = np.zeros(pts.shape[1])
    step[axis] = h
    with np.errstate(all="ignore"):
        return (np.asarray(fn(pts + step), dtype=float) - np.asarray(fn(pts - step), dtype=float)) / (2 * h)


DELTA = 0.625
H = DELTA * FD_RATIO  # the difference step that ScalarField takes at the scale DELTA


def _difference_points():
    """3-D points with -0.0 and +0.0 coordinates, and coordinates that a step of H moves onto 0."""
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (257, 3))
    pts[:40, 0] = -0.0
    pts[40:80, 1] = -0.0
    pts[80:100, 2] = 0.0
    pts[100:120] = -0.0
    pts[120:140, 0] = H
    pts[140:160, 1] = -H
    return pts


def _strided(pts):
    """The points as a view with a stride in both axes."""
    block = np.full((2 * len(pts), 2 * pts.shape[1]), np.nan)
    block[::2, ::2] = pts
    return block[::2, ::2]


LAYOUTS = {"c": np.ascontiguousarray, "fortran": np.asfortranarray, "strided": _strided}
FIELDS = {
    "inverse": lambda p: 1.0 / p[:, 0],  # reads the sign of a zero: 1/-0.0 is -inf
    "view": lambda p: p[:, 0],  # a view of the points it is handed
    "mixed": lambda p: np.abs(p[:, 0]) + p[:, 1] * np.sin(p[:, 2]),
}


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
@pytest.mark.parametrize("layout", LAYOUTS, ids=list(LAYOUTS))
def test_difference_gradients_equal_whole_shifted_blocks_bit_for_bit(layout, field):
    pts = LAYOUTS[layout](_difference_points())
    fn = FIELDS[field]
    grad = ScalarField(f=fn).gradient_at_scale(DELTA)(pts)
    expected = np.column_stack([_reference_difference(fn, pts, i, H) for i in range(3)])
    assert _same_bits(grad, expected)
    assert grad.flags.f_contiguous
    if field == "inverse":  # x1 = -0.0 reads +0.0 ahead and -0.0 behind: inf - (-inf)
        assert np.isposinf(grad[:40, 1]).all()


@pytest.mark.parametrize("layout", LAYOUTS, ids=list(LAYOUTS))
def test_central_differences_of_a_vector_field_equal_whole_shifted_blocks(layout):
    pts = LAYOUTS[layout](_difference_points())
    for fn in (lambda p: p, lambda p: 1.0 / p):  # the points themselves, and a field that reads zero signs
        along = central_differences(fn, pts, H)
        for axis in range(3):
            assert _same_bits(along(axis), _reference_difference(fn, pts, axis, H))
    assert _same_bits(pts, LAYOUTS[layout](_difference_points()))  # the points are left as they were


@pytest.mark.parametrize("rule", ["sum", "product"])
def test_rule_blocks_have_contiguous_columns(rule):
    pts = _strided(_difference_points())
    f1 = ScalarField(f=FIELDS["mixed"])
    f2 = ScalarField(f=lambda p: p[:, 0] * p[:, 1], grad=lambda p: np.column_stack([p[:, 1], p[:, 0], 0.0 * p[:, 2]]))
    block = _rule_block(rule, f1, f2, DELTA)(pts)
    a, b = f1.gradient_at_scale(DELTA)(pts), f2.grad(pts)
    side = a + b if rule == "sum" else f1.f(pts)[:, None] * b + f2.f(pts)[:, None] * a
    assert block.flags.f_contiguous
    assert _same_bits(block, np.hstack([a, b, side]))
