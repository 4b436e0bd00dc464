"""Property tests: CSG membership is the boolean combination of its parts' membership."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from puremeasure.geometry import Ball, Box, Complement, Cone, Difference, Halfspace, Intersection, Union  # noqa: E402

DIM = 2
coord = st.floats(-2.0, 2.0, allow_nan=False)
point = st.tuples(*[coord] * DIM)


@st.composite
def boxes(draw):
    lo = draw(point)
    sides = draw(st.tuples(*[st.floats(0.01, 3.0)] * DIM))
    return Box(lo, tuple(a + s for a, s in zip(lo, sides)))


balls = st.builds(Ball, point, st.floats(0.01, 2.0))
halfspaces = st.builds(
    Halfspace,
    point.filter(lambda n: any(abs(c) > 1e-3 for c in n)),
    st.floats(-1.0, 1.0),
)
cones = st.builds(
    Cone,
    point,
    point.filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.floats(0.05, 1.5),
)
primitives = st.one_of(boxes(), balls, halfspaces, cones)


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(Union),
        pair.map(Intersection),
        pair.map(lambda p: Difference(*p)),
        children.map(Complement),
    )


regions = st.recursive(primitives, _extend, max_leaves=6)
samples = st.lists(point, min_size=1, max_size=40).map(lambda pts: np.array(pts, dtype=float))


def _expected(region, pts):
    """Membership recomputed from the primitives by boolean algebra."""
    if isinstance(region, Union):
        return np.logical_or.reduce([_expected(p, pts) for p in region.parts])
    if isinstance(region, Intersection):
        return np.logical_and.reduce([_expected(p, pts) for p in region.parts])
    if isinstance(region, Difference):
        return _expected(region.left, pts) & ~_expected(region.right, pts)
    if isinstance(region, Complement):
        return ~_expected(region.part, pts)
    return region.contains(pts)


@settings(max_examples=100, deadline=None)
@given(st.tuples(primitives, primitives), samples)
def test_binary_operations_combine_their_parts(parts, pts):
    a, b = parts
    in_a, in_b = a.contains(pts), b.contains(pts)
    assert np.array_equal(Union((a, b)).contains(pts), in_a | in_b)
    assert np.array_equal(Intersection((a, b)).contains(pts), in_a & in_b)
    assert np.array_equal(Difference(a, b).contains(pts), in_a & ~in_b)
    assert np.array_equal(Complement(a).contains(pts), ~in_a)
    # identities between the operations
    assert np.array_equal(Complement(Union((a, b))).contains(pts),
                          Intersection((Complement(a), Complement(b))).contains(pts))
    assert np.array_equal(Difference(a, b).contains(pts), Intersection((a, Complement(b))).contains(pts))


@settings(max_examples=100, deadline=None)
@given(regions, samples)
def test_nested_composites_match_boolean_algebra(region, pts):
    assert np.array_equal(region.contains(pts), _expected(region, pts))


@settings(max_examples=100, deadline=None)
@given(st.lists(primitives, min_size=1, max_size=5), samples)
def test_n_ary_union_and_intersection(parts, pts):
    members = [p.contains(pts) for p in parts]
    assert np.array_equal(Union(tuple(parts)).contains(pts), np.logical_or.reduce(members))
    assert np.array_equal(Intersection(tuple(parts)).contains(pts), np.logical_and.reduce(members))
