import numpy as np
import pytest

from puremeasure.geometry import (
    Ball,
    Box,
    Complement,
    Cone,
    Cusp,
    Difference,
    DimensionMismatch,
    Halfspace,
    Intersection,
    Neighborhood,
    NonpositiveDelta,
    PointFeature,
    RegionBoundary,
    RegionFeature,
    SegmentFeature,
    Union,
    as_points,
    bbox_volume,
    feature_from_json,
    interval,
    region_from_json,
    signed_distance,
)


def test_signed_distance_examples():
    ball = Ball((0.0, 0.0), 1.0)
    assert signed_distance(ball, (2.0, 0.0)) == pytest.approx(1.0)
    assert signed_distance(ball, (0.5, 0.0)) == pytest.approx(-0.5)
    origin = PointFeature((0.0, 0.0))
    assert signed_distance(origin, (3.0, 4.0)) == pytest.approx(5.0)


def test_dimension_checks():
    ball = Ball((0.0, 0.0), 1.0)
    with pytest.raises(DimensionMismatch):
        signed_distance(ball, (1.0, 2.0, 3.0))
    with pytest.raises(DimensionMismatch):
        Union((ball, Ball((0.0,), 1.0)))


def _probe_points(dim, lo, hi, seed):
    """Random points plus points exactly on the faces and corners of [lo, hi]
    and rows holding +inf, -inf and NaN."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(4000, dim))
    on_grid = rng.integers(0, 3, size=(400, dim))
    pts[:400] = np.choose(on_grid, [np.asarray(lo), np.asarray(hi), pts[:400]])
    special = np.zeros((6, dim))
    special[0], special[1], special[2] = np.inf, -np.inf, np.nan
    special[3, 0], special[4, -1], special[5, 0] = np.inf, -np.inf, np.nan
    return np.vstack([pts, special])


@pytest.mark.parametrize("dim", range(1, 9))
def test_membership_sdf_consistency_on_primitives(dim):
    lo, hi = (-1.0,) + (0.0,) * (dim - 1), (0.5,) + (2.0,) * (dim - 1)
    regions = [
        Ball((0.3,) + (-0.2,) * (dim - 1), 0.8),
        Box(lo, hi),
        Halfspace(tuple(float(k + 1) for k in range(dim)), 0.5),
        Cone((0.0,) * dim, (1.0,) + (0.0,) * (dim - 1), 0.7),
    ]
    pts = _probe_points(dim, lo, hi, seed=5 + dim)
    for region in regions:
        with np.errstate(invalid="ignore"):
            inside = region.contains(pts)
            d = region.sdf(pts)
        assert np.array_equal(inside, d < 0)


def _norm_rows(v):
    return np.linalg.norm(v, axis=1)


@pytest.mark.parametrize("dim", range(1, 10))
def test_distances_equal_reference_formulas(dim):
    """The column-wise kernels give exactly the np.linalg.norm formulas."""
    lo, hi = (-0.5,) * dim, (1.0,) * (dim - 1) + (1.5,)
    pts = _probe_points(dim, lo, hi, seed=20 + dim)
    for p in (pts, np.asfortranarray(pts), pts[::3]):
        c = np.linspace(-0.3, 0.4, dim)
        ball = Ball(tuple(c), 0.9)
        assert np.array_equal(ball.sdf(p), _norm_rows(p - c) - 0.9, equal_nan=True)
        assert np.array_equal(PointFeature(tuple(c)).distance(p), _norm_rows(p - c), equal_nan=True)

        box = Box(lo, hi)
        q = np.maximum(np.asarray(lo) - p, p - np.asarray(hi))
        box_ref = _norm_rows(np.maximum(q, 0.0)) + np.minimum(q.max(axis=1), 0.0)
        assert np.array_equal(box.sdf(p), box_ref, equal_nan=True)
        assert np.array_equal(box.contains(p), box.sdf(p) < 0)

        a, b = np.zeros(dim), np.linspace(1.0, 0.5, dim)
        with np.errstate(invalid="ignore"):
            t = np.clip((p - a) @ (b - a) / float((b - a) @ (b - a)), 0.0, 1.0)
            seg = SegmentFeature(tuple(a), tuple(b)).distance(p)
        assert np.array_equal(seg, _norm_rows(p - (a + t[:, None] * (b - a))), equal_nan=True)
        point_seg = SegmentFeature(tuple(c), tuple(c)).distance(p)
        assert np.array_equal(point_seg, _norm_rows(p - c), equal_nan=True)

        cone = Cone(tuple(c), tuple(np.linspace(1.0, 0.2, dim)), 0.6)
        axis = np.asarray(cone.axis)
        r = p - c
        dist = _norm_rows(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.where(dist > 0, r @ axis / np.where(dist > 0, dist, 1.0), 1.0)
            theta = np.arccos(np.clip(cosang, -1.0, 1.0))
            cone_ref = dist * np.sin(np.minimum(theta - 0.6, np.pi / 2))
            assert np.array_equal(cone.sdf(p), cone_ref, equal_nan=True)
            assert np.array_equal(cone.contains(p), (dist > 0) & (theta < 0.6))


def test_primitive_sdf_is_1_lipschitz():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, size=(500, 2))
    qts = pts + rng.normal(scale=0.3, size=pts.shape)
    for region in [Ball((0.1, 0.2), 0.9), Box((-1, -1), (1, 0.5)), Halfspace((0.0, 1.0), 0.2)]:
        gap = np.abs(region.sdf(pts) - region.sdf(qts))
        step = np.linalg.norm(pts - qts, axis=1)
        assert np.all(gap <= step + 1e-12)


def test_csg_membership_examples():
    carved = Difference(Box((0.0, 0.0), (1.0, 1.0)), Ball((0.0, 0.0), 0.5))
    assert carved.contains([(0.9, 0.9)])[0]
    assert not carved.contains([(0.1, 0.1)])[0]
    ball = Ball((0.0, 0.0), 1.0)
    doubled = Union((ball, ball))
    pts = np.random.default_rng(0).uniform(-2, 2, size=(500, 2))
    assert np.array_equal(doubled.contains(pts), ball.contains(pts))
    outside = Complement(ball)
    assert outside.contains([(2.0, 0.0)])[0]


def _boundary_cloud(region, n=400):
    """Dense cloud of near-boundary points found by sign changes on a grid."""
    lo, hi = region.bbox
    xs = np.linspace(lo[0] - 0.2, hi[0] + 0.2, n)
    ys = np.linspace(lo[1] - 0.2, hi[1] + 0.2, n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = region.contains(pts).reshape(n, n)
    flip = np.zeros_like(inside)
    flip[:-1, :] |= inside[:-1, :] != inside[1:, :]
    flip[:, :-1] |= inside[:, :-1] != inside[:, 1:]
    h = float(max(xs[1] - xs[0], ys[1] - ys[0]))
    return pts[flip.ravel()], h


@pytest.mark.parametrize(
    "region",
    [
        Difference(Box((0.0, 0.0), (1.0, 1.0)), Ball((0.0, 0.0), 0.5)),
        Union((Ball((-0.4, 0.0), 0.5), Ball((0.4, 0.0), 0.5))),
        Cusp(2.0),
    ],
)
def test_pseudo_sdf_is_conservative(region):
    cloud, h = _boundary_cloud(region)
    rng = np.random.default_rng(9)
    lo, hi = region.bbox
    pts = rng.uniform(lo - 0.1, hi + 0.1, size=(300, 2))
    pseudo = np.abs(region.sdf(pts))
    for p, mag in zip(pts, pseudo):
        true = np.min(np.linalg.norm(cloud - p, axis=1))
        assert mag <= true + 2 * h


def test_neighborhood_examples():
    f = PointFeature((0.0,))
    nb = Neighborhood(f, 0.3)
    assert nb.contains([(0.2,)])[0]
    assert not nb.contains([(0.4,)])[0]
    shell = RegionBoundary(Ball((0.0, 0.0), 1.0))
    collar = Neighborhood(shell, 0.1)
    assert collar.contains([(1.05, 0.0)])[0]
    assert not collar.contains([(0.5, 0.0)])[0]


def test_neighborhood_monotone_in_delta():
    f = SegmentFeature((0.0, 0.0), (1.0, 0.0))
    small = Neighborhood(f, 0.1)
    big = Neighborhood(f, 0.3)
    pts = np.random.default_rng(2).uniform(-1, 2, size=(2000, 2))
    inside_small = small.contains(pts)
    inside_big = big.contains(pts)
    assert np.all(~inside_small | inside_big)


def test_neighborhood_rejects_nonpositive_delta():
    with pytest.raises(NonpositiveDelta):
        Neighborhood(PointFeature((0.0,)), 0.0)


def test_cusp_membership():
    cusp = Cusp(2.0)
    assert cusp.contains([(0.5, 0.2)])[0]
    assert not cusp.contains([(0.5, 0.3)])[0]
    assert not cusp.contains([(-0.1, 0.0)])[0]
    assert not cusp.contains([(0.5, -0.26)])[0]


def test_cone_geometry():
    cone = Cone((0.0, 0.0), (1.0, 0.0), np.pi / 4)
    assert cone.contains([(1.0, 0.5)])[0]
    assert not cone.contains([(1.0, 1.5)])[0]
    assert not cone.contains([(-1.0, 0.0)])[0]
    assert not cone.contains([(0.0, 0.0)])[0]  # apex excluded
    # on-axis point: inside at full depth
    assert signed_distance(cone, (2.0, 0.0)) == pytest.approx(-2.0 * np.sin(np.pi / 4))


def test_segment_distance():
    seg = SegmentFeature((0.0, 0.0), (1.0, 0.0))
    d = seg.distance([(0.5, 0.4), (2.0, 0.0), (-1.0, 0.0)])
    assert d == pytest.approx([0.4, 1.0, 1.0])


def test_region_json_grammar():
    spec = {
        "difference": [
            {"box": {"lo": [0, 0], "hi": [1, 1]}},
            {"ball": {"c": [0, 0], "r": 0.5}},
        ]
    }
    region = region_from_json(spec)
    assert region.contains([(0.9, 0.9)])[0]
    assert not region.contains([(0.1, 0.1)])[0]

    for spec in [
        {"halfspace": {"normal": [1, 0], "offset": 0.0}},
        {"cusp": {"p": 2}},
        {"union": [{"ball": {"c": [0, 0], "r": 1}}, {"box": {"lo": [0, 0], "hi": [2, 2]}}]},
        {"intersection": [{"ball": {"c": [0, 0], "r": 1}}, {"box": {"lo": [0, 0], "hi": [2, 2]}}]},
        {"complement": {"ball": {"c": [0, 0], "r": 1}}},
    ]:
        region_from_json(spec)

    with pytest.raises(ValueError):
        region_from_json({"pyramid": {}})

    # coordinates are lists of finite JSON numbers, r, offset and p finite numbers, dim an integer
    nan, inf = float("nan"), float("inf")
    for bad in [
        {"box": {"lo": "0", "hi": [True]}},
        {"box": {"lo": [0], "hi": [True]}},
        {"ball": {"c": [0, nan], "r": 1}},
        {"ball": {"c": [0, 0], "r": "1"}},
        {"halfspace": {"normal": [1, inf], "offset": 0}},
        {"halfspace": {"normal": [1, 0], "offset": True}},
        {"cusp": {"p": "2"}},
        {"cusp": {"p": 2, "dim": 2.9}},
        {"cusp": {"p": 2, "dim": "3"}},
    ]:
        with pytest.raises((ValueError, TypeError)):
            region_from_json(bad)
    for bad in [{"point": {"c": "0"}}, {"point": {"c": [nan]}}, {"segment": {"a": [0, 0], "b": [inf, 0]}}]:
        with pytest.raises((ValueError, TypeError)):
            feature_from_json(bad)


def test_feature_json_grammar():
    assert isinstance(feature_from_json({"point": {"c": [0, 0]}}), PointFeature)
    assert isinstance(feature_from_json({"segment": {"a": [0, 0], "b": [1, 0]}}), SegmentFeature)
    boundary = feature_from_json({"boundary_of": {"ball": {"c": [0, 0], "r": 1}}})
    assert isinstance(boundary, RegionBoundary)
    as_set = feature_from_json({"ball": {"c": [0, 0], "r": 1}})
    assert as_set.distance([(3.0, 0.0)])[0] == pytest.approx(2.0)
    assert as_set.distance([(0.5, 0.0)])[0] == 0.0


def test_region_features_need_an_exact_distance():
    # max(sdf, 0) of the quadrant x, y <= 0 is 0.09 at (0.09, 0.09), which is 0.127 away
    quadrant = Intersection((Halfspace((1.0, 0.0), 0.0), Halfspace((0.0, 1.0), 0.0)))
    for region in (quadrant, Union((Ball((0.0, 0.0), 1.0),)), Cusp(2.0), Complement(quadrant)):
        with pytest.raises(ValueError, match="exact signed distance"):
            RegionFeature(region)
    with pytest.raises(ValueError, match="exact signed distance"):
        feature_from_json({"intersection": [{"halfspace": {"normal": [1, 0], "offset": 0}},
                                            {"halfspace": {"normal": [0, 1], "offset": 0}}]})
    outside = Complement(Ball((0.0, 0.0), 1.0))
    for region in (Ball((0.0, 0.0), 1.0), Box((0.0, 0.0), (1.0, 1.0)), Halfspace((1.0, 0.0), 0.0),
                   Cone((0.0, 0.0), (1.0, 0.0), 0.5), outside):
        assert RegionFeature(region).region == region
    assert RegionFeature(outside).distance([(0.25, 0.0)])[0] == pytest.approx(0.75)


def test_interval_helper_and_bbox_volume():
    omega = interval(-1.0, 1.0)
    assert omega.contains([(0.0,)])[0]
    assert not omega.contains([(1.5,)])[0]
    assert bbox_volume(omega.bbox) == pytest.approx(2.0)


def test_as_points_promotes_single_point():
    pts = as_points((1.0, 2.0), 2)
    assert pts.shape == (1, 2)
