"""Regions and feature sets in R^n via signed distance fields, with CSG.

Signed distances follow the convention negative inside, positive outside.
Primitives carry exact 1-Lipschitz distances; min/max CSG composites only
carry a conservative pseudo-distance (|pseudo| <= true distance to the
boundary) but their membership tests are exact boolean combinations, and
membership is what drives all quadrature.

Kernels work one coordinate column at a time. `Box` membership compares the
bounds directly instead of going through the sdf, and row norms add squares
column by column instead of reducing along an axis of a few coordinates;
both give bit-identical results to the sdf test and `np.linalg.norm`.

Points are passed around as float arrays of shape (N, dim); a single point
is promoted automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .json_numbers import is_finite_number, is_integer

Bbox = tuple[np.ndarray, np.ndarray]


class DimensionMismatch(ValueError):
    pass


class NonpositiveDelta(ValueError):
    pass


def as_points(x, dim: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatch(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to np.linalg.norm(v, axis=1).

    numpy adds fewer than 8 terms in order, so below 8 columns a
    column-by-column sum of squares rounds the same way; from 8 columns on
    numpy sums pairwise and is used as is.
    """
    if not 0 < v.shape[1] < 8:
        return np.linalg.norm(v, axis=1)
    total = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        total += v[:, k] * v[:, k]
    return np.sqrt(total)


def make_bbox(lo, hi) -> Bbox:
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def unbounded_bbox(dim: int) -> Bbox:
    return make_bbox([-np.inf] * dim, [np.inf] * dim)


def bbox_is_finite(bbox: Bbox) -> bool:
    return bool(np.all(np.isfinite(bbox[0])) and np.all(np.isfinite(bbox[1])))


def bbox_volume(bbox: Bbox) -> float:
    side = bbox[1] - bbox[0]
    if np.any(side <= 0):
        return 0.0
    return float(np.prod(side))


def bbox_diagonal(bbox: Bbox) -> float:
    return float(np.linalg.norm(np.maximum(bbox[1] - bbox[0], 0.0)))


def bbox_intersect(a: Bbox, b: Bbox) -> Bbox:
    return np.maximum(a[0], b[0]), np.minimum(a[1], b[1])


def bbox_inflate(bbox: Bbox, r: float) -> Bbox:
    return bbox[0] - r, bbox[1] + r


# ------------------------------------------------------------------ regions

class Region:
    """Subset of R^n with a signed distance field and an exact membership test."""

    dim: int
    exact: bool  # whether sdf is an exact distance (primitives) or a pseudo-distance
    bbox: Bbox

    def sdf(self, pts) -> np.ndarray:
        raise NotImplementedError

    def contains(self, pts) -> np.ndarray:
        return self.sdf(pts) < 0.0


@dataclass(frozen=True)
class Ball(Region):
    center: tuple[float, ...]
    radius: float
    exact = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def bbox(self) -> Bbox:
        c = np.asarray(self.center)
        return make_bbox(c - self.radius, c + self.radius)

    def sdf(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        return _row_norm(pts - np.asarray(self.center)) - self.radius


@dataclass(frozen=True)
class Box(Region):
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    exact = True

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch("lo/hi length mismatch")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent in every coordinate")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def bbox(self) -> Bbox:
        return make_bbox(self.lo, self.hi)

    def sdf(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        q = np.maximum(np.asarray(self.lo) - pts, pts - np.asarray(self.hi))
        outside = _row_norm(np.maximum(q, 0.0))
        q_max = q[:, 0]
        for k in range(1, self.dim):
            q_max = np.maximum(q_max, q[:, k])
        return outside + np.minimum(q_max, 0.0)

    def contains(self, pts) -> np.ndarray:
        # sdf < 0 iff every lo_k - x_k and x_k - hi_k is negative, i.e. iff
        # lo_k < x_k < hi_k; NaN and infinite rows are outside either way.
        pts = as_points(pts, self.dim)
        inside = np.ones(len(pts), dtype=bool)
        for k, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            x = pts[:, k]
            inside &= lo < x
            inside &= x < hi
        return inside


@dataclass(frozen=True)
class Halfspace(Region):
    """{x : normal . x <= offset}, inside where the form is negative."""

    normal: tuple[float, ...]
    offset: float
    exact = True

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        with np.errstate(over="ignore"):  # sdf divides by the norm: (1e308, 1e308) overflows, (1e-200, 0) reads 0
            if not 0 < np.linalg.norm(n) < np.inf:
                raise ValueError("normal must be a vector of finite nonzero norm")
        object.__setattr__(self, "normal", tuple(float(v) for v in n))

    @property
    def dim(self) -> int:
        return len(self.normal)

    @property
    def bbox(self) -> Bbox:
        return unbounded_bbox(self.dim)

    def sdf(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        n = np.asarray(self.normal)
        return (pts @ n - self.offset) / np.linalg.norm(n)


@dataclass(frozen=True)
class Cusp(Region):
    """{0 < x1 < 1, max_j |x_j| < x1**p} for j >= 2: a power cusp with tip at 0.

    The membership test is exact; the pseudo-distance divides the graph gap
    by sqrt(1 + p^2) (a bound on the graph slope on [0, 1]) so it stays a
    lower bound on the true distance.
    """

    p: float
    dim: int = 2
    exact = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("cusp exponent must be >= 1")
        if not math.nextafter(1.0, 0.0) ** self.p > 0:  # x1^p is 0 for every float x1 < 1
            raise ValueError("cusp exponent leaves the region empty: x1^p underflows to 0 for every x1 < 1")
        if self.dim < 2:
            raise DimensionMismatch("cusp needs dimension >= 2")

    @property
    def bbox(self) -> Bbox:
        lo = [0.0] + [-1.0] * (self.dim - 1)
        hi = [1.0] * self.dim
        return make_bbox(lo, hi)

    def _profiles(self, pts):
        x1 = pts[:, 0]
        rest = np.abs(pts[:, 1:]).max(axis=1)
        return x1, rest

    def contains(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        x1, rest = self._profiles(pts)
        with np.errstate(invalid="ignore"):
            graph = np.where(x1 > 0, np.power(np.maximum(x1, 0.0), self.p), 0.0)
        return (x1 > 0) & (x1 < 1) & (rest < graph)

    def sdf(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        x1, rest = self._profiles(pts)
        with np.errstate(over="ignore"):  # beyond x1 = 1 the graph may overflow, and x1 - 1 bounds the distance
            graph = np.power(np.maximum(x1, 0.0), self.p)
        slope = np.hypot(1.0, self.p)
        return np.maximum.reduce([-x1, x1 - 1.0, (rest - graph) / slope])


@dataclass(frozen=True)
class Cone(Region):
    """Open cone {y != apex : angle(y - apex, axis) < alpha}."""

    apex: tuple[float, ...]
    axis: tuple[float, ...]
    alpha: float
    exact = True

    def __post_init__(self):
        v = np.asarray(self.axis, dtype=float)
        with np.errstate(over="ignore"):  # an axis like (1e308, 1e308) overflows to inf
            norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:
            raise ValueError("axis must be a finite nonzero vector")
        object.__setattr__(self, "axis", tuple(v / norm))
        object.__setattr__(self, "apex", tuple(float(c) for c in self.apex))
        if not 0 < self.alpha < np.pi / 2:
            raise ValueError("aperture must lie in (0, pi/2)")
        if len(self.apex) != len(self.axis):
            raise DimensionMismatch("apex/axis length mismatch")

    @property
    def dim(self) -> int:
        return len(self.apex)

    @property
    def bbox(self) -> Bbox:
        return unbounded_bbox(self.dim)

    def _angles(self, pts):
        r = pts - np.asarray(self.apex)
        dist = _row_norm(r)
        along = r @ np.asarray(self.axis)
        with np.errstate(invalid="ignore"):
            cosang = np.divide(along, dist, out=np.ones_like(dist), where=dist > 0)
        return dist, np.arccos(np.clip(cosang, -1.0, 1.0))

    def contains(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        dist, theta = self._angles(pts)
        return (dist > 0) & (theta < self.alpha)

    def sdf(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        dist, theta = self._angles(pts)
        gap = np.minimum(theta - self.alpha, np.pi / 2)
        return dist * np.sin(gap)


class _Composite(Region):
    exact = False


@dataclass(frozen=True)
class Union(_Composite):
    parts: tuple[Region, ...]

    def __post_init__(self):
        _check_dims(self.parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @property
    def bbox(self) -> Bbox:
        los = np.stack([p.bbox[0] for p in self.parts])
        his = np.stack([p.bbox[1] for p in self.parts])
        return los.min(axis=0), his.max(axis=0)

    def sdf(self, pts) -> np.ndarray:
        return np.minimum.reduce([p.sdf(pts) for p in self.parts])

    def contains(self, pts) -> np.ndarray:
        return np.logical_or.reduce([p.contains(pts) for p in self.parts])


@dataclass(frozen=True)
class Intersection(_Composite):
    parts: tuple[Region, ...]

    def __post_init__(self):
        _check_dims(self.parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @property
    def bbox(self) -> Bbox:
        los = np.stack([p.bbox[0] for p in self.parts])
        his = np.stack([p.bbox[1] for p in self.parts])
        return los.max(axis=0), his.min(axis=0)

    def sdf(self, pts) -> np.ndarray:
        return np.maximum.reduce([p.sdf(pts) for p in self.parts])

    def contains(self, pts) -> np.ndarray:
        return np.logical_and.reduce([p.contains(pts) for p in self.parts])


@dataclass(frozen=True)
class Difference(_Composite):
    left: Region
    right: Region

    def __post_init__(self):
        _check_dims((self.left, self.right))

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def bbox(self) -> Bbox:
        return self.left.bbox

    def sdf(self, pts) -> np.ndarray:
        return np.maximum(self.left.sdf(pts), -self.right.sdf(pts))

    def contains(self, pts) -> np.ndarray:
        return self.left.contains(pts) & ~self.right.contains(pts)


@dataclass(frozen=True)
class Complement(Region):
    part: Region

    @property
    def exact(self) -> bool:  # type: ignore[override]
        return self.part.exact

    @property
    def dim(self) -> int:
        return self.part.dim

    @property
    def bbox(self) -> Bbox:
        return unbounded_bbox(self.dim)

    def sdf(self, pts) -> np.ndarray:
        return -self.part.sdf(pts)

    def contains(self, pts) -> np.ndarray:
        return ~self.part.contains(pts)


def _check_dims(parts: Sequence[Region]) -> None:
    if not parts:
        raise ValueError("need at least one operand")
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")


def signed_distance(target, x) -> float:
    """Distance of a single point: signed for regions, nonnegative for features.

    Exact for primitives; a conservative magnitude bound for CSG composites.
    """
    pts = as_points(x, target.dim)
    if isinstance(target, Feature):
        return float(target.distance(pts)[0])
    return float(target.sdf(pts)[0])


# ----------------------------------------------------------------- features

class Feature:
    """Closed set with a nonnegative distance function, zero exactly on it."""

    dim: int
    bbox: Bbox

    def distance(self, pts) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PointFeature(Feature):
    point: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))

    @property
    def dim(self) -> int:
        return len(self.point)

    @property
    def bbox(self) -> Bbox:
        p = np.asarray(self.point)
        return make_bbox(p, p)

    def distance(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        return _row_norm(pts - np.asarray(self.point))


@dataclass(frozen=True)
class SegmentFeature(Feature):
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        object.__setattr__(self, "b", tuple(float(c) for c in self.b))
        if len(self.a) != len(self.b):
            raise DimensionMismatch("segment endpoints must share a dimension")

    @property
    def dim(self) -> int:
        return len(self.a)

    @property
    def bbox(self) -> Bbox:
        a, b = np.asarray(self.a), np.asarray(self.b)
        return np.minimum(a, b), np.maximum(a, b)

    def distance(self, pts) -> np.ndarray:
        pts = as_points(pts, self.dim)
        a, b = np.asarray(self.a), np.asarray(self.b)
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0:
            return _row_norm(pts - a)
        t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
        gap = np.empty(pts.shape)  # pts - (a + t ab), column by column, C-ordered as numpy would form it
        for k in range(self.dim):
            np.subtract(pts[:, k], a[k] + t * ab[k], out=gap[:, k])
        return _row_norm(gap)


@dataclass(frozen=True)
class RegionBoundary(Feature):
    """Boundary of a region with an exact signed distance; d = |sdf|."""

    region: Region

    def __post_init__(self):
        if not self.region.exact:
            raise ValueError("boundary features need a region with an exact signed distance")

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def bbox(self) -> Bbox:
        return self.region.bbox

    def distance(self, pts) -> np.ndarray:
        return np.abs(self.region.sdf(pts))


@dataclass(frozen=True)
class RegionFeature(Feature):
    """A region with an exact signed distance used as a feature set; d = max(sdf, 0).

    A pseudo-distance only bounds the distance from below, so its
    delta-neighbourhood would be larger than F_delta.
    """

    region: Region

    def __post_init__(self):
        if not self.region.exact:
            raise ValueError("region features need a region with an exact signed distance")

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def bbox(self) -> Bbox:
        return self.region.bbox

    def distance(self, pts) -> np.ndarray:
        return np.maximum(self.region.sdf(pts), 0.0)


@dataclass(frozen=True)
class Neighborhood(Region):
    """Open delta-neighborhood {d_F < delta} of a feature.

    Membership is exact whenever the feature distance is exact; the sdf
    d_F - delta is exact outside and a conservative bound inside.
    """

    feature: Feature
    delta: float
    exact = False

    def __post_init__(self):
        if self.delta <= 0:
            raise NonpositiveDelta("delta must be positive")

    @property
    def dim(self) -> int:
        return self.feature.dim

    @property
    def bbox(self) -> Bbox:
        return bbox_inflate(self.feature.bbox, self.delta)

    def sdf(self, pts) -> np.ndarray:
        return self.feature.distance(pts) - self.delta

    def contains(self, pts) -> np.ndarray:
        return self.feature.distance(pts) < self.delta


# ------------------------------------------------------------- JSON grammar

def _number(value, name: str) -> float:
    if is_finite_number(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _vector(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(v, name) for v in value)


def region_from_json(obj) -> Region:
    """Parse the region grammar; see the named constructors for the keys.

    Coordinates are lists of finite JSON numbers, `r`, `offset` and `p`
    finite JSON numbers and a cusp's `dim` an integer, or an integral float such as 3.0.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"region spec must be a single-key object, got {obj!r}")
    (key, body), = obj.items()
    if key == "ball":
        return Ball(_vector(body["c"], "c"), _number(body["r"], "r"))
    if key == "box":
        return Box(_vector(body["lo"], "lo"), _vector(body["hi"], "hi"))
    if key == "halfspace":
        return Halfspace(_vector(body["normal"], "normal"), _number(body["offset"], "offset"))
    if key == "cusp":
        dim = body.get("dim", 2)
        if not is_integer(dim):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        return Cusp(_number(body["p"], "p"), int(dim))
    if key == "union":
        return Union(tuple(region_from_json(p) for p in body))
    if key == "intersection":
        return Intersection(tuple(region_from_json(p) for p in body))
    if key == "difference":
        left, right = body
        return Difference(region_from_json(left), region_from_json(right))
    if key == "complement":
        return Complement(region_from_json(body))
    raise ValueError(f"unknown region kind {key!r}")


def feature_from_json(obj) -> Feature:
    """Parse a feature: point, segment, boundary_of, or any region used as a set."""
    if isinstance(obj, dict) and len(obj) == 1:
        (key, body), = obj.items()
        if key == "point":
            return PointFeature(_vector(body["c"], "c"))
        if key == "segment":
            return SegmentFeature(_vector(body["a"], "a"), _vector(body["b"], "b"))
        if key == "boundary_of":
            return RegionBoundary(region_from_json(body))
    return RegionFeature(region_from_json(obj))


def interval(lo: float, hi: float) -> Box:
    """One-dimensional open interval as a region."""
    return Box((lo,), (hi,))
