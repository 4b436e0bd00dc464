"""Boundary traces and set-valued gradients built on density probes.

The trace of a function at a boundary point is the limit of its means over
shrinking half-balls inside the domain.  The set-valued gradient of a
Lipschitz function collects, coordinate by coordinate, the essential range
of the (almost everywhere defined) gradient near the point; at points of
differentiability every coordinate interval collapses to the classical
partial derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .density_engine import (
    DEFAULT_TOL,
    ActionProfile,
    DeltaSchedule,
    Interval,
    ProbeResult,
    _action_profiles,
    _faces,
    sharp_integral,
)
from .geometry import Box, PointFeature, Region, as_points
from .quadrature import SampleSpec

BOUNDARY_TOL = 1e-9
FD_RATIO = 0.1  # finite-difference step as a fraction of the current delta


class NotOnBoundary(ValueError):
    """The probe point is too far from the domain boundary."""


def central_differences(fn: Callable, pts: np.ndarray, h: float) -> Callable[[int], np.ndarray]:
    """(fn(x + h e_i) - fn(x - h e_i)) / 2h at every row x of pts, as a function of the axis i.

    It evaluates fn on two Fortran-ordered copies of pts, pts + 0.0 and
    pts - 0.0, of which column i alone is moved by +h and -h and then
    restored, so fn reads contiguous columns and no block is formed per
    axis.  The copies hold pts + step and pts - step bit for bit, for step
    = h e_i: x + 0.0 turns a -0.0 coordinate into +0.0, and x - 0.0 keeps
    it.  fn may return a view of its points, since the difference is taken
    before the column is restored, but must not write to them.
    """
    pts = np.asarray(pts, dtype=float)
    ahead, behind = np.add(pts, 0.0, order="F"), np.subtract(pts, 0.0, order="F")

    def along(i: int) -> np.ndarray:
        x = pts[:, i]
        np.add(x, h, out=ahead[:, i])
        np.subtract(x, h, out=behind[:, i])
        with np.errstate(all="ignore"):
            diff = (np.asarray(fn(ahead), dtype=float) - np.asarray(fn(behind), dtype=float)) / (2 * h)
        np.add(x, 0.0, out=ahead[:, i])
        np.subtract(x, 0.0, out=behind[:, i])
        return diff

    return along


@dataclass(frozen=True)
class ScalarField:
    """Scalar field with an optional analytic gradient field.

    Without an analytic gradient, gradients are formed by central differences
    whose step is tied to the probing scale (h = delta * FD_RATIO), so the
    difference quotient resolves structure at the scale being examined.
    """

    f: Callable | None = None
    grad: Callable | None = None

    def __post_init__(self):
        if self.f is None and self.grad is None:
            raise ValueError("need a function or a gradient field")

    def value_at(self, point: Sequence[float]) -> float:
        if self.f is None:
            raise ValueError("no function values available")
        pts = as_points(point, len(tuple(point)))
        return float(np.asarray(self.f(pts), dtype=float)[0])

    def gradient_at_scale(self, delta: float) -> Callable:
        """The gradient field at the probing scale delta; a difference block is Fortran-ordered (N, n)."""
        if self.grad is not None:
            return self.grad
        h = delta * FD_RATIO

        def g(pts):
            along = central_differences(self.f, pts, h)
            out = np.empty(np.shape(pts), order="F")
            for i in range(out.shape[1]):
                out[:, i] = along(i)
            return out

        return g


@dataclass(frozen=True)
class GradientBox:
    """Per-coordinate intervals bounding the set-valued gradient."""

    intervals: tuple[Interval, ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contained_in(self, other: "GradientBox", slack: float = 0.0) -> bool:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return all(
            o.lo - slack <= s.lo and s.hi <= o.hi + slack
            for s, o in zip(self.intervals, other.intervals)
        )

    def within_bound(self, bound: float, slack: float = 0.0) -> bool:
        return all(
            -bound - slack <= iv.lo and iv.hi <= bound + slack for iv in self.intervals
        )


@dataclass(frozen=True)
class GradientReport:
    point: tuple[float, ...]
    box: GradientBox
    profiles: tuple[ActionProfile, ...]


def boundary_trace(
    u: Callable,
    omega: Region,
    point: Sequence[float],
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Trace of u at a boundary point: means over shrinking half-balls in Omega.

    For trace-admissible u the converged limit is the boundary value; at jump
    points the mean of the one-sided values is obtained.
    """
    return sharp_integral(u, PointFeature(boundary_point(omega, point)), omega, schedule, spec, tol=tol)


def boundary_point(omega: Region, point: Sequence[float]) -> tuple[float, ...]:
    """The point as a tuple, or NotOnBoundary when it lies more than BOUNDARY_TOL from the boundary of Omega.

    On an axis box Omega each coordinate within BOUNDARY_TOL of a face is
    moved onto it, so the trace samples the ball folded onto Omega's side
    of that face, as it does at a point given exactly on the face.
    """
    pts = as_points(point, omega.dim)
    gap = float(np.abs(omega.sdf(pts))[0])
    if gap > BOUNDARY_TOL:
        raise NotOnBoundary(f"point is {gap:g} away from the boundary (tol {BOUNDARY_TOL:g})")
    if not isinstance(omega, Box):
        return tuple(pts[0])
    snapped = pts[0].tolist()
    for k, inward in _faces(snapped, omega, BOUNDARY_TOL):
        snapped[k] = omega.lo[k] if inward > 0 else omega.hi[k]
    return tuple(snapped)


def density_gradient(
    omega: Region,
    point: Sequence[float],
    schedule: DeltaSchedule,
    spec: SampleSpec,
    field: ScalarField | None = None,
    grad: Callable | None = None,
    tol: float = DEFAULT_TOL,
) -> GradientReport:
    """Set-valued gradient at a point: per-coordinate action intervals.

    `grad` is an analytic gradient field (points -> (N, n) array); otherwise
    `field` supplies function values differentiated at the probing scale.
    The gradient block is one range column per coordinate (a `Range` of
    width n), so all coordinates come from one pass per level and one
    gradient evaluation per sample.
    """
    if grad is not None:  # the report reads gradients only, so an analytic one replaces the field
        field = ScalarField(grad=grad)
    elif field is None:
        raise ValueError("need a gradient field or a scalar field")
    x = tuple(as_points(point, omega.dim)[0])
    profiles = _action_profiles(field.gradient_at_scale, omega.dim, PointFeature(x), omega, schedule, spec, tol)
    return GradientReport(x, _box(profiles), profiles)


def _box(profiles: Sequence[ActionProfile]) -> GradientBox:
    return GradientBox(tuple(p.interval for p in profiles))


def _interval_sum(a: Interval, b: Interval, tol: float) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi, tol)


def _interval_scale(c: float, iv: Interval, tol: float) -> Interval:
    lo, hi = sorted((c * iv.lo, c * iv.hi))
    return Interval(lo, hi, tol)


def _rule_block(rule: str, f1: ScalarField, f2: ScalarField, delta: float) -> Callable:
    """[grad f1 | grad f2 | the rule's side] at one level, as a Fortran-ordered (N, 3 n) block.

    The side is grad f1 + grad f2 for the sum rule and f1 grad f2 + f2 grad f1
    for the product rule, each written into its own columns.
    """
    g1 = f1.gradient_at_scale(delta)
    g2 = f2.gradient_at_scale(delta)

    def block(pts):
        a = np.asarray(g1(pts), dtype=float)
        b = np.asarray(g2(pts), dtype=float)
        n = a.shape[1]
        out = np.empty((len(a), 3 * n), order="F")
        out[:, :n], out[:, n:2 * n] = a, b
        side = out[:, 2 * n:]
        if rule == "sum":
            np.add(a, b, out=side)
        else:
            np.multiply(np.asarray(f1.f(pts), dtype=float)[:, None], b, out=side)
            side += np.asarray(f2.f(pts), dtype=float)[:, None] * a
        return out

    return block


@dataclass(frozen=True)
class RuleCheckReport:
    rule: str
    lhs: GradientBox
    rhs: GradientBox
    contained: bool
    tol: float


def calculus_rule_check(
    rule: str,
    f1: ScalarField,
    f2: ScalarField,
    point: Sequence[float],
    omega: Region,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> RuleCheckReport:
    """Containment check for the sum or product rule of set-valued gradients.

    sum:     grad(f1 + f2) box  must lie in  box(f1) + box(f2)
    product: grad(f1 * f2) box  must lie in  f1(x) * box(f2) + f2(x) * box(f1)
    widened by tol per coordinate.  The three boxes are the columns of one
    (N, 3 n) block per level (a `Range` of width 3 n, see `_rule_block`),
    from one pass per level with each factor's gradient evaluated once per
    sample, and equal the boxes of separate `density_gradient` calls.
    """
    if rule not in ("sum", "product"):
        raise ValueError(f"unknown rule {rule!r}")
    if rule == "product" and (f1.f is None or f2.f is None):
        raise ValueError("the product rule needs function values for both factors")

    n = omega.dim
    x = tuple(as_points(point, n)[0])
    profiles = _action_profiles(partial(_rule_block, rule, f1, f2), 3 * n, PointFeature(x), omega, schedule, spec, tol)
    box1, box2, lhs = (_box(profiles[k * n:(k + 1) * n]) for k in range(3))
    if rule == "sum":
        rhs = GradientBox(tuple(_interval_sum(a, b, tol) for a, b in zip(box1.intervals, box2.intervals)))
    else:
        c1 = f1.value_at(point)
        c2 = f2.value_at(point)
        rhs = GradientBox(
            tuple(
                _interval_sum(_interval_scale(c1, b, tol), _interval_scale(c2, a, tol), tol)
                for a, b in zip(box1.intervals, box2.intervals)
            )
        )
    return RuleCheckReport(rule, lhs, rhs, lhs.contained_in(rhs, slack=tol), tol)
