"""Constructive surface representations: collar averages and flux identities.

Averages over a shrinking inner collar of a smooth boundary converge to the
surface average, which is computable independently by parametric quadrature
on fixtures with an analytic boundary (balls and boxes in the plane and in
space).  The same machinery verifies the divergence identity: the volume
integral of div(phi) against the parametric boundary flux.

`nodes` counts quadrature nodes per parametric axis.  A circle uses the
periodic trapezoid rule (n nodes); a sphere uses n Gauss-Legendre nodes in
z = cos(theta) times 2n equispaced azimuths, which is exact for spherical
harmonics of degree <= 2n - 1; box faces use a tensor Gauss-Legendre rule
(4n nodes for a rectangle, 6n^2 for a box).  Gauss-Legendre rules are
bounded at MAX_GAUSS_NODES per axis and every rule at MAX_SURFACE_NODES in
total.  Smooth integrands are exact to rounding at the default; integrands
that are not smooth on the boundary (such as |x1| on the sphere) converge
only algebraically in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density_engine import DEFAULT_TOL, DeltaSchedule, ProbeResult, sharp_integral
from .geometry import Ball, Box, Region, RegionBoundary, bbox_diagonal
from .quadrature import Estimate, SampleSpec, mc_integral

PARAMETRIC_TOL = 1e-6  # quadrature error bound for smooth integrands at default nodes
DEFAULT_NODES = 64  # nodes per parametric axis
MAX_SURFACE_NODES = 1 << 21  # total boundary nodes (~120 MB of nodes, normals and weights in 3-D)
MAX_GAUSS_NODES = 1024  # per axis: leggauss(n) solves a dense n x n eigenproblem, O(n^2) memory, O(n^3) time
FD_STEP = 1e-5  # divergence difference step, relative to the region's bbox diagonal (at least 1)


class UnsupportedFixture(ValueError):
    """Only balls and boxes in dimension 2 or 3 have parametric boundaries."""


@dataclass(frozen=True)
class SurfaceFixture:
    region: Region
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if not isinstance(self.region, (Ball, Box)):
            raise UnsupportedFixture("fixture region must be a ball or a box")
        if self.region.dim not in (2, 3):
            raise UnsupportedFixture("fixture must live in dimension 2 or 3")
        if self.nodes < 8:
            raise ValueError("need at least 8 parametric nodes")
        if not self.is_circle and self.nodes > MAX_GAUSS_NODES:  # the circle's trapezoid is O(n)
            raise ValueError(
                f"{self.nodes} Gauss-Legendre nodes per axis are above the bound of {MAX_GAUSS_NODES}"
            )
        if self.node_count > MAX_SURFACE_NODES:
            raise ValueError(
                f"{self.nodes} nodes per axis give {self.node_count} boundary nodes, "
                f"above the bound of {MAX_SURFACE_NODES}"
            )

    @property
    def is_circle(self) -> bool:
        return isinstance(self.region, Ball) and self.region.dim == 2

    @property
    def node_count(self) -> int:
        """Total boundary nodes: n (circle), 2n^2 (sphere), 4n (rectangle), 6n^2 (box)."""
        n, dim = self.nodes, self.region.dim
        per_face = n ** (dim - 1)
        return (dim - 1) * per_face if isinstance(self.region, Ball) else 2 * dim * per_face


def surface_fixture(region: Region, nodes: int = DEFAULT_NODES) -> SurfaceFixture:
    return SurfaceFixture(region, nodes)


def _boundary_quadrature(fixture: SurfaceFixture):
    """Nodes, weights (summing to the surface measure) and outer normals."""
    region, n = fixture.region, fixture.nodes
    if fixture.is_circle:
        c = np.asarray(region.center)
        r = region.radius
        theta = 2 * np.pi * np.arange(n) / n
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = c + r * normals
        weights = np.full(n, 2 * np.pi * r / n)
        return pts, weights, normals
    # Imported here: `import numpy` does not load numpy.polynomial, which costs ~6 ms.
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    if isinstance(region, Ball):
        # sphere: Gauss-Legendre in z = cos(theta), periodic trapezoid in the azimuth
        phi = np.pi * np.arange(2 * n) / n
        s = np.sqrt(1.0 - x * x)
        normals = np.column_stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(x, 2 * n),
        ])
        pts = np.asarray(region.center) + region.radius * normals
        weights = np.repeat(w * (np.pi / n) * region.radius ** 2, 2 * n)
        return pts, weights, normals
    # boxes: a tensor Gauss-Legendre rule on each face
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    dim = region.dim
    pts_list, w_list, nu_list = [], [], []
    for axis in range(dim):
        others = [k for k in range(dim) if k != axis]
        grids = np.meshgrid(*(mid[k] + half[k] * x for k in others), indexing="ij")
        face_w = np.prod(np.meshgrid(*(half[k] * w for k in others), indexing="ij"), axis=0).ravel()
        for side, coord in ((-1.0, lo[axis]), (1.0, hi[axis])):
            face_pts = np.empty((face_w.size, dim))
            face_pts[:, axis] = coord
            for k, grid in zip(others, grids):
                face_pts[:, k] = grid.ravel()
            nu = np.zeros_like(face_pts)
            nu[:, axis] = side
            pts_list.append(face_pts)
            w_list.append(face_w)
            nu_list.append(nu)
    return np.vstack(pts_list), np.concatenate(w_list), np.vstack(nu_list)


def surface_reference(fn: Callable, fixture: SurfaceFixture) -> float:
    """Surface average of fn over the fixture boundary by parametric quadrature.

    Numerator and denominator use the same weights, so constants are exact
    and the error for smooth integrands is below PARAMETRIC_TOL at default
    node counts.
    """
    pts, weights, _ = _boundary_quadrature(fixture)
    values = np.asarray(fn(pts), dtype=float)
    return float(np.sum(weights * values) / np.sum(weights))


def surface_flux(phi: Callable, fixture: SurfaceFixture) -> float:
    """Total outward flux of the vector field phi through the fixture boundary."""
    pts, weights, normals = _boundary_quadrature(fixture)
    field = np.asarray(phi(pts), dtype=float)
    return float(np.sum(weights * np.sum(field * normals, axis=1)))


def collar_average(
    fn: Callable,
    fixture: SurfaceFixture,
    schedule: DeltaSchedule,
    spec: SampleSpec,
    tol: float = DEFAULT_TOL,
) -> ProbeResult:
    """Means of fn over the shrinking inner collar of the fixture boundary.

    For continuous fn the converged limit approximates the surface average;
    only the inner collar (inside the region) is ever used.
    """
    boundary = RegionBoundary(fixture.region)
    return sharp_integral(fn, boundary, fixture.region, schedule, spec, tol=tol)


@dataclass(frozen=True)
class GaussReport:
    volume_integral: Estimate
    flux: float
    residual: float


def gauss_check(
    phi: Callable,
    fixture: SurfaceFixture,
    spec: SampleSpec,
    div: Callable | None = None,
) -> GaussReport:
    """Compare the volume integral of div(phi) with the boundary flux of phi.

    The divergence may be supplied analytically; otherwise central
    differences with the step FD_STEP, relative to the region size, are used.
    """
    if div is None:
        # Imported here, its only use in this module: a surface run loads no trace_gradient.
        from .trace_gradient import central_differences

        h = FD_STEP * max(bbox_diagonal(fixture.region.bbox), 1.0)

        def div(pts):
            along = central_differences(phi, pts, h)
            return sum(along(i)[:, i] for i in range(pts.shape[1]))

    lhs = mc_integral(div, fixture.region, spec)
    rhs = surface_flux(phi, fixture)
    return GaussReport(lhs, rhs, abs(lhs.value - rhs))
