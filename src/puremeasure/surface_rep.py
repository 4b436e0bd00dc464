"""Constructive surface representations: collar averages and flux identities.

Averages over a shrinking inner collar of a smooth boundary converge to the
surface average, which is computable independently by dense parametric
quadrature on fixtures with an analytic boundary (balls and boxes in the
plane and in space).  The same machinery verifies the divergence identity:
the volume integral of div(phi) against the parametric boundary flux.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density_engine import DEFAULT_TOL, DeltaSchedule, ProbeResult, sharp_integral
from .geometry import Ball, Box, Region, RegionBoundary, bbox_diagonal
from .quadrature import Estimate, SampleSpec, mc_integral
from .trace_gradient import central_difference

PARAMETRIC_TOL = 1e-6  # quadrature error bound for smooth integrands at default nodes


class UnsupportedFixture(ValueError):
    """Only balls and boxes in dimension 2 or 3 have parametric boundaries."""


@dataclass(frozen=True)
class SurfaceFixture:
    region: Region
    nodes: int = 2048

    def __post_init__(self):
        if not isinstance(self.region, (Ball, Box)):
            raise UnsupportedFixture("fixture region must be a ball or a box")
        if self.region.dim not in (2, 3):
            raise UnsupportedFixture("fixture must live in dimension 2 or 3")
        if self.nodes < 8:
            raise ValueError("need at least 8 parametric nodes")


def surface_fixture(region: Region, nodes: int = 2048) -> SurfaceFixture:
    return SurfaceFixture(region, nodes)


def _boundary_quadrature(fixture: SurfaceFixture):
    """Nodes, weights (summing to the surface measure) and outer normals."""
    region, n = fixture.region, fixture.nodes
    if isinstance(region, Ball):
        c = np.asarray(region.center)
        r = region.radius
        if region.dim == 2:
            theta = 2 * np.pi * np.arange(n) / n
            normals = np.column_stack([np.cos(theta), np.sin(theta)])
            pts = c + r * normals
            weights = np.full(n, 2 * np.pi * r / n)
            return pts, weights, normals
        # sphere: trapezoid in the polar angle, periodic in the azimuth
        n_theta, n_phi = n, 2 * n
        theta = np.pi * np.arange(n_theta + 1) / n_theta
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        w_theta = np.full(n_theta + 1, np.pi / n_theta)
        w_theta[0] *= 0.5
        w_theta[-1] *= 0.5
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        normals = np.column_stack([
            (np.sin(tt) * np.cos(pp)).ravel(),
            (np.sin(tt) * np.sin(pp)).ravel(),
            np.cos(tt).ravel(),
        ])
        pts = c + r * normals
        weights = (w_theta[:, None] * (2 * np.pi / n_phi) * np.sin(tt) * r * r).ravel()
        return pts, weights, normals
    # boxes: per-face trapezoid grids
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    dim = region.dim
    pts_list, w_list, nu_list = [], [], []
    for axis in range(dim):
        for side, coord in ((-1.0, lo[axis]), (1.0, hi[axis])):
            others = [k for k in range(dim) if k != axis]
            grids = []
            weights_1d = []
            for k in others:
                t = np.linspace(lo[k], hi[k], n + 1)
                w = np.full(n + 1, (hi[k] - lo[k]) / n)
                w[0] *= 0.5
                w[-1] *= 0.5
                grids.append(t)
                weights_1d.append(w)
            if dim == 2:
                face_pts = np.empty((n + 1, 2))
                face_pts[:, axis] = coord
                face_pts[:, others[0]] = grids[0]
                face_w = weights_1d[0]
            else:
                a, b = np.meshgrid(grids[0], grids[1], indexing="ij")
                face_pts = np.empty((a.size, 3))
                face_pts[:, axis] = coord
                face_pts[:, others[0]] = a.ravel()
                face_pts[:, others[1]] = b.ravel()
                face_w = (weights_1d[0][:, None] * weights_1d[1][None, :]).ravel()
            nu = np.zeros((len(face_pts), dim))
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
    fd_step: float = 1e-5,
) -> GaussReport:
    """Compare the volume integral of div(phi) with the boundary flux of phi.

    The divergence may be supplied analytically; otherwise central
    differences with a fixed step relative to the region size are used.
    """
    if div is None:
        h = fd_step * max(bbox_diagonal(fixture.region.bbox), 1.0)
        div = lambda pts: sum(central_difference(phi, pts, i, h)[:, i] for i in range(pts.shape[1]))
    lhs = mc_integral(div, fixture.region, spec)
    rhs = surface_flux(phi, fixture)
    return GaussReport(lhs, rhs, abs(lhs.value - rhs))
