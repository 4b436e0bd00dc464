import os
import subprocess
import sys

import numpy as np
import pytest

import puremeasure

from puremeasure.density_engine import CONVERGED, DeltaSchedule
from puremeasure.geometry import Ball, Box, Cusp, RegionBoundary
from puremeasure.quadrature import SampleSpec
from puremeasure.surface_rep import (
    MAX_GAUSS_NODES,
    MAX_SURFACE_NODES,
    PARAMETRIC_TOL,
    UnsupportedFixture,
    _boundary_quadrature,
    collar_average,
    gauss_check,
    surface_fixture,
    surface_flux,
    surface_reference,
)

CIRCLE = surface_fixture(Ball((0.0, 0.0), 1.0))
SQUARE = surface_fixture(Box((0.0, 0.0), (1.0, 1.0)))
SPHERE = surface_fixture(Ball((0.0, 0.0, 0.0), 1.0))
CUBE = surface_fixture(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))


# --------------------------------------------------------- surface reference

def test_reference_on_unit_circle():
    assert surface_reference(lambda p: p[:, 0] ** 2, CIRCLE) == pytest.approx(0.5, abs=PARAMETRIC_TOL)
    assert surface_reference(lambda p: p[:, 0] ** 4, CIRCLE) == pytest.approx(3 / 8, abs=PARAMETRIC_TOL)
    assert surface_reference(lambda p: np.full(len(p), 1.0), CIRCLE) == pytest.approx(1.0, abs=1e-12)
    assert surface_reference(lambda p: p[:, 0], CIRCLE) == pytest.approx(0.0, abs=PARAMETRIC_TOL)


def test_reference_on_square_and_sphere():
    assert surface_reference(lambda p: p[:, 0], SQUARE) == pytest.approx(0.5, abs=PARAMETRIC_TOL)
    sphere = surface_fixture(Ball((0.0, 0.0, 0.0), 1.0), nodes=512)
    assert surface_reference(lambda p: p[:, 2] ** 2, sphere) == pytest.approx(1 / 3, abs=1e-5)
    box3 = surface_fixture(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), nodes=64)
    assert surface_reference(lambda p: np.ones(len(p)), box3) == pytest.approx(1.0, abs=1e-12)


E = np.e


@pytest.mark.parametrize("fixture, fn, exact", [
    (SPHERE, lambda p: np.exp(p[:, 0]), np.sinh(1.0)),
    (SPHERE, lambda p: p[:, 0] ** 2, 1 / 3),
    (SPHERE, lambda p: p[:, 2] ** 10, 1 / 11),
    (surface_fixture(Ball((0.5, -1.0, 2.0), 2.0)), lambda p: (p[:, 0] - 0.5) ** 2, 4 / 3),
    (CUBE, lambda p: np.exp(p[:, 0]), (1 + E + 4 * (E - 1)) / 6),
    (CIRCLE, lambda p: p[:, 0] ** 6, 5 / 16),
    (SQUARE, lambda p: p[:, 0] ** 2, 5 / 12),
    (SQUARE, lambda p: p[:, 0] ** 3 * p[:, 1], 3 / 16),
], ids=["sphere-exp", "sphere-x2", "sphere-z10", "sphere-offset", "cube-exp", "circle-x6", "square-x2", "square-x3y"])
def test_references_exact_at_default_nodes(fixture, fn, exact):
    assert abs(surface_reference(fn, fixture) - exact) <= 1e-12


def test_non_smooth_reference_converges_algebraically():
    # |x1| has a kink on the sphere's great circle x1 = 0: Gauss-Legendre in
    # z is no longer exact, but refining the rule still converges
    errors = [abs(surface_reference(lambda p: np.abs(p[:, 0]), surface_fixture(SPHERE.region, n)) - 0.5)
              for n in (16, 64, 256)]
    assert errors[0] > errors[1] > errors[2] > 0
    assert errors[1] <= 1e-3


@pytest.mark.parametrize("region, count, measure", [
    (Ball((0.0, 0.0), 1.0), lambda n: n, 2 * np.pi),
    (Box((0.0, 0.0), (1.0, 2.0)), lambda n: 4 * n, 6.0),
    (Ball((0.0, 0.0, 0.0), 1.0), lambda n: 2 * n * n, 4 * np.pi),
    (Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)), lambda n: 6 * n * n, 22.0),
], ids=["circle", "rectangle", "sphere", "box"])
@pytest.mark.parametrize("n", [8, 13, 64])
def test_node_counts_and_surface_measure(region, count, measure, n):
    fixture = surface_fixture(region, n)
    pts, weights, normals = _boundary_quadrature(fixture)
    assert len(pts) == len(weights) == len(normals) == count(n) == fixture.node_count
    assert weights.sum() == pytest.approx(measure, rel=1e-13)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


def test_circle_rule_is_the_periodic_trapezoid():
    c, r, n = np.array([0.3, -1.2]), 2.5, 300  # not a power of 2, so a reordered formula rounds differently
    pts, weights, normals = _boundary_quadrature(surface_fixture(Ball(tuple(c), r), n))
    theta = 2 * np.pi * np.arange(n) / n
    expected = np.column_stack([np.cos(theta), np.sin(theta)])
    assert np.array_equal(normals, expected)
    assert np.array_equal(pts, c + r * expected)
    assert np.array_equal(weights, np.full(n, 2 * np.pi * r / n))


def test_node_budget():
    # at the bound exactly: accepted (nothing is built until a reference is asked for)
    assert surface_fixture(SPHERE.region, 1024).node_count == MAX_SURFACE_NODES
    assert surface_fixture(CIRCLE.region, MAX_SURFACE_NODES).node_count == MAX_SURFACE_NODES
    for region, n in ((SPHERE.region, 1025), (CUBE.region, 592), (SQUARE.region, MAX_SURFACE_NODES // 4 + 1)):
        with pytest.raises(ValueError, match="above the bound"):
            surface_fixture(region, n)


def test_gauss_legendre_nodes_per_axis_are_bounded():
    # leggauss(n) is a dense n x n eigensolve, so a rectangle far below the
    # total budget (4n nodes) must still stop at MAX_GAUSS_NODES per axis
    assert surface_fixture(SQUARE.region, MAX_GAUSS_NODES).node_count == 4 * MAX_GAUSS_NODES
    for region in (SQUARE.region, Box((-1.0, 2.0), (0.5, 3.0))):
        with pytest.raises(ValueError, match="Gauss-Legendre nodes per axis"):
            surface_fixture(region, MAX_GAUSS_NODES + 1)
    # the circle's periodic trapezoid is O(n) and only the total budget applies
    assert surface_fixture(CIRCLE.region, 4 * MAX_GAUSS_NODES).nodes == 4 * MAX_GAUSS_NODES


def test_gauss_legendre_is_imported_lazily():
    # checks what puremeasure itself imports: numpy 1.x loads numpy.polynomial
    # on `import numpy`, and there the check says nothing about this package.
    # concurrent.futures (~8 ms) waits for the first profile, out of set-up time.
    # `import puremeasure` loads no submodule; puremeasure.cli loads every one.
    src = os.path.dirname(os.path.dirname(puremeasure.__file__))
    loaded = "import sys, numpy{}; sys.exit({!r} in sys.modules)"
    run = lambda code: subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    ).returncode
    checked = [m for m in ("numpy.polynomial", "concurrent.futures") if not run(loaded.format("", m))]
    if not checked:
        pytest.skip("this numpy imports both modules on `import numpy`")
    for module in checked:
        assert run(loaded.format(", puremeasure.cli", module)) == 0, module


def test_unsupported_fixtures_rejected():
    with pytest.raises(UnsupportedFixture):
        surface_fixture(Cusp(2.0))
    with pytest.raises(UnsupportedFixture):
        surface_fixture(Ball((0.0,), 1.0))


# -------------------------------------------------------------------- fluxes

def test_flux_identities():
    assert surface_flux(lambda p: p, CIRCLE) == pytest.approx(2 * np.pi, abs=1e-9)
    const = lambda p: np.column_stack([np.full(len(p), 0.7), np.full(len(p), -0.3)])
    assert surface_flux(const, CIRCLE) == pytest.approx(0.0, abs=1e-12)
    x2_field = lambda p: np.column_stack([p[:, 0] ** 2, np.zeros(len(p))])
    assert surface_flux(x2_field, SQUARE) == pytest.approx(1.0, abs=1e-9)


def test_flux_through_box_matches_divergence_theorem():
    (a0, a1, a2), (b0, b1, b2) = (-0.5, 0.0, 0.2), (1.0, 1.5, 0.9)
    box = surface_fixture(Box((a0, a1, a2), (b0, b1, b2)))
    phi = lambda p: np.column_stack([np.sin(p[:, 0]) * p[:, 1], np.exp(p[:, 1]), p[:, 2] ** 3 * p[:, 0]])
    # volume integral of div(phi) = cos(x) y + exp(y) + 3 z^2 x
    l0, l1, l2 = b0 - a0, b1 - a1, b2 - a2
    volume = ((np.sin(b0) - np.sin(a0)) * (b1 ** 2 - a1 ** 2) / 2 * l2
              + l0 * (np.exp(b1) - np.exp(a1)) * l2
              + (b0 ** 2 - a0 ** 2) / 2 * (b2 ** 3 - a2 ** 3) * l1)
    assert abs(surface_flux(phi, box) - volume) <= 1e-12


def test_flux_through_sphere_matches_divergence_theorem():
    # phi = (x^3, 0, 0): div = 3 x^2, whose integral over the unit ball is 4 pi / 5
    phi = lambda p: np.column_stack([p[:, 0] ** 3, np.zeros(len(p)), np.zeros(len(p))])
    assert abs(surface_flux(phi, SPHERE) - 4 * np.pi / 5) <= 1e-12


# --------------------------------------------------------------- gauss check

def test_gauss_identity_on_disk():
    rep = gauss_check(lambda p: p, CIRCLE, SampleSpec(n=2_000_000, seed=50),
                      div=lambda p: np.full(len(p), 2.0))
    assert rep.flux == pytest.approx(2 * np.pi, abs=1e-9)
    assert rep.residual <= 3 * (rep.volume_integral.stderr + PARAMETRIC_TOL)


def test_gauss_identity_on_square_with_fd_divergence():
    phi = lambda p: np.column_stack([p[:, 0] ** 2, np.zeros(len(p))])
    rep = gauss_check(phi, SQUARE, SampleSpec(n=500_000, seed=51))
    assert rep.flux == pytest.approx(1.0, abs=1e-9)
    assert rep.residual <= 3 * (rep.volume_integral.stderr + PARAMETRIC_TOL) + 1e-6


def test_gauss_constant_field_closed_surface():
    const = lambda p: np.column_stack([np.full(len(p), 0.7), np.full(len(p), -0.3)])
    rep = gauss_check(const, CIRCLE, SampleSpec(n=100_000, seed=52))
    assert rep.flux == pytest.approx(0.0, abs=1e-12)
    assert rep.residual <= 1e-9


def test_gauss_on_sphere():
    sphere = surface_fixture(Ball((0.0, 0.0, 0.0), 1.0), nodes=256)
    rep = gauss_check(lambda p: p, sphere, SampleSpec(n=500_000, seed=56),
                      div=lambda p: np.full(len(p), 3.0))
    assert rep.flux == pytest.approx(4 * np.pi, abs=1e-3)
    assert rep.residual <= 3 * rep.volume_integral.stderr + 2e-3


# ------------------------------------------------------------ collar average

COLLAR_SCHED = DeltaSchedule(0.64, 8)


def test_collar_average_of_x_squared():
    r = collar_average(lambda p: p[:, 0] ** 2, CIRCLE, COLLAR_SCHED,
                       SampleSpec(n=1_000_000, seed=53), tol=0.05)
    assert r.verdict == CONVERGED
    reference = surface_reference(lambda p: p[:, 0] ** 2, CIRCLE)
    worst_se = max(l.stderr for l in r.series[-3:])
    assert abs(r.limit.mid - reference) <= max(0.02, 3 * worst_se)


def test_collar_average_constant_and_odd():
    r = collar_average(lambda p: np.full(len(p), 1.7), CIRCLE, COLLAR_SCHED,
                       SampleSpec(n=200_000, seed=54))
    assert r.verdict == CONVERGED
    assert r.limit.mid == pytest.approx(1.7, abs=1e-9)
    odd = collar_average(lambda p: p[:, 0], CIRCLE, COLLAR_SCHED,
                         SampleSpec(n=200_000, seed=55))
    assert odd.limit.mid == pytest.approx(0.0, abs=1e-9)


def test_collar_volumes_shrink():
    # the collars form a shrinking sequence for the boundary feature
    from puremeasure.density_engine import aura_report

    rep = aura_report(RegionBoundary(CIRCLE.region), CIRCLE.region, COLLAR_SCHED,
                      SampleSpec(n=200_000, seed=57))
    assert rep.decreasing
    assert rep.levels[-1].volume < rep.levels[0].volume / 10
