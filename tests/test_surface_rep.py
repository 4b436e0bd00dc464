import numpy as np
import pytest

from puremeasure.density_engine import CONVERGED, DeltaSchedule
from puremeasure.geometry import Ball, Box, Cusp, RegionBoundary
from puremeasure.quadrature import SampleSpec
from puremeasure.surface_rep import (
    PARAMETRIC_TOL,
    UnsupportedFixture,
    collar_average,
    gauss_check,
    surface_fixture,
    surface_flux,
    surface_reference,
)

CIRCLE = surface_fixture(Ball((0.0, 0.0), 1.0))
SQUARE = surface_fixture(Box((0.0, 0.0), (1.0, 1.0)))


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

COLLAR_SCHED = DeltaSchedule(0.64, 0.5, 8)


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
