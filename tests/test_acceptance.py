"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (failures surface as ordinary assertion errors).
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from puremeasure import cli
from puremeasure.density_engine import (
    CONVERGED,
    DeltaSchedule,
    action_interval,
    cone_density,
    sharp_integral,
    sigma_probe,
)
from puremeasure.fa_lattice import (
    FAMeasure,
    GroundSet,
    SubAlgebra,
    band_decompose,
    evaluate,
    jordan_decompose,
    lattice_meet,
    restrict,
    sigma_additive_part,
    total_variation,
    total_variation_measure,
    tv_partition_oracle,
)
from puremeasure.geometry import Ball, Box, Cusp, PointFeature, interval
from puremeasure.quadrature import SampleSpec
from puremeasure.surface_rep import collar_average, gauss_check, surface_fixture, surface_reference
from puremeasure.trace_gradient import ScalarField, boundary_trace, calculus_rule_check, density_gradient

SEED = 20260808
SAMPLES = 200_000


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE PASS [{elapsed:6.1f}s / {budget_seconds:g}s] {name}")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)"


def measure_family(max_atoms=5, count=200, seed=SEED):
    """The fixed seeded family of rational measures used by the exact criteria."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_atoms + 1))
        ground = GroundSet(tuple(f"a{i}" for i in range(n)))
        labels = rng.integers(0, n, size=n)
        buckets = {}
        for atom, lab in enumerate(labels):
            buckets.setdefault(int(lab), []).append(atom)
        blocks = tuple(sum(1 << a for a in atoms) for atoms in buckets.values())
        values = tuple(
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in blocks
        )
        out.append(FAMeasure(SubAlgebra(ground, blocks), values))
    return out


def test_exact_lattice_suite():
    with criterion("exact lattice suite (<=5 atoms, 200 seeded measures)", 10.0):
        family = measure_family()
        assert len(family) == 200
        for mu in family:
            full = mu.algebra.ground.full
            pos, neg = jordan_decompose(mu)
            assert pos - neg == mu
            assert lattice_meet(pos, neg, full) == 0
            for s in mu.algebra.members():
                assert total_variation(mu, s) == tv_partition_oracle(mu, s)
                assert evaluate(pos, s) + evaluate(neg, s) == total_variation(mu, s)
            for band in list(mu.algebra.members())[:4]:
                inside, outside = band_decompose(mu, band)
                assert inside + outside == mu
                assert lattice_meet(
                    total_variation_measure(inside), total_variation_measure(outside), full
                ) == 0
                # uniqueness: projecting again changes nothing
                again_in, again_out = band_decompose(inside, band)
                assert again_in == inside and again_out.is_zero
        # nested-band consistency, exhaustive on up to 4 atoms
        for mu in [m for m in family if m.algebra.ground.size <= 4][:25]:
            ground = mu.algebra.ground
            for big in ground.all_subsets():
                if not mu.algebra.contains(big):
                    continue
                for small in ground.all_subsets():
                    if not (small.issubset(big) and mu.algebra.contains(small)):
                        continue
                    first, _ = band_decompose(mu, big)
                    assert band_decompose(first, small)[0] == band_decompose(mu, small)[0]
                    assert band_decompose(first, small)[1] == restrict(
                        mu, big.intersection(small.complement())
                    )


def test_yosida_hewitt_triviality_on_finite_algebras():
    with criterion("pure part vanishes on finite algebras", 1.0):
        for mu in measure_family():
            sigma_part, pure = sigma_additive_part(mu)
            assert sigma_part == mu
            assert pure.is_zero


def test_density_at_zero():
    with criterion("density at zero converges to 1/2", 30.0):
        omega = interval(-1.0, 1.0)
        origin = PointFeature((0.0,))
        from puremeasure.density_engine import density_probe

        probe = density_probe(
            interval(0.0, 1.0), origin, omega,
            DeltaSchedule.auto(origin, omega, count=12),
            SampleSpec(n=SAMPLES, seed=SEED),
        )
        assert probe.verdict == CONVERGED
        assert abs(probe.limit.mid - 0.5) <= 0.02


def test_sigma_additivity_violation():
    with criterion("slab family breaks countable additivity", 120.0):
        disk = Ball((0.0, 0.0), 1.0)
        origin = PointFeature((0.0, 0.0))
        members = [Box((1.0 / (k + 2), -1.0), (1.0 / (k + 1), 1.0)) for k in range(1, 9)]
        union = Box((0.0, -1.0), (0.5, 1.0))
        rep = sigma_probe(
            members, union, origin, disk,
            DeltaSchedule.auto(origin, disk, count=12), SampleSpec(n=SAMPLES, seed=SEED),
        )
        for member in rep.members:
            assert abs(member.limit.mid) <= 0.02
        assert abs(rep.union_value - 0.5) <= 0.03
        assert rep.violation


def test_sandwich_and_sharpness():
    with criterion("essential bounds are sharp for sin(1/x)", 60.0):
        omega = interval(0.0, 1.0)
        origin = PointFeature((0.0,))
        schedule = DeltaSchedule.auto(origin, omega, count=12)
        spec = SampleSpec(n=SAMPLES, seed=SEED)
        fn = lambda p: np.sin(1.0 / p[:, 0])
        bounds = action_interval(fn, origin, omega, schedule, spec, tol=0.05)
        assert bounds.lo == pytest.approx(-1.0, abs=0.05)
        assert bounds.hi == pytest.approx(1.0, abs=0.05)
        eps = 0.1
        weight = lambda p: (fn(p) >= 1.0 - eps).astype(float)
        weighted = sharp_integral(fn, origin, omega, schedule, spec, weight=weight)
        assert weighted.limit.mid > 1.0 - 2 * eps


def test_cone_densities():
    with criterion("cone densities: disk sector and cusp directions", 60.0):
        disk = Ball((0.0, 0.0), 1.0)
        origin = PointFeature((0.0, 0.0))
        spec = SampleSpec(n=SAMPLES, seed=SEED)
        sector = cone_density(
            (0.0, 0.0), (1.0, 0.0), np.pi / 4, disk, DeltaSchedule.auto(origin, disk), spec
        )
        assert abs(sector.limit.mid - 0.25) <= 0.02
        cusp = Cusp(2.0)
        cusp_sched = DeltaSchedule.auto(PointFeature((0.0, 0.0)), cusp)
        along = cone_density((0.0, 0.0), (1.0, 0.0), np.pi / 4, cusp, cusp_sched, spec)
        assert along.limit.mid >= 1.0 - 0.02
        against = cone_density((0.0, 0.0), (-1.0, 0.0), np.pi / 4, cusp, cusp_sched, spec)
        assert against.limit.mid <= 0.02


def test_bv_trace_fixtures():
    with criterion("boundary traces on the unit square", 60.0):
        square = Box((0.0, 0.0), (1.0, 1.0))
        point = (0.0, 0.5)
        schedule = DeltaSchedule.auto(PointFeature(point), square)
        spec = SampleSpec(n=SAMPLES, seed=SEED)
        smooth = boundary_trace(lambda p: p[:, 0] + p[:, 1], square, point, schedule, spec)
        assert abs(smooth.limit.mid - 0.5) <= 0.02
        step = boundary_trace(
            lambda p: (p[:, 1] > p[:, 0]).astype(float), square, point, schedule, spec
        )
        assert abs(step.limit.mid - 1.0) <= 0.02


def test_set_valued_gradient():
    with criterion("set-valued gradients and the sum rule", 60.0):
        omega = interval(-1.0, 1.0)
        schedule = DeltaSchedule.auto(PointFeature((0.0,)), omega)
        spec = SampleSpec(n=SAMPLES, seed=SEED)
        kink = density_gradient(omega, (0.0,), schedule, spec, grad=lambda p: np.sign(p))
        iv = kink.box.intervals[0]
        assert iv.lo == pytest.approx(-1.0, abs=0.05)
        assert iv.hi == pytest.approx(1.0, abs=0.05)
        smooth = density_gradient(
            omega, (0.0,), schedule, spec,
            field=ScalarField(f=lambda p: p[:, 0] ** 2, grad=lambda p: 2 * p),
        )
        assert smooth.box.intervals[0].width <= 0.05
        fixtures = [
            (ScalarField(f=lambda p: np.abs(p[:, 0]), grad=lambda p: np.sign(p)),
             ScalarField(f=lambda p: -np.abs(p[:, 0]), grad=lambda p: -np.sign(p))),
            (ScalarField(f=lambda p: p[:, 0] ** 2, grad=lambda p: 2 * p),
             ScalarField(f=lambda p: 3 * p[:, 0], grad=lambda p: np.full_like(p, 3.0))),
            (ScalarField(f=lambda p: np.abs(p[:, 0]), grad=lambda p: np.sign(p)),
             ScalarField(f=lambda p: np.cos(p[:, 0]), grad=lambda p: -np.sin(p))),
        ]
        for f1, f2 in fixtures:
            rep = calculus_rule_check("sum", f1, f2, (0.0,), omega, schedule, spec)
            assert rep.contained


def test_surface_representation():
    with criterion("collar averages and the divergence identity", 60.0):
        circle = surface_fixture(Ball((0.0, 0.0), 1.0))
        collar = collar_average(
            lambda p: p[:, 0] ** 2, circle, DeltaSchedule(0.64, 8),
            SampleSpec(n=1_000_000, seed=SEED), tol=0.05,
        )
        reference = surface_reference(lambda p: p[:, 0] ** 2, circle)
        assert reference == pytest.approx(0.5, abs=1e-6)
        assert abs(collar.limit.mid - 0.5) <= 0.02
        assert abs(collar.limit.mid - reference) <= 0.02
        gauss = gauss_check(
            lambda p: p, circle, SampleSpec(n=2_000_000, seed=SEED),
            div=lambda p: np.full(len(p), 2.0),
        )
        assert gauss.residual <= 0.02


def test_unintegrability_guard():
    with criterion("unbounded odd integrand is flagged, mean stays near zero", 30.0):
        omega = interval(-1.0, 1.0)
        origin = PointFeature((0.0,))
        fn = lambda p: np.sign(p[:, 0]) / np.sqrt(np.abs(p[:, 0]))
        result = sharp_integral(
            fn, origin, omega, DeltaSchedule.auto(origin, omega, count=12),
            SampleSpec(n=SAMPLES, seed=SEED),
        )
        assert result.unintegrable
        for level in result.series:
            assert abs(level.value) <= 0.05


CLI_SUITE = {
    "version": "pure-measure/1",
    "seed": SEED,
    "samples": 50_000,
    "schedule": {"count": 10},
    "regions": {
        "line": {"box": {"lo": [-1], "hi": [1]}},
        "right": {"box": {"lo": [0], "hi": [1]}},
        "disk": {"ball": {"c": [0, 0], "r": 1}},
        "slab1": {"box": {"lo": [0.3333333333333333, -1], "hi": [0.5, 1]}},
        "slab2": {"box": {"lo": [0.25, -1], "hi": [0.3333333333333333, 1]}},
        "halfslab": {"box": {"lo": [0, -1], "hi": [0.5, 1]}},
        "square": {"box": {"lo": [0, 0], "hi": [1, 1]}},
    },
    "features": {"origin1": {"point": {"c": [0]}}, "origin2": {"point": {"c": [0, 0]}}},
    "integrands": {
        "cosx": "cos(x1)",
        "xy": "x1 + x2",
        "xsq": "x1^2",
        "sgn": "sign(x1)",
        "xfield": "x1",
        "yfield": "x2",
        "two": "2",
    },
    "tasks": [
        {"task": "density_ratio", "name": "dzero", "region": "right", "feature": "origin1", "omega": "line"},
        {"task": "sharp_integral", "name": "cosint", "integrand": "cosx", "feature": "origin1", "omega": "line"},
        {"task": "cone_density", "name": "cone", "omega": "disk", "x": [0, 0], "v": [1, 0],
         "alpha": 0.7853981633974483},
        {"task": "sigma_probe", "name": "sigma", "members": ["slab1", "slab2"], "union": "halfslab",
         "feature": "origin2", "omega": "disk"},
        {"task": "aura_report", "name": "aura", "feature": "origin1", "omega": "line"},
        {"task": "boundary_trace", "name": "trace", "integrand": "xy", "omega": "square", "x": [0, 0.5]},
        {"task": "collar_average", "name": "collar", "integrand": "xsq", "surface": "disk",
         "schedule": {"delta0": 0.64, "count": 6}, "nodes": 512},
        {"task": "gauss_check", "name": "gauss", "phi": ["xfield", "yfield"], "surface": "disk",
         "div": "two", "nodes": 512},
        {"task": "density_gradient", "name": "grad", "omega": "line", "x": [0], "gradient": ["sgn"]},
        {"task": "action_interval", "name": "act", "integrand": "xfield", "feature": "origin1", "omega": "line"},
        {"task": "calculus_rule_check", "name": "rules", "rule": "sum", "omega": "line", "x": [0],
         "f1": {"f": "xfield", "grad": ["sgn"]}, "f2": {"f": "xsq"}},
        {"task": "fa_lattice", "name": "exact", "measure": {
            "atoms": ["a", "b", "c"], "blocks": [["a"], ["b"], ["c"]],
            "values": [[2, 1], [-3, 1], [1, 1]]}, "band": ["a"]},
    ],
}


def test_cli_determinism(tmp_path):
    with criterion("identical seeds give byte-identical CSV output", 120.0):
        text = json.dumps(CLI_SUITE)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli.run(cli.parse_config(text), out1) == 0
        assert cli.run(cli.parse_config(text), out2) == 0
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert names and names == sorted(p.name for p in out2.glob("*.csv"))
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
