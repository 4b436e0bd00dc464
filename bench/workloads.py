"""Workload definitions: the probes each pass runs, with their known answers.

A workload is a list of operations.  Each operation is one call into
puremeasure; its checks compare the result with a closed-form reference
and the verdict a correct engine should give.  A check that fails is a
*miss*: it is reported, never tuned away.  An operation that raises is a
*failure*.

`point_probes` and `thin_features` are built by `build(name, seed, wrap)`,
which imports puremeasure, so it runs in the pass's own interpreter.
`cli_config(seed)` and `cli_checks(config, report)` are plain Python and serve the
`cli_batch` workload, whose pass is a cold `pure-measure` process.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("point_probes", "thin_features", "cli_batch")

SAMPLES = 200_000
LEVELS = 12


@dataclass(frozen=True)
class Check:
    """One probe: what was expected, what was found, whether they agree."""

    name: str
    ok: bool
    expected: str
    found: str
    # True when the engine claims convergence to a value outside tol: a wrong
    # answer, not merely an inconclusive one.
    wrong: bool = False


@dataclass(frozen=True)
class Op:
    """One call into puremeasure plus the checks applied to its result."""

    name: str
    run: Callable[[], Any]
    checks: Callable[[Any], list[Check]]
    # Picks the probe whose stderr at the smallest delta enters stderr_sqrt_s;
    # None for operations that are not efficiency probes.
    efficiency: Callable[[Any], float] | None = None


# ------------------------------------------------------------------ checks

def limit_check(name: str, result, ref: float, tol: float, verdict: str = "converged") -> Check:
    """Verdict equals `verdict` and the limit midpoint lies within tol of ref."""
    mid = float(result.limit.mid)
    close = abs(mid - ref) <= tol
    ok = result.verdict == verdict and close
    return Check(
        name, ok,
        expected=f"{verdict} {ref:.6g}±{tol:g}",
        found=f"{result.verdict} {mid:.6g}",
        wrong=result.verdict == "converged" and not close,
    )


def interval_check(name: str, iv, lo: float, hi: float, tol: float) -> Check:
    ok = abs(iv.lo - lo) <= tol and abs(iv.hi - hi) <= tol
    return Check(name, ok, f"[{lo:g}, {hi:g}]±{tol:g}", f"[{iv.lo:.6g}, {iv.hi:.6g}]")


def flag_check(name: str, found: bool, expected: bool = True) -> Check:
    return Check(name, bool(found) == expected, str(expected), str(bool(found)))


def bound_check(name: str, value: float, lo: float, hi: float) -> Check:
    return Check(name, lo <= value <= hi, f"in [{lo:g}, {hi:g}]", f"{value:.6g}")


def smallest_stderr(result) -> float:
    return float(result.series[-1].stderr)


# ------------------------------------------------------------- point_probes

def _point_probes(seed: int, wrap: Callable) -> list[Op]:
    """The Monte Carlo criteria of the acceptance suite, plus a 3-D gradient."""
    import numpy as np

    from puremeasure.density_engine import (
        DeltaSchedule,
        action_interval,
        cone_density,
        density_probe,
        sharp_integral,
        sigma_probe,
    )
    from puremeasure.geometry import Ball, Box, Cusp, PointFeature, interval
    from puremeasure.quadrature import SampleSpec
    from puremeasure.trace_gradient import (
        ScalarField,
        boundary_trace,
        calculus_rule_check,
        density_gradient,
    )

    spec = SampleSpec(n=SAMPLES, seed=seed)
    line = interval(-1.0, 1.0)
    half_line = interval(0.0, 1.0)
    o1 = PointFeature((0.0,))
    o2 = PointFeature((0.0, 0.0))
    disk = Ball((0.0, 0.0), 1.0)
    ball3 = Ball((0.0, 0.0, 0.0), 1.0)
    square = Box((0.0, 0.0), (1.0, 1.0))
    cusp = Cusp(2.0)
    line_sched = DeltaSchedule.auto(o1, line, count=LEVELS)
    disk_sched = DeltaSchedule.auto(o2, disk, count=LEVELS)

    slabs = [Box((1.0 / (k + 2), -1.0), (1.0 / (k + 1), 1.0)) for k in range(1, 9)]
    halfslab = Box((0.0, -1.0), (0.5, 1.0))

    sin_inv = wrap("sin_inv", lambda p: np.sin(1.0 / p[:, 0]))
    near_top = wrap("near_top", lambda p: (np.sin(1.0 / p[:, 0]) >= 0.9).astype(float))
    half_sched = DeltaSchedule.auto(o1, half_line, count=LEVELS)

    trace_pt = (0.0, 0.5)
    trace_sched = DeltaSchedule.auto(PointFeature(trace_pt), square, count=LEVELS)
    x_plus_y = wrap("x_plus_y", lambda p: p[:, 0] + p[:, 1])
    y_above_x = wrap("y_above_x", lambda p: (p[:, 1] > p[:, 0]).astype(float))

    sign = wrap("sign", lambda p: np.sign(p))
    abs1 = ScalarField(f=wrap("abs", lambda p: np.abs(p[:, 0])), grad=sign)
    neg_abs1 = ScalarField(f=wrap("neg_abs", lambda p: -np.abs(p[:, 0])), grad=wrap("neg_sign", lambda p: -np.sign(p)))
    sq1 = ScalarField(f=wrap("square", lambda p: p[:, 0] ** 2), grad=wrap("twice", lambda p: 2 * p))
    lin3 = ScalarField(f=wrap("three_x", lambda p: 3 * p[:, 0]), grad=wrap("three", lambda p: np.full_like(p, 3.0)))
    cos1 = ScalarField(f=wrap("cos", lambda p: np.cos(p[:, 0])), grad=wrap("neg_sin", lambda p: -np.sin(p)))
    kink3 = ScalarField(f=wrap("kink3", lambda p: np.abs(p[:, 0]) + p[:, 1] * p[:, 2]))
    ball3_sched = DeltaSchedule.auto(PointFeature((0.0, 0.0, 0.0)), ball3, count=LEVELS)

    inv_sqrt = wrap("inv_sqrt", lambda p: np.sign(p[:, 0]) / np.sqrt(np.abs(p[:, 0])))

    def sigma_checks(rep):
        out = [
            Check(f"member{k}", abs(m.limit.mid) <= 0.02, "0±0.02", f"{m.limit.mid:.6g}")
            for k, m in enumerate(rep.members, start=1)
        ]
        out.append(Check("union", abs(rep.union_value - 0.5) <= 0.03, "0.5±0.03", f"{rep.union_value:.6g}"))
        out.append(flag_check("violation", rep.violation))
        return out

    def sum_rule(f1, f2):
        return lambda: calculus_rule_check("sum", f1, f2, (0.0,), line, line_sched, spec)

    return [
        Op("density_at_zero",
           lambda: density_probe(half_line, o1, line, line_sched, spec),
           lambda r: [limit_check("limit", r, 0.5, 0.02)]),
        Op("sigma_slabs",
           lambda: sigma_probe(slabs, halfslab, o2, disk, disk_sched, spec),
           sigma_checks),
        Op("sin_bounds",
           lambda: action_interval(sin_inv, o1, half_line, half_sched, spec, tol=0.05),
           lambda iv: [interval_check("action", iv, -1.0, 1.0, 0.05)]),
        Op("sin_weighted",
           lambda: sharp_integral(sin_inv, o1, half_line, half_sched, spec, weight=near_top),
           lambda r: [bound_check("limit", r.limit.mid, 0.8, 1.0)],
           efficiency=smallest_stderr),
        Op("cone_disk_sector",
           lambda: cone_density((0.0, 0.0), (1.0, 0.0), math.pi / 4, disk, disk_sched, spec),
           lambda r: [limit_check("limit", r, 0.25, 0.02)],
           efficiency=smallest_stderr),
        Op("cone_cusp_along",
           lambda: cone_density((0.0, 0.0), (1.0, 0.0), math.pi / 4, cusp,
                                DeltaSchedule.auto(o2, cusp, count=LEVELS), spec),
           lambda r: [limit_check("limit", r, 1.0, 0.02)]),
        Op("cone_cusp_against",
           lambda: cone_density((0.0, 0.0), (-1.0, 0.0), math.pi / 4, cusp,
                                DeltaSchedule.auto(o2, cusp, count=LEVELS), spec),
           lambda r: [limit_check("limit", r, 0.0, 0.02)]),
        Op("trace_smooth",
           lambda: boundary_trace(x_plus_y, square, trace_pt, trace_sched, spec),
           lambda r: [limit_check("limit", r, 0.5, 0.02)],
           efficiency=smallest_stderr),
        Op("trace_step",
           lambda: boundary_trace(y_above_x, square, trace_pt, trace_sched, spec),
           lambda r: [limit_check("limit", r, 1.0, 0.02)]),
        Op("gradient_kink",
           lambda: density_gradient(line, (0.0,), line_sched, spec, grad=sign),
           lambda g: [interval_check("x1", g.box.intervals[0], -1.0, 1.0, 0.05)]),
        Op("gradient_smooth",
           lambda: density_gradient(line, (0.0,), line_sched, spec, field=sq1),
           lambda g: [interval_check("x1", g.box.intervals[0], 0.0, 0.0, 0.05)]),
        Op("sum_rule_abs_negabs", sum_rule(abs1, neg_abs1), lambda r: [flag_check("contained", r.contained)]),
        Op("sum_rule_sq_linear", sum_rule(sq1, lin3), lambda r: [flag_check("contained", r.contained)]),
        Op("sum_rule_abs_cos", sum_rule(abs1, cos1), lambda r: [flag_check("contained", r.contained)]),
        Op("unintegrable_guard",
           lambda: sharp_integral(inv_sqrt, o1, line, line_sched, spec),
           lambda r: [flag_check("unintegrable", r.unintegrable),
                      bound_check("max_abs_level", max(abs(l.value) for l in r.series), 0.0, 0.05)]),
        Op("gradient_fd_3d",
           lambda: density_gradient(ball3, (0.0, 0.0, 0.0), ball3_sched, spec, field=kink3),
           lambda g: [interval_check("x1", g.box.intervals[0], -1.0, 1.0, 0.05),
                      interval_check("x2", g.box.intervals[1], 0.0, 0.0, 0.05),
                      interval_check("x3", g.box.intervals[2], 0.0, 0.0, 0.05)]),
    ]


# ------------------------------------------------------------ thin_features

def _thin_features(seed: int, wrap: Callable) -> list[Op]:
    """Neighbourhoods that bounding-box sampling mostly misses."""
    from puremeasure.density_engine import DeltaSchedule, density_probe
    from puremeasure.geometry import (
        Ball,
        Box,
        Halfspace,
        Intersection,
        PointFeature,
        RegionBoundary,
        SegmentFeature,
    )
    from puremeasure.quadrature import SampleSpec
    from puremeasure.surface_rep import PARAMETRIC_TOL, collar_average, surface_fixture, surface_reference

    spec = SampleSpec(n=SAMPLES, seed=seed)
    x1_sq = wrap("x1_sq", lambda p: p[:, 0] ** 2)

    circle = surface_fixture(Ball((0.0, 0.0), 1.0))
    circle_sched = DeltaSchedule.auto(RegionBoundary(circle.region), circle.region, count=LEVELS)
    sphere = surface_fixture(Ball((0.0, 0.0, 0.0), 1.0))
    sphere_sched = DeltaSchedule.auto(RegionBoundary(sphere.region), sphere.region, count=LEVELS)

    def quadrant(dim: int, axes: tuple[int, int]):
        """{x_i > 0 for i in axes} in R^dim (0-based axes)."""
        halves = []
        for axis in axes:
            normal = [0.0] * dim
            normal[axis] = -1.0
            halves.append(Halfspace(tuple(normal), 0.0))
        return Intersection(tuple(halves))

    cube3 = Box((-1.0,) * 3, (1.0,) * 3)
    segment = SegmentFeature((-0.2,) * 3, (0.6,) * 3)
    segment_quadrant = quadrant(3, (1, 2))
    segment_sched = DeltaSchedule.auto(segment, cube3, count=9)
    cube8 = Box((-1.0,) * 8, (1.0,) * 8)
    origin8 = PointFeature((0.0,) * 8)
    quadrant8 = quadrant(8, (0, 1))
    origin8_sched = DeltaSchedule.auto(origin8, cube8, count=LEVELS)

    return [
        Op("circle_collar",
           lambda: collar_average(x1_sq, circle, circle_sched, spec),
           lambda r: [limit_check("limit", r, 0.5, 0.02)],
           efficiency=smallest_stderr),
        # Not an efficiency probe: at ~28 hits its smallest-delta stderr is
        # exactly 0 on some seeds.
        Op("segment_3d",
           lambda: density_probe(segment_quadrant, segment, cube3, segment_sched, spec),
           lambda r: [limit_check("limit", r, 0.75, 0.02)]),
        Op("origin_8d",
           lambda: density_probe(quadrant8, origin8, cube8, origin8_sched, spec),
           lambda r: [limit_check("limit", r, 0.25, 0.02)],
           efficiency=smallest_stderr),
        Op("sphere_collar",
           lambda: collar_average(x1_sq, sphere, sphere_sched, spec),
           lambda r: [limit_check("limit", r, 1.0 / 3.0, 0.02)],
           efficiency=smallest_stderr),
        Op("sphere_reference",
           lambda: surface_reference(x1_sq, sphere),
           lambda v: [bound_check("reference", v, 1.0 / 3.0 - PARAMETRIC_TOL, 1.0 / 3.0 + PARAMETRIC_TOL)]),
    ]


def build(name: str, seed: int, wrap: Callable) -> list[Op]:
    """The operations of a library workload.

    `wrap(name, fn)` is applied to every integrand and weight the benchmark
    defines, so a traced pass can time them as their own layer.
    """
    builders = {"point_probes": _point_probes, "thin_features": _thin_features}
    return builders[name](seed, wrap)


# ---------------------------------------------------------------- cli_batch

LATTICE_ATOMS = 12
LATTICE_TASKS = 4

# The acceptance CLI suite: all twelve task kinds at 50k samples.
CLI_SUITE = {
    "version": "pure-measure/1",
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

# CSVs whose stderr at the smallest delta enters stderr_sqrt_s on cli_batch.
CLI_EFFICIENCY_CSVS = ("cosint.csv", "cone.csv", "trace.csv", "collar.csv")


def cli_config(seed: int) -> dict:
    """CLI_SUITE at `seed`, plus 12-atom fa_lattice tasks drawn from the seed."""
    rng = random.Random(seed)
    config = json.loads(json.dumps(CLI_SUITE))
    config["seed"] = seed
    atoms = [f"a{i}" for i in range(LATTICE_ATOMS)]
    for k in range(1, LATTICE_TASKS + 1):
        values = [[rng.randint(-9, 9), rng.randint(1, 7)] for _ in atoms]
        config["tasks"].append({
            "task": "fa_lattice", "name": f"lattice{k}",
            "measure": {"atoms": atoms, "blocks": [[a] for a in atoms], "values": values},
            "band": atoms[: LATTICE_ATOMS // 2],
        })
    return config


def _lattice_checks(task: dict, result: dict) -> list[Check]:
    """Closed forms for a measure whose blocks are single atoms."""
    values = [Fraction(n, d) for n, d in task["measure"]["values"]]
    atoms = task["measure"]["atoms"]
    band = set(task.get("band", []))

    def as_pairs(vs):
        return [[v.numerator, v.denominator] for v in vs]

    def part(keep):
        return {"atoms": atoms, "blocks": [[a] for a in atoms], "values": as_pairs(keep)}

    total = sum(values, Fraction(0))
    tv = sum((abs(v) for v in values), Fraction(0))
    expected = {
        "total": [total.numerator, total.denominator],
        "total_variation": [tv.numerator, tv.denominator],
        "jordan": {
            "positive": part([max(v, Fraction(0)) for v in values]),
            "negative": part([max(-v, Fraction(0)) for v in values]),
            "orthogonal": True,
        },
        "pure_part_zero": True,
    }
    if band:
        expected["band"] = {
            "inside": part([v if a in band else Fraction(0) for a, v in zip(atoms, values)]),
            "outside": part([Fraction(0) if a in band else v for a, v in zip(atoms, values)]),
        }
    return [
        Check(key, result.get(key) == want, json.dumps(want), json.dumps(result.get(key)))
        for key, want in expected.items()
    ]


def _cli_limit(name: str, result: dict, ref: float, tol: float) -> Check:
    mid = 0.5 * (result["limit"]["lo"] + result["limit"]["hi"])
    close = abs(mid - ref) <= tol
    return Check(
        name, result["verdict"] == "converged" and close,
        expected=f"converged {ref:.6g}±{tol:g}", found=f"{result['verdict']} {mid:.6g}",
        wrong=result["verdict"] == "converged" and not close,
    )


def _cli_interval(name: str, iv: dict, lo: float, hi: float, tol: float) -> Check:
    ok = abs(iv["lo"] - lo) <= tol and abs(iv["hi"] - hi) <= tol
    return Check(name, ok, f"[{lo:g}, {hi:g}]±{tol:g}", f"[{iv['lo']:.6g}, {iv['hi']:.6g}]")


def cli_checks(config: dict, report: dict) -> dict[str, list[Check]]:
    """Reference checks of a cli_batch report, by task name."""
    tol = 0.02
    res = {t["name"]: t["result"] for t in report["tasks"]}
    sigma, collar = res["sigma"], res["collar"]
    checks = {
        "dzero": [_cli_limit("limit", res["dzero"], 0.5, tol)],
        "cosint": [_cli_limit("limit", res["cosint"], 1.0, tol)],
        "cone": [_cli_limit("limit", res["cone"], 0.25, tol)],
        "sigma": [
            *(_cli_limit(f"member{k}", m, 0.0, tol) for k, m in enumerate(sigma["members"], start=1)),
            _cli_limit("union", sigma["union"], 0.5, tol),
            Check("violation", sigma["violation"] is True, "True", str(sigma["violation"])),
        ],
        "aura": [Check("decreasing", res["aura"]["decreasing"] is True, "True", str(res["aura"]["decreasing"]))],
        "trace": [_cli_limit("limit", res["trace"], 0.5, tol)],
        "collar": [
            _cli_limit("limit", collar, 0.5, tol),
            Check("reference", abs(collar["surface_reference"] - 0.5) <= 1e-6,
                  "0.5±1e-06", f"{collar['surface_reference']:.9g}"),
        ],
        "gauss": [Check("residual", res["gauss"]["residual"] <= tol, f"<= {tol:g}", f"{res['gauss']['residual']:.6g}")],
        "grad": [_cli_interval("x1", res["grad"]["box"]["intervals"][0], -1.0, 1.0, 0.05)],
        "act": [_cli_interval("interval", res["act"]["interval"], 0.0, 0.0, tol)],
        "rules": [Check("contained", res["rules"]["contained"] is True, "True", str(res["rules"]["contained"]))],
    }
    for task in config["tasks"]:
        if task["task"] == "fa_lattice":
            checks[task["name"]] = _lattice_checks(task, res[task["name"]])
    return checks
