"""Batch front door: JSON config in, JSON report plus CSV delta-profiles out.

The CLI is a thin orchestrator; every task maps one-to-one onto a library
operation.  Reports echo the fully resolved configuration, so a report is a
reproducible record: identical configs (including the seed) give
byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import fa_lattice
from .density_engine import (
    DEFAULT_TOL,
    DeltaSchedule,
    ProbeResult,
    action_profile,
    aura_report,
    cone_density,
    density_probe,
    sharp_integral,
    sigma_probe,
)
from .expressions import Expression, ExpressionError, parse_expression
from .geometry import (
    Feature,
    PointFeature,
    Region,
    RegionBoundary,
    feature_from_json,
    region_from_json,
)
from .quadrature import SampleSpec
from .surface_rep import (
    DEFAULT_NODES,
    SurfaceFixture,
    UnsupportedFixture,
    collar_average,
    gauss_check,
    surface_reference,
)
from .trace_gradient import ScalarField, boundary_trace, calculus_rule_check, density_gradient

SCHEMA = "pure-measure/1"
DEFAULT_SAMPLES = 200_000


class ConfigError(ValueError):
    def __init__(self, message: str, pointer: str = "/"):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


class ParseError(ConfigError):
    pass


class UnknownName(ConfigError):
    pass


class BadSchedule(ConfigError):
    pass


@dataclass(frozen=True)
class TaskKind:
    """A task kind: its handler and the names its fields must reference.

    `run(config, task, out_dir)` returns the report payload, the CSV files
    written and whether the result is unintegrable.
    """

    run: Callable
    regions: tuple[str, ...] = ()
    features: tuple[str, ...] = ()
    integrands: tuple[str, ...] = ()
    lists: tuple[tuple[str, str], ...] = ()  # (field, table): a field holding a list of names
    optional: tuple[str, ...] = ()  # integrand fields that may be absent
    fields: tuple[str, ...] = ()  # scalar-field objects {"f": integrand, "grad": [integrands]}


@dataclass
class Config:
    seed: int
    samples: int
    tol: float
    schedule: dict
    regions: dict[str, Region]
    features: dict[str, Feature]
    integrands: dict[str, Expression]
    tasks: list[dict]
    resolved: dict  # echoed verbatim into the report


def _require(condition: bool, exc: type[ConfigError], message: str, pointer: str):
    if not condition:
        raise exc(message, pointer)


def _object(value: Any, name: str, pointer: str) -> dict:
    _require(isinstance(value, dict), ParseError, f"{name} must be an object", pointer)
    return value


def _list(value: Any, name: str, pointer: str) -> list:
    _require(isinstance(value, list), ParseError, f"{name} must be a list", pointer)
    return value


def _check_schedule(node: Any, pointer: str) -> dict:
    out = {"delta0": None, "ratio": 0.5, "count": 12}
    out.update(_object(node, "schedule", pointer))
    if out["delta0"] is not None:
        out["delta0"] = _number(out["delta0"], "delta0", pointer + "/delta0", BadSchedule)
        _require(out["delta0"] > 0, BadSchedule, "delta0 must be positive", pointer + "/delta0")
    out["ratio"] = _number(out["ratio"], "ratio", pointer + "/ratio", BadSchedule)
    _require(0 < out["ratio"] < 1, BadSchedule, "ratio must lie in (0, 1)", pointer + "/ratio")
    out["count"] = _at_least(out["count"], 3, "count", pointer + "/count", BadSchedule)
    return out


def _number(value: Any, name: str, pointer: str, exc: type[ConfigError] = ParseError) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise exc(f"{name} must be a number", pointer) from None


def _at_least(value: Any, minimum: int, name: str, pointer: str, exc: type[ConfigError] = ParseError) -> int:
    # bools are ints to Python; integral floats such as 5e4 are accepted
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    _require(integral and not isinstance(value, bool), exc, f"{name} must be an integer", pointer)
    value = int(value)
    _require(value >= minimum, exc, f"{name} must be at least {minimum}", pointer)
    return value


def _tolerance(value: Any, pointer: str) -> float:
    tol = _number(value, "tol", pointer)
    _require(tol >= 0, ParseError, "tol must be a number >= 0", pointer)  # also rejects NaN
    return tol


def parse_config(text: str) -> Config:
    """Validate a JSON config; the first problem is reported with its location."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", "/") from None
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object", "/")
    version = raw.get("version", SCHEMA)
    _require(version == SCHEMA, ParseError, f"unrecognized version {version!r}", "/version")

    seed = _at_least(raw.get("seed", 0), 0, "seed", "/seed")
    samples = _at_least(raw.get("samples", DEFAULT_SAMPLES), 2, "samples", "/samples")
    tol = _tolerance(raw.get("tol", DEFAULT_TOL), "/tol")
    schedule = _check_schedule(raw.get("schedule", {}), "/schedule")

    regions: dict[str, Region] = {}
    for name, node in _object(raw.get("regions", {}), "regions", "/regions").items():
        try:
            regions[name] = region_from_json(node)
        except (ValueError, KeyError, TypeError) as e:
            raise ParseError(f"bad region: {e}", f"/regions/{name}") from None

    features: dict[str, Feature] = {}
    for name, node in _object(raw.get("features", {}), "features", "/features").items():
        try:
            features[name] = feature_from_json(node)
        except (ValueError, KeyError, TypeError) as e:
            raise ParseError(f"bad feature: {e}", f"/features/{name}") from None

    integrands: dict[str, Expression] = {}
    for name, node in _object(raw.get("integrands", {}), "integrands", "/integrands").items():
        try:
            integrands[name] = parse_expression(node)
        except ExpressionError as e:
            raise ParseError(f"bad expression: {e}", f"/integrands/{name}") from None

    tasks = _list(raw.get("tasks", []), "tasks", "/tasks")
    _require(bool(tasks), ParseError, "config defines no tasks", "/tasks")
    seen_names = set()
    for i, task in enumerate(tasks):
        ptr = f"/tasks/{i}"
        _require(isinstance(task, dict), ParseError, "task must be an object", ptr)
        kind = task.get("task")
        _require(isinstance(kind, str) and kind in TASK_KINDS, ParseError, f"unknown task kind {kind!r}", ptr + "/task")
        task.setdefault("name", f"task{i}")
        _require(task["name"] not in seen_names, ParseError, f"duplicate task name {task['name']!r}", ptr + "/name")
        seen_names.add(task["name"])
        if "schedule" in task:
            task["schedule"] = _check_schedule(task["schedule"], ptr + "/schedule")
        if "samples" in task:
            _at_least(task["samples"], 2, "samples", ptr + "/samples")
        if "tol" in task:
            _tolerance(task["tol"], ptr + "/tol")
        if "nodes" in task:
            _at_least(task["nodes"], 8, "nodes", ptr + "/nodes")
        tables = {"region": regions, "feature": features, "integrand": integrands}
        _validate_references(task, TASK_KINDS[kind], tables, ptr)
        if "surface" in TASK_KINDS[kind].regions:
            _surface_fixture(regions, task, ptr)

    resolved = {
        "version": SCHEMA,
        "seed": seed,
        "samples": samples,
        "tol": tol,
        "schedule": schedule,
        "regions": raw.get("regions", {}),
        "features": raw.get("features", {}),
        "integrands": raw.get("integrands", {}),
        "tasks": tasks,
    }
    return Config(seed, samples, tol, schedule, regions, features, integrands, tasks, resolved)


def _surface_fixture(regions: dict[str, Region], task: dict, ptr: str = "") -> SurfaceFixture:
    """The task's surface fixture; parse_config builds it too, so a bad one fails before any task runs."""
    try:
        return SurfaceFixture(regions[task["surface"]], int(task.get("nodes", DEFAULT_NODES)))
    except UnsupportedFixture as e:
        raise ParseError(str(e), f"{ptr}/surface") from None
    except ValueError as e:  # too few nodes or above the node budget
        raise ParseError(str(e), f"{ptr}/nodes") from None


def _validate_references(task: dict, kind: TaskKind, tables: dict[str, dict], ptr: str) -> None:
    def defined(table: str, name: Any, pointer: str) -> None:
        _require(isinstance(name, str) and name in tables[table], UnknownName, f"undefined {table} {name!r}", pointer)

    for table, fields in (("region", kind.regions), ("feature", kind.features), ("integrand", kind.integrands)):
        for field in fields:
            _require(field in task, ParseError, f"task needs field {field!r}", ptr)
            defined(table, task[field], f"{ptr}/{field}")
    if "weight" in task:
        defined("integrand", task["weight"], f"{ptr}/weight")
    for field, table in kind.lists:
        for j, name in enumerate(_list(task.get(field, []), field, f"{ptr}/{field}")):
            defined(table, name, f"{ptr}/{field}/{j}")
    for field in kind.optional:
        if field in task:
            defined("integrand", task[field], f"{ptr}/{field}")
    for side in kind.fields:
        body = task.get(side, {})
        _require(isinstance(body, dict) and "f" in body, ParseError, f"task needs {side}.f", f"{ptr}/{side}")
        defined("integrand", body["f"], f"{ptr}/{side}/f")
        for j, g in enumerate(_list(body.get("grad", []), "grad", f"{ptr}/{side}/grad")):
            defined("integrand", g, f"{ptr}/{side}/grad/{j}")


# -------------------------------------------------------------- serialization

def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_series_csv(out_dir: Path, name: str, rows) -> str:
    """Write rows (delta, value, stderr, hits) to `name`.csv; returns the file name."""
    lines = ["delta,value,stderr,hits"]
    for delta, value, stderr, hits in rows:
        lines.append(f"{_format_float(delta)},{_format_float(value)},{_format_float(stderr)},{int(hits)}")
    csv = f"{name}.csv"
    (out_dir / csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return csv


def _probe_rows(result: ProbeResult):
    return [(l.delta, l.value, l.stderr, l.hits) for l in result.series]


def _probe_output(task: dict, out_dir: Path, result: ProbeResult, **extra):
    """Payload, CSV and unintegrable flag of a task whose result is one profile."""
    csv = _write_series_csv(out_dir, task["name"], _probe_rows(result))
    return {**_jsonable(result), **extra}, [csv], result.unintegrable


# ------------------------------------------------------------------ handlers

def _schedule_for(config: Config, task: dict, feature: Feature, omega: Region) -> DeltaSchedule:
    node = task.get("schedule", config.schedule)
    if node["delta0"] is None:
        auto = DeltaSchedule.auto(feature, omega, node["ratio"], node["count"])
        return auto
    return DeltaSchedule(node["delta0"], node["ratio"], node["count"])


def _spec_for(config: Config, task: dict) -> SampleSpec:
    return SampleSpec(int(task.get("samples", config.samples)), config.seed)


def _tol_for(config: Config, task: dict) -> float:
    return float(task.get("tol", config.tol))


def _weight_for(config: Config, task: dict):
    return config.integrands[task["weight"]] if "weight" in task else None


def _gradient_field(config: Config, task: dict, side: dict | None = None) -> ScalarField:
    if side is None:
        body, f_key, grad_key = task, "integrand", "gradient"
    else:
        body, f_key, grad_key = side, "f", "grad"
    f = config.integrands[body[f_key]] if f_key in body else None
    grad = None
    if body.get(grad_key):
        exprs = [config.integrands[g] for g in body[grad_key]]
        grad = lambda pts: np.column_stack([e(pts) for e in exprs])
    return ScalarField(f=f, grad=grad)


def _run_density_ratio(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    feature = config.features[task["feature"]]
    result = density_probe(
        config.regions[task["region"]], feature, omega,
        _schedule_for(config, task, feature, omega), _spec_for(config, task),
        weight=_weight_for(config, task), tol=_tol_for(config, task),
    )
    return _probe_output(task, out_dir, result)


def _run_sharp_integral(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    feature = config.features[task["feature"]]
    result = sharp_integral(
        config.integrands[task["integrand"]], feature, omega,
        _schedule_for(config, task, feature, omega), _spec_for(config, task),
        weight=_weight_for(config, task), tol=_tol_for(config, task),
    )
    return _probe_output(task, out_dir, result)


def _run_action_interval(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    feature = config.features[task["feature"]]
    profile = action_profile(
        config.integrands[task["integrand"]], feature, omega,
        _schedule_for(config, task, feature, omega), _spec_for(config, task),
        tol=_tol_for(config, task),
    )
    return _jsonable(profile), [], False


def _run_cone_density(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    x = tuple(float(c) for c in task["x"])
    feature = PointFeature(x)
    result = cone_density(
        x, tuple(float(c) for c in task["v"]), float(task["alpha"]), omega,
        _schedule_for(config, task, feature, omega), _spec_for(config, task),
        tol=_tol_for(config, task),
    )
    return _probe_output(task, out_dir, result)


def _run_sigma_probe(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    feature = config.features[task["feature"]]
    report = sigma_probe(
        [config.regions[m] for m in task.get("members", [])],
        config.regions[task["union"]], feature, omega,
        _schedule_for(config, task, feature, omega), _spec_for(config, task),
        tol=_tol_for(config, task),
    )
    csvs = [
        _write_series_csv(out_dir, f"{task['name']}_member{k}", _probe_rows(member))
        for k, member in enumerate(report.members, start=1)
    ]
    csvs.append(_write_series_csv(out_dir, f"{task['name']}_union", _probe_rows(report.union)))
    return _jsonable(report), csvs, False


def _run_aura_report(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    feature = config.features[task["feature"]]
    report = aura_report(
        feature, omega, _schedule_for(config, task, feature, omega), _spec_for(config, task)
    )
    rows = [(l.delta, l.volume, l.volume_stderr, l.hits) for l in report.levels]
    return _jsonable(report), [_write_series_csv(out_dir, task["name"], rows)], False


def _run_boundary_trace(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    x = tuple(float(c) for c in task["x"])
    feature = PointFeature(x)
    result = boundary_trace(
        config.integrands[task["integrand"]], omega, x,
        _schedule_for(config, task, feature, omega), _spec_for(config, task),
        tol=_tol_for(config, task),
    )
    return _probe_output(task, out_dir, result)


def _run_density_gradient(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    x = tuple(float(c) for c in task["x"])
    field = _gradient_field(config, task)
    tol = _tol_for(config, task)
    report = density_gradient(
        omega, x, _schedule_for(config, task, PointFeature(x), omega), _spec_for(config, task),
        field=field, tol=tol,
    )
    payload = _jsonable(report)
    payload["verdicts"] = [
        "unbounded" if (p.unbounded_lo or p.unbounded_hi)
        else ("point" if p.interval.width <= tol else "interval")
        for p in report.profiles
    ]
    return payload, [], False


def _run_calculus_rule_check(config: Config, task: dict, out_dir: Path):
    omega = config.regions[task["omega"]]
    x = tuple(float(c) for c in task["x"])
    report = calculus_rule_check(
        task.get("rule", "sum"),
        _gradient_field(config, task, task["f1"]),
        _gradient_field(config, task, task["f2"]),
        x, omega, _schedule_for(config, task, PointFeature(x), omega), _spec_for(config, task),
        tol=_tol_for(config, task),
    )
    return _jsonable(report), [], False


def _run_collar_average(config: Config, task: dict, out_dir: Path):
    fixture = _surface_fixture(config.regions, task)
    boundary = RegionBoundary(fixture.region)
    result = collar_average(
        config.integrands[task["integrand"]], fixture,
        _schedule_for(config, task, boundary, fixture.region), _spec_for(config, task),
        tol=_tol_for(config, task),
    )
    reference = surface_reference(config.integrands[task["integrand"]], fixture)
    return _probe_output(task, out_dir, result, surface_reference=_jsonable(reference))


def _run_gauss_check(config: Config, task: dict, out_dir: Path):
    fixture = _surface_fixture(config.regions, task)
    exprs = [config.integrands[g] for g in task["phi"]]
    phi = lambda pts: np.column_stack([e(pts) for e in exprs])
    div = config.integrands[task["div"]] if "div" in task else None
    report = gauss_check(phi, fixture, _spec_for(config, task), div=div)
    return _jsonable(report), [], False


def _run_fa_lattice(config: Config, task: dict, out_dir: Path):
    mu = fa_lattice.measure_from_json(task["measure"])
    ground = mu.algebra.ground
    full = ground.full
    pos, neg = fa_lattice.jordan_decompose(mu)
    sigma_part, pure = fa_lattice.sigma_additive_part(mu)
    payload = {
        "total": _jsonable(fa_lattice.evaluate(mu, full)),
        "total_variation": _jsonable(fa_lattice.total_variation(mu, full)),
        "jordan": {
            "positive": fa_lattice.measure_to_json(pos),
            "negative": fa_lattice.measure_to_json(neg),
            "orthogonal": fa_lattice.lattice_meet(pos, neg, full) == 0,
        },
        "pure_part_zero": pure.is_zero,
    }
    if "band" in task:
        band = ground.subset(task["band"])
        inside, outside = fa_lattice.band_decompose(mu, band)
        payload["band"] = {
            "inside": fa_lattice.measure_to_json(inside),
            "outside": fa_lattice.measure_to_json(outside),
        }
    return payload, [], False


TASK_KINDS: dict[str, TaskKind] = {
    "density_ratio": TaskKind(_run_density_ratio, ("region", "omega"), ("feature",)),
    "sharp_integral": TaskKind(_run_sharp_integral, ("omega",), ("feature",), ("integrand",)),
    "action_interval": TaskKind(_run_action_interval, ("omega",), ("feature",), ("integrand",)),
    "cone_density": TaskKind(_run_cone_density, ("omega",)),
    "sigma_probe": TaskKind(_run_sigma_probe, ("omega", "union"), ("feature",), lists=(("members", "region"),)),
    "aura_report": TaskKind(_run_aura_report, ("omega",), ("feature",)),
    "boundary_trace": TaskKind(_run_boundary_trace, ("omega",), integrands=("integrand",)),
    "density_gradient": TaskKind(
        _run_density_gradient, ("omega",), lists=(("gradient", "integrand"),), optional=("integrand",)
    ),
    "calculus_rule_check": TaskKind(_run_calculus_rule_check, ("omega",), fields=("f1", "f2")),
    "collar_average": TaskKind(_run_collar_average, ("surface",), integrands=("integrand",)),
    "gauss_check": TaskKind(_run_gauss_check, ("surface",), lists=(("phi", "integrand"),), optional=("div",)),
    "fa_lattice": TaskKind(_run_fa_lattice),
}


def run(config: Config, out_dir: str | Path, only: str | None = None) -> int:
    """Run all tasks (or the one named by `only`); 0 if every task succeeded."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    failed = False
    for task in config.tasks:
        if only is not None and task["name"] != only:
            continue
        entry = {"name": task["name"], "task": task["task"]}
        try:
            payload, csvs, unintegrable = TASK_KINDS[task["task"]].run(config, task, out)
            entry["result"] = payload
            entry["csv"] = csvs
            if unintegrable:
                entry["status"] = "error"
                entry["error"] = {"type": "Unintegrable", "message": "integrand essentially unbounded near the feature"}
                failed = True
            else:
                entry["status"] = "ok"
        except Exception as e:  # per-task isolation: one failure never stops the batch
            entry["status"] = "error"
            entry["error"] = {"type": type(e).__name__, "message": str(e)}
            failed = True
        entries.append(entry)
    report = {"schema": SCHEMA, "config": config.resolved, "tasks": entries}
    (out / "report.json").write_text(
        json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pure-measure",
        description="Run density-measure probes described by a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output directory for report.json and CSVs")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--samples", type=int, default=None, help="override samples per delta level")
    parser.add_argument("--task", default=None, help="run only the task with this name")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.seed is not None:
            config.seed = _at_least(args.seed, 0, "seed", "--seed")
            config.resolved["seed"] = config.seed
        if args.samples is not None:
            config.samples = _at_least(args.samples, 2, "samples", "--samples")
            config.resolved["samples"] = config.samples
    except ConfigError as e:
        print(f"config error at {e}", file=sys.stderr)
        return 1
    if args.task is not None and all(t["name"] != args.task for t in config.tasks):
        print(f"no task named {args.task!r}", file=sys.stderr)
        return 1
    return run(config, args.out, only=args.task)


if __name__ == "__main__":
    raise SystemExit(main())
