"""Batch front door: JSON config in, JSON report plus CSV delta-profiles out.

The CLI is a thin orchestrator; every task maps one-to-one onto a library
operation.  One parse pass checks the config, applies the --seed and --samples
overrides and binds each task to the job that runs it, with its sample spec,
tol and schedule (delta0 and count; delta halves at every level), so a bad
value, an unbounded omega or a trace point off the boundary exits before any
task runs.  Reports echo the resolved configuration: identical configs
(including the seed) give byte-identical CSV outputs.

Tasks read only their own streams, so `density_engine._in_tasks` runs them
in turn or shares them over the idle CPUs, from their pairs per level.  A
share writes its tasks' CSVs and sends their report entries back pickled;
a warning may show once per share.  A task's name, the stem of its CSVs,
is a plain file name, and no two tasks write one file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import fa_lattice, trace_gradient
from .density_engine import (
    DEFAULT_COUNT,
    DEFAULT_TOL,
    MAX_LEVELS,
    DeltaSchedule,
    ProbeResult,
    _in_tasks,
    action_profile,
    aura_report,
    cone_density,
    density_probe,
    sharp_integral,
    sigma_probe,
)
from .expressions import MAX_DEPTH, Expression, parse_expression
from .geometry import (
    Feature,
    PointFeature,
    Region,
    RegionBoundary,
    bbox_is_finite,
    feature_from_json,
    region_from_json,
)
from .json_numbers import is_finite_number, is_integer
from .quadrature import DEFAULT_SAMPLES, SampleSpec
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
# a task's name, the stem of its CSVs: a file name, no path and not hidden
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


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


Job = Callable[[Path], tuple[dict, list[str], str | None]]  # output directory -> payload, CSV files, unintegrable cause
# a task bound at parse time by its kind function, with its sample pairs per level
BoundTask = NamedTuple("BoundTask", [("name", str), ("kind", str), ("job", Job), ("pairs", int)])


@dataclass
class Config:
    jobs: list[BoundTask]  # one per task, in config order
    resolved: dict  # echoed verbatim into the report, the task objects in its "tasks"


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
    out = {"delta0": None, "count": DEFAULT_COUNT}
    for key in _object(node, "schedule", pointer):
        _require(key in out, BadSchedule, "not delta0 or count; delta halves at every level", f"{pointer}/{key}")
    out.update(node)
    if out["delta0"] is not None:
        out["delta0"] = _number(out["delta0"], "delta0", pointer + "/delta0", BadSchedule)
        _require(out["delta0"] > 0, BadSchedule, "delta0 must be positive", pointer + "/delta0")
    out["count"] = _at_least(out["count"], 3, "count", pointer + "/count", BadSchedule)
    _require(out["count"] <= MAX_LEVELS, BadSchedule, f"count must be at most {MAX_LEVELS}", pointer + "/count")
    return out


def _number(value: Any, name: str, pointer: str, exc: type[ConfigError] = ParseError) -> float:
    _require(is_finite_number(value), exc, f"{name} must be a finite number", pointer)
    return float(value)


def _at_least(value: Any, minimum: int, name: str, pointer: str, exc: type[ConfigError] = ParseError) -> int:
    _require(is_integer(value), exc, f"{name} must be an integer", pointer)
    value = int(value)
    _require(value >= minimum, exc, f"{name} must be at least {minimum}", pointer)
    return value


def _tolerance(value: Any, pointer: str) -> float:
    tol = _number(value, "tol", pointer)
    _require(tol >= 0, ParseError, "tol must be a number >= 0", pointer)
    return tol


def parse_config(text: str, seed: int | None = None, samples: int | None = None) -> Config:
    """Validate a JSON config and bind its tasks; the first problem is reported with its location.

    `seed` and `samples`, when given, override the config's (the --seed and
    --samples flags) and are reported at their flag.
    """
    too_deep = f"config nests arrays and objects more than {MAX_DEPTH} deep"
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", "/") from None
    except RecursionError:
        raise ParseError(too_deep, "/") from None
    # so that the readers below and the report writer, which recurse, stay shallow
    nested = [(raw, 1)]
    while nested:
        node, depth = nested.pop()
        if isinstance(node, (dict, list)):
            _require(depth <= MAX_DEPTH, ParseError, too_deep, "/")
            nested.extend((child, depth + 1) for child in (node.values() if isinstance(node, dict) else node))
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object", "/")
    version = raw.get("version", SCHEMA)
    _require(version == SCHEMA, ParseError, f"unrecognized version {version!r}", "/version")

    # a seed is the first word of each level's Philox key (see `SampleSpec`)
    config_seed = _at_least(raw.get("seed", 0), 0, "seed", "/seed")
    _require(config_seed < 2**64, ParseError, "seed must be below 2^64", "/seed")
    config_samples = _at_least(raw.get("samples", DEFAULT_SAMPLES), 2, "samples", "/samples")
    seed = config_seed if seed is None else _at_least(seed, 0, "seed", "--seed")
    _require(seed < 2**64, ParseError, "seed must be below 2^64", "--seed")
    samples = config_samples if samples is None else _at_least(samples, 2, "samples", "--samples")
    tol = _tolerance(raw.get("tol", DEFAULT_TOL), "/tol")
    schedule = _check_schedule(raw.get("schedule", {}), "/schedule")

    tables: dict[str, dict] = {}
    readers = {"region": region_from_json, "feature": feature_from_json, "integrand": parse_expression}
    for table, reader in readers.items():
        section = f"{table}s"
        tables[table] = {}
        for name, node in _object(raw.get(section, {}), section, f"/{section}").items():
            try:
                tables[table][name] = reader(node)
            except (ValueError, KeyError, TypeError) as e:
                raise ParseError(f"bad {table}: {e}", f"/{section}/{name}") from None

    tasks = _list(raw.get("tasks", []), "tasks", "/tasks")
    _require(bool(tasks), ParseError, "config defines no tasks", "/tasks")
    jobs, stems = [], set()
    for i, task in enumerate(tasks):
        ptr = f"/tasks/{i}"
        _require(isinstance(task, dict), ParseError, "task must be an object", ptr)
        kind = task.get("task")
        _require(isinstance(kind, str) and kind in TASK_KINDS, ParseError, f"unknown task kind {kind!r}", ptr + "/task")
        name = task.setdefault("name", f"task{i}")
        _require(isinstance(name, str) and _NAME.fullmatch(name) is not None, ParseError,
                 "name must be letters, digits, '_', '.' and '-', not starting with '.'", ptr + "/name")
        if "schedule" in task:
            task["schedule"] = _check_schedule(task["schedule"], ptr + "/schedule")
        spec = SampleSpec(_at_least(task.get("samples", samples), 2, "samples", ptr + "/samples"), seed)
        task_tol = _tolerance(task.get("tol", tol), ptr + "/tol")
        reader = _Task(task, ptr, tables, spec, task_tol, task.get("schedule", schedule))
        job = TASK_KINDS[kind](reader)
        jobs.append(BoundTask(name, kind, job, reader.pairs))
        reader.check_omega()
        for stem in reader.stems:
            _require(stem not in stems, ParseError, f"duplicate task name or CSV stem {stem!r}", ptr + "/name")
            stems.add(stem)

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
    return Config(jobs, resolved)


class _Task:
    """Reads the fields of one task for its kind function.

    Each read resolves a name or checks a value and fails with the field's
    JSON pointer, so a bad field stops the config before any task runs.  The
    task's sample spec, tol and checked schedule settings come bound, the
    --seed and --samples overrides applied.
    """

    def __init__(self, node: dict, ptr: str, tables: dict[str, dict], spec: SampleSpec, tol: float,
                 schedule: dict):
        self.node, self.ptr, self.tables = node, ptr, tables
        self.spec, self.tol, self._schedule = spec, tol, schedule
        self.name = node.get("name")
        self.stems = [self.name]  # the file stems it takes: its name, then any CSV stems its kind adds
        self.pairs = spec.pairs  # the pairs it draws per level, 0 for a kind that draws no sample
        self._omega: Region | None = None

    def at(self, field: str) -> str:
        return f"{self.ptr}/{field}"

    def get(self, field: str) -> Any:
        _require(field in self.node, ParseError, f"task needs field {field!r}", self.at(field))
        return self.node[field]

    def _lookup(self, table: str, name: Any, pointer: str, dim: int | None = None):
        """The named entry of `table`.

        With `dim`, a region or feature must have that dimension and an
        integrand may use no coordinate beyond it.
        """
        known = isinstance(name, str) and name in self.tables[table]
        _require(known, UnknownName, f"undefined {table} {name!r}", pointer)
        entry = self.tables[table][name]
        if dim is not None and table == "integrand":
            _require(entry.arity <= dim, ParseError, f"integrand {name!r} uses x{entry.arity} in dimension {dim}",
                     pointer)
        elif dim is not None:
            _require(entry.dim == dim, ParseError, f"{table} {name!r} has dimension {entry.dim}, omega {dim}", pointer)
        return entry

    def region(self, field: str, dim: int | None = None) -> Region:
        return self._lookup("region", self.get(field), self.at(field), dim)

    def omega(self) -> Region:
        """The task's omega, whose bounding box `check_omega` checks once the kind has read its fields."""
        self._omega = self.region("omega")
        return self._omega

    def check_omega(self) -> None:
        """Omega's bounding box bounds every level of a sampling task, so it must be finite.

        A cusp's bounding box has `dim` coordinates, which the config need
        not spell out, so it is built only after every region, feature and
        point of the task has been checked against omega's dimension.
        """
        if self._omega is not None:
            _require(bbox_is_finite(self._omega.bbox), ParseError, "omega must have a finite bounding box",
                     self.at("omega"))

    def feature(self, field: str, dim: int) -> Feature:
        return self._lookup("feature", self.get(field), self.at(field), dim)

    def integrand(self, field: str, dim: int) -> Expression:
        return self._lookup("integrand", self.get(field), self.at(field), dim)

    def optional(self, field: str, dim: int) -> Expression | None:
        return self.integrand(field, dim) if field in self.node else None

    def _entries(self, field: str, count: int | None) -> list:
        """The list in `field`, with `count` entries, one per coordinate, or at least one."""
        entries = _list(self.get(field), field, self.at(field))
        if count is None:
            _require(bool(entries), ParseError, f"{field} must not be empty", self.at(field))
        else:
            _require(len(entries) == count, ParseError, f"{field} needs {count} entries", self.at(field))
        return entries

    def names(self, field: str, table: str, count: int | None = None, dim: int | None = None) -> list:
        entries = self._entries(field, count)
        return [self._lookup(table, n, f"{self.at(field)}/{j}", dim) for j, n in enumerate(entries)]

    def vector(self, field: str, dim: int) -> Callable:
        """A vector field given as one integrand per coordinate, as a Fortran-ordered (N, dim) block."""
        exprs = self.names(field, "integrand", dim, dim)

        def block(pts):
            out = np.empty((len(pts), dim), order="F")
            for k, e in enumerate(exprs):
                out[:, k] = e(pts)
            return out

        return block

    def point(self, field: str, dim: int) -> tuple[float, ...]:
        return tuple(_number(c, field, f"{self.at(field)}/{j}") for j, c in enumerate(self._entries(field, dim)))

    def number(self, field: str) -> float:
        return _number(self.get(field), field, self.at(field))

    def field(self, field: str, dim: int) -> ScalarField:
        """A scalar-field object {"f": integrand, "grad": [integrands]}; grad is optional."""
        body = _Task(_object(self.get(field), field, self.at(field)), self.at(field), self.tables,
                     self.spec, self.tol, self._schedule)
        return ScalarField(f=body.integrand("f", dim), grad=body.vector("grad", dim) if "grad" in body.node else None)

    def surface(self) -> SurfaceFixture:
        region = self.region("surface")
        nodes = _at_least(self.node.get("nodes", DEFAULT_NODES), 8, "nodes", self.at("nodes"))
        try:
            return SurfaceFixture(region, nodes)
        except UnsupportedFixture as e:
            raise ParseError(str(e), self.at("surface")) from None
        except ValueError as e:  # above the node budget
            raise ParseError(str(e), self.at("nodes")) from None

    def schedule(self, feature: Feature, omega: Region) -> DeltaSchedule:
        """The task's schedule, called by its job: an automatic one that cannot be derived is the task's error."""
        node = self._schedule
        if node["delta0"] is None:
            return DeltaSchedule.auto(feature, omega, node["count"])
        return DeltaSchedule(node["delta0"], node["count"])


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


def _probe_output(name: str, out_dir: Path, result: ProbeResult, **extra):
    """Payload, CSV and the cause that makes it unintegrable, if any, of a task whose result is one profile."""
    csv = _write_series_csv(out_dir, name, _probe_rows(result))
    undefined, capped = sum(l.undefined for l in result.series), sum(l.capped for l in result.series)
    return {**_jsonable(result), **extra}, [csv], _unintegrable(undefined, capped, "near the feature")


def _unintegrable(undefined: int, capped: int, where: str) -> str | None:
    """Why an integrand cannot be integrated, from the samples it dropped as NaN and as beyond the cap; None if none."""
    causes = [cause for cause, count in (("undefined (NaN)", undefined), ("essentially unbounded", capped)) if count]
    return f"integrand {' and '.join(causes)} {where}" if causes else None


# -------------------------------------------------------------- task kinds
# Each kind reads its fields at parse time and returns the job that runs it.

def _density_ratio(t: _Task) -> Job:
    omega = t.omega()
    region, feature = t.region("region", omega.dim), t.feature("feature", omega.dim)
    weight = t.optional("weight", omega.dim)
    return lambda out: _probe_output(t.name, out, density_probe(
        region, feature, omega, t.schedule(feature, omega), t.spec, weight=weight, tol=t.tol
    ))


def _sharp_integral(t: _Task) -> Job:
    omega = t.omega()
    integrand, feature = t.integrand("integrand", omega.dim), t.feature("feature", omega.dim)
    weight = t.optional("weight", omega.dim)
    return lambda out: _probe_output(t.name, out, sharp_integral(
        integrand, feature, omega, t.schedule(feature, omega), t.spec, weight=weight, tol=t.tol
    ))


def _action_interval(t: _Task) -> Job:
    omega = t.omega()
    integrand, feature = t.integrand("integrand", omega.dim), t.feature("feature", omega.dim)
    return lambda out: (_jsonable(action_profile(
        integrand, feature, omega, t.schedule(feature, omega), t.spec, tol=t.tol
    )), [], None)


def _cone_density(t: _Task) -> Job:
    omega = t.omega()
    x, v, alpha = t.point("x", omega.dim), t.point("v", omega.dim), t.number("alpha")
    # the checks geometry.Cone makes when the job runs, without numpy's overflow warning
    with np.errstate(over="ignore"):
        _require(0 < np.linalg.norm(v) < np.inf, ParseError, "v must be a finite nonzero vector", t.at("v"))
    _require(0 < alpha < np.pi / 2, ParseError, "alpha must lie in (0, pi/2)", t.at("alpha"))
    return lambda out: _probe_output(t.name, out, cone_density(
        x, v, alpha, omega, t.schedule(PointFeature(x), omega), t.spec, tol=t.tol
    ))


def _sigma_probe(t: _Task) -> Job:
    omega = t.omega()
    members = t.names("members", "region", dim=omega.dim)
    union, feature = t.region("union", omega.dim), t.feature("feature", omega.dim)
    t.stems += [f"{t.name}_member{k}" for k in range(1, len(members) + 1)] + [f"{t.name}_union"]

    def job(out: Path):
        report = sigma_probe(members, union, feature, omega, t.schedule(feature, omega), t.spec, tol=t.tol)
        profiles = (*report.members, report.union)
        csvs = [_write_series_csv(out, stem, _probe_rows(p)) for stem, p in zip(t.stems[1:], profiles)]
        return _jsonable(report), csvs, None
    return job


def _aura_report(t: _Task) -> Job:
    omega = t.omega()
    feature = t.feature("feature", omega.dim)

    def job(out: Path):
        report = aura_report(feature, omega, t.schedule(feature, omega), t.spec)
        rows = [(l.delta, l.volume, l.volume_stderr, l.hits) for l in report.levels]
        return _jsonable(report), [_write_series_csv(out, t.name, rows)], None
    return job


def _boundary_trace(t: _Task) -> Job:
    omega = t.omega()
    integrand, x = t.integrand("integrand", omega.dim), t.point("x", omega.dim)
    try:
        trace_gradient.boundary_point(omega, x)
    except trace_gradient.NotOnBoundary as e:
        raise ParseError(str(e), t.at("x")) from None
    return lambda out: _probe_output(t.name, out, boundary_trace(
        integrand, omega, x, t.schedule(PointFeature(x), omega), t.spec, tol=t.tol
    ))


def _density_gradient(t: _Task) -> Job:
    omega = t.omega()
    x = t.point("x", omega.dim)
    f = t.optional("integrand", omega.dim)
    # without an integrand the gradient is required
    grad = t.vector("gradient", omega.dim) if f is None or "gradient" in t.node else None
    field = ScalarField(f=f, grad=grad)

    def job(out: Path):
        report = density_gradient(omega, x, t.schedule(PointFeature(x), omega), t.spec, field=field, tol=t.tol)
        payload = _jsonable(report)
        payload["verdicts"] = [
            "unbounded" if (p.unbounded_lo or p.unbounded_hi)
            else ("point" if p.interval.width <= t.tol else "interval")
            for p in report.profiles
        ]
        return payload, [], None
    return job


def _calculus_rule_check(t: _Task) -> Job:
    omega = t.omega()
    x = t.point("x", omega.dim)
    rule = t.node.get("rule", "sum")
    _require(rule in ("sum", "product"), ParseError, "rule must be 'sum' or 'product'", t.at("rule"))
    f1, f2 = t.field("f1", omega.dim), t.field("f2", omega.dim)
    return lambda out: (_jsonable(calculus_rule_check(
        rule, f1, f2, x, omega, t.schedule(PointFeature(x), omega), t.spec, tol=t.tol
    )), [], None)


def _collar_average(t: _Task) -> Job:
    fixture = t.surface()
    integrand = t.integrand("integrand", fixture.region.dim)
    boundary = RegionBoundary(fixture.region)

    def job(out: Path):
        result = collar_average(integrand, fixture, t.schedule(boundary, fixture.region), t.spec, tol=t.tol)
        reference = surface_reference(integrand, fixture)
        return _probe_output(t.name, out, result, surface_reference=_jsonable(reference))
    return job


def _gauss_check(t: _Task) -> Job:
    """A Gauss check, unintegrable once its volume integral drops a sample of the divergence."""
    fixture = t.surface()
    phi, div = t.vector("phi", fixture.region.dim), t.optional("div", fixture.region.dim)

    def job(out: Path):
        report = gauss_check(phi, fixture, t.spec, div=div)
        volume = report.volume_integral
        return _jsonable(report), [], _unintegrable(volume.undefined, volume.capped, "in the region")
    return job


def _fa_lattice(t: _Task) -> Job:
    t.pairs = 0
    node = _object(t.get("measure"), "measure", t.at("measure"))
    try:
        mu = fa_lattice.measure_from_json(node)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad measure: {e}", t.at("measure")) from None
    band = None
    if "band" in t.node:
        try:
            band = mu.algebra.ground.subset(_list(t.node["band"], "band", t.at("band")))
            mu.algebra.require(band)
        except (KeyError, TypeError, fa_lattice.NotInAlgebra) as e:  # TypeError: an unhashable label
            raise ParseError(f"bad band: {e}", t.at("band")) from None

    def job(out: Path):
        full = mu.algebra.ground.full
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
        if band is not None:
            inside, outside = fa_lattice.band_decompose(mu, band)
            payload["band"] = {
                "inside": fa_lattice.measure_to_json(inside),
                "outside": fa_lattice.measure_to_json(outside),
            }
        return payload, [], None
    return job


TASK_KINDS: dict[str, Callable[[_Task], Job]] = {  # a kind is named after its function
    kind.__name__[1:]: kind for kind in (
        _density_ratio, _sharp_integral, _action_interval, _cone_density, _sigma_probe, _aura_report,
        _boundary_trace, _density_gradient, _calculus_rule_check, _collar_average, _gauss_check, _fa_lattice,
    )
}


def run(config: Config, out_dir: str | Path, only: str | None = None) -> int:
    """Run all tasks (or the one named by `only`) where `_in_tasks` puts them; 0 if every task succeeded."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chosen = [task for task in config.jobs if only is None or task.name == only]
    entries = _in_tasks(lambda k: _entry(chosen[k], out), [task.pairs for task in chosen])
    # every entry is JSON-ready already; json.loads may have put NaN into the config
    report = {"schema": SCHEMA, "config": _jsonable(config.resolved), "tasks": entries}
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 2 if any(entry["status"] == "error" for entry in entries) else 0


def _entry(task: BoundTask, out: Path) -> dict:
    """The report entry of one task, whose job writes its CSVs into `out`."""
    entry = {"name": task.name, "task": task.kind}
    try:
        payload, csvs, unintegrable = task.job(out)
        entry["result"] = payload
        entry["csv"] = csvs
        if unintegrable:
            entry["status"] = "error"
            entry["error"] = {"type": "Unintegrable", "message": unintegrable}
        else:
            entry["status"] = "ok"
    except Exception as e:  # per-task isolation: one failure never stops the batch
        entry["status"] = "error"
        entry["error"] = {"type": type(e).__name__, "message": str(e)}
    return entry


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
        config = parse_config(text, args.seed, args.samples)
    except ConfigError as e:
        print(f"config error at {e}", file=sys.stderr)
        return 1
    if args.task is not None and all(task.name != args.task for task in config.jobs):
        print(f"no task named {args.task!r}", file=sys.stderr)
        return 1
    try:
        return run(config, args.out, only=args.task)
    except OSError as e:  # each task's own errors are in the report, so this is --out or report.json
        print(f"cannot write output: {e}", file=sys.stderr)
        return 1
