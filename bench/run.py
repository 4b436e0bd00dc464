"""The puremeasure benchmark: one workload, one seed, timed passes, checked outputs.

    python3 bench/run.py --workload point_probes|thin_features|cli_batch
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh child process
and repeats until S seconds have gone by (at least two passes untraced, one
untraced/traced pair traced).  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with `--trace 0`, the per-layer ones with `--trace 1`.  The lines
before it give every metric with its unit, the environment and the probes.
bench/README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from calibration import at_reference_speed, speed_sample

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 11
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "stderr_sqrt_s": "sqrt_s",
    "probe_ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_METRICS = {
    "geometry.self_s": "s",
    "geometry.calls": "count",
    "geometry.points": "count",
    "quadrature.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.samples": "count",
    "quadrature.hit_frac": "frac",
    "quadrature.capped": "count",
    "surface_rep.self_s": "s",
    "surface_rep.nodes": "count",
    "trace_gradient.self_s": "s",
    "trace_gradient.calls": "count",
    "fa_lattice.self_s": "s",
    "fa_lattice.calls": "count",
    "expressions.self_s": "s",
    "expressions.points": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    "density_engine.self_s": "s",
    "density_engine.levels": "count",
    "integrand.self_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts child processes inside the checkout and records what they did."""

    def __init__(self, root: Path, work: Path, args):
        self.root = root
        self.work = work
        self.args = args
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            # one thread per process: the passes themselves are single-process
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.count = 0
        self.last_speed: float | None = None  # parent's latest speed sample: brackets set-ups and CLI passes
        self.config_path = work / "config.json"
        if args.workload == "cli_batch":
            self.config = workloads.cli_config(args.seed)
            self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")

    def spawn(self, cmd: list[str], tag: str) -> dict:
        """Run cmd to completion; wall time from spawn to exit, peak RSS of the child."""
        timeout = max(self.deadline - perf_counter(), 1.0)
        with open(self.work / f"{tag}.log", "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exit": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}

    def child(self, mode: str, trace: bool = False, out: Path | None = None) -> tuple[dict, dict | None]:
        self.count += 1
        tag = f"{mode}{self.count}"
        result = self.work / f"{tag}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed), "--result", str(result)]
        if trace:
            cmd.append("--trace")
        if self.args.workload == "cli_batch":
            cmd += ["--config", str(self.config_path)]
            if out is not None:
                cmd += ["--out", str(out)]
        proc = self.spawn(cmd, tag)
        if proc["exit"] != 0 or not result.is_file():
            _report_child_failure(self.work / f"{tag}.log")
            return proc, None
        return proc, json.loads(result.read_text(encoding="utf-8"))

    def setup(self) -> dict | None:
        """One set-up child, rescaled by the parent's speed samples around it
        (a sample inside the child, right after its imports, runs cold)."""
        before = self.last_speed or speed_sample()
        _, data = self.child("setup")
        self.last_speed = speed_sample()
        if data is None:
            return None
        data["raw_s"] = data["setup_s"]
        data["setup_s"] = at_reference_speed(data["raw_s"], before, self.last_speed)
        return data

    def run_pass(self, trace: bool) -> dict:
        """One pass: per-op digests, errors and checks, plus wall time and memory."""
        if self.args.workload == "cli_batch":
            return self._cli_pass(trace)
        proc, data = self.child("pass", trace)
        if data is None:
            return {"ops": [], "crashed": True}
        for op in data["ops"]:
            op["reference_s"] = at_reference_speed(op["seconds"], *op["speed"])
        return {
            "ops": data["ops"],
            "crashed": False,
            "raw_wall_s": sum(o["seconds"] for o in data["ops"]),
            "wall_s": sum(o["reference_s"] for o in data["ops"]),
            "peak_rss_mb": proc["peak_rss_mb"],
            "stderr_sqrt_s": _geomean([o["stderr"] * math.sqrt(o["reference_s"])
                                       for o in data["ops"] if o["stderr"] is not None]),
            "layers": data.get("layers"),
            "environment": data["environment"],
        }

    def _cli_pass(self, trace: bool) -> dict:
        self.count += 1
        out = self.work / f"cli{self.count}"
        before = self.last_speed or speed_sample()
        if trace:
            proc, data = self.child("pass", trace=True, out=out)
            exit_code = data["exit"] if data else None
        else:
            proc = self.spawn([sys.executable, "-m", "puremeasure", "--config", str(self.config_path),
                               "--out", str(out)], f"cli{self.count}")
            data, exit_code = None, proc["exit"]
        self.last_speed = speed_sample()
        wall = at_reference_speed(proc["wall_s"], before, self.last_speed)
        record = {"raw_wall_s": proc["wall_s"], "wall_s": wall, "peak_rss_mb": proc["peak_rss_mb"],
                  "crashed": exit_code is None, "ops": _cli_ops(self.config, out, exit_code),
                  "bytes_out": _tree_bytes(out)}
        stderrs = [_last_stderr(out / name) for name in workloads.CLI_EFFICIENCY_CSVS]
        if all(s is not None for s in stderrs):
            record["stderr_sqrt_s"] = _geomean(stderrs) * math.sqrt(wall)
        if data:
            record["layers"] = data["layers"]
            record["environment"] = data["environment"]
        shutil.rmtree(out, ignore_errors=True)
        return record


def _report_child_failure(log: Path) -> None:
    tail = log.read_text(encoding="utf-8", errors="replace")[-2000:] if log.is_file() else ""
    print(f"child process failed ({log.name}):\n{tail}", file=sys.stderr)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def _last_stderr(csv: Path) -> float | None:
    if not csv.is_file():
        return None
    last = csv.read_text(encoding="utf-8").strip().splitlines()[-1]
    return float(last.split(",")[2])


def _cli_ops(config: dict, out: Path, exit_code: int | None) -> list[dict]:
    """One record per task plus one for the process and its report.json."""
    report_path = out / "report.json"
    process = {"name": "process", "digest": None, "checks": [], "error": None}
    if exit_code != 0 or not report_path.is_file():
        process["error"] = f"exit code {exit_code}"
        return [process]
    report_bytes = report_path.read_bytes()
    process["digest"] = hashlib.sha256(report_bytes).hexdigest()
    report = json.loads(report_bytes)
    checks = workloads.cli_checks(config, report)
    ops = [process]
    for entry in report["tasks"]:
        h = hashlib.sha256(json.dumps(entry, sort_keys=True).encode())
        for name in entry.get("csv", []):
            h.update((out / name).read_bytes())
        name = entry["name"]
        ops.append({
            "name": name,
            "digest": h.hexdigest(),
            "checks": [vars(c) for c in checks.get(name, [])],
            "error": None if entry["status"] == "ok" else json.dumps(entry.get("error")),
        })
    return ops


def _geomean(values: list[float]) -> float | None:
    if not values or any(v <= 0 for v in values):
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Failures against attempts, and probe checks against their references."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.misses = 0
        self.wrong = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def add_pass(self, record: dict, reference: dict | None, label: str) -> None:
        """Count a pass's operations; compare digests with the reference pass."""
        if record["crashed"]:
            self.attempted += 1
            self.fail(f"{label}: child process crashed")
            return
        ref = {o["name"]: o["digest"] for o in reference["ops"]} if reference else {}
        for op in record["ops"]:
            self.attempted += 1
            if op["error"]:
                self.fail(f"{label}: {op['name']} raised {op['error']}")
            elif reference is not None and ref.get(op["name"]) != op["digest"]:
                self.fail(f"{label}: {op['name']} output differs from the first pass")
            for check in op["checks"]:
                self.checks += 1
                self.misses += not check["ok"]
                self.wrong += check["wrong"]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _probe_list(record: dict) -> list[str]:
    return [f"{op['name']}.{c['name']}" for op in record["ops"] for c in op["checks"]]


def untraced(runner: Runner, args, tally: Tally) -> tuple[dict, dict, list, dict]:
    setups = []
    for _ in range(SETUP_RUNS):
        setup = runner.setup()
        tally.attempted += 1
        if setup is None:
            tally.fail("set-up child failed")
        else:
            setups.append(setup)
    passes: list[dict] = []
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < args.seconds:
        record = runner.run_pass(trace=False)
        reference = next((p for p in passes if not p["crashed"]), None)
        tally.add_pass(record, reference, f"pass {len(passes) + 1}")
        passes.append(record)
    good = [p for p in passes if not p["crashed"]]
    if not good or not setups:
        return {}, {}, passes, {}
    eff = [p["stderr_sqrt_s"] for p in good if p.get("stderr_sqrt_s") is not None]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in good),
        "stderr_sqrt_s": statistics.median(eff) if eff else None,
        "probe_ok_frac": 1.0 - tally.misses / tally.checks if tally.checks else None,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
    }
    raw = {
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in good),
        "raw_setup_s": statistics.median(s["raw_s"] for s in setups),
    }
    return metrics, dict(setups[0]["environment"]), passes, raw


def traced(runner: Runner, args, tally: Tally) -> tuple[dict, dict, list, dict]:
    """Untraced/traced pass pairs; traced outputs must match the untraced ones."""
    plain: list[dict] = []
    tracing: list[dict] = []
    start = perf_counter()
    while not tracing or perf_counter() - start < args.seconds:
        record = runner.run_pass(trace=False)
        reference = next((p for p in plain if not p["crashed"]), None)
        tally.add_pass(record, reference, f"untraced pass {len(plain) + 1}")
        plain.append(record)
        reference = reference or (None if record["crashed"] else record)
        record = runner.run_pass(trace=True)
        if reference is None:
            tally.fail("no untraced pass to compare the traced pass with")
        tally.add_pass(record, reference, f"traced pass {len(tracing) + 1}")
        tracing.append(record)
    good_plain = [p for p in plain if not p["crashed"]]
    good_traced = [p for p in tracing if not p["crashed"] and p.get("layers")]
    if not good_plain or not good_traced:
        return {}, {}, plain + tracing, {}
    metrics = {}
    for name in LAYER_METRICS:
        values = [_layer_value(p, name) for p in good_traced]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in good_traced)
                                   - statistics.median(p["wall_s"] for p in good_plain))
    return metrics, dict(good_traced[0]["environment"]), plain + tracing, {}


def _layer_value(record: dict, name: str) -> float:
    """A per-layer metric of one traced pass; times at reference speed, like wall_s."""
    layers = record["layers"]
    if name.endswith(".self_s"):
        return layers.get(name, 0.0) * record["wall_s"] / record["raw_wall_s"]
    if name == "quadrature.hit_frac":
        samples = layers.get("quadrature.samples", 0)
        return layers.get("quadrature.hits", 0) / samples if samples else 0.0
    if name == "cli.bytes_out":
        return record.get("bytes_out", 0)
    return layers.get(name, 0)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "puremeasure" / "__init__.py").is_file():
        print("no puremeasure sources under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, args)
    tally = Tally()
    measure = traced if args.trace else untraced
    metrics, environment, passes, raw = measure(runner, args, tally)
    missing = [name for name, value in metrics.items() if value is None]
    if not metrics or missing:
        for note in tally.notes:
            print(note, file=sys.stderr)
        print(f"no complete measurement; missing: {', '.join(missing) or 'every metric'}", file=sys.stderr)
        return 1

    units = LAYER_METRICS if args.trace else END_TO_END_UNITS
    environment.update({
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "passes": len(passes),
        "probes": _probe_list(next(p for p in passes if not p["crashed"])),
    })
    summary = {
        **raw,
        "miss_frac": 1.0 - metrics["probe_ok_frac"] if "probe_ok_frac" in metrics else None,
        "fail_frac": tally.failed / tally.attempted,
        "wrong_answers": tally.wrong,
        "notes": tally.notes,
    }
    record = {"environment": environment, "metrics": metrics, "units": units, "summary": summary, "passes": passes}
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("environment: " + json.dumps(environment))
    for name, value in metrics.items():
        print(f"{name:24s} {value:.6g} {units[name]}")
    if not args.trace:
        for name in ("raw_wall_s", "raw_setup_s"):
            print(f"{name:24s} {summary[name]:.6g} s (not rescaled)")
        print(f"{'miss_frac':24s} {summary['miss_frac']:.6g} frac")
        print(f"{'fail_frac':24s} {summary['fail_frac']:.6g} frac")
    for note in tally.notes:
        print("failure: " + note)
    result = {
        "correct": tally.failed == 0 and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
