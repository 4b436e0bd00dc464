"""Check that two checkouts of puremeasure give the same bytes.

A change that claims to move no bit runs both checkouts on the same inputs
and compares what they give:

- every op digest of a `bench/child.py --mode pass` of `point_probes` and
  `thin_features` at seeds 1, 7 and 53, the SHA-256 of each operation's
  result repr, every level's value, stderr and hits included;
- every file that the `pure-measure` CLI writes for the benchmark's
  `cli_config(0)` and `cli_config(905)` and for the 3-D and 8-D shells
  config of CI's Determinism step (tools/shells.json), and its exit status.

Each checkout runs its own `bench/child.py` and CLI from its own `src`.  The
CLI configs come from this tree's `bench/workloads.py` and
tools/shells.json, so both checkouts read the same ones.  Every process
gets the thread variables that `bench/run.py` sets (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS all 1), so numpy starts no BLAS thread
and a large profile forks its levels as it does in the benchmark.  The
processes run one at a time, ~25 s in all on a 2-core VM.  It prints every
difference and exits 1 if there is one, else 0; it writes only to a
temporary directory.

    python3 tools/same_bytes.py PARENT CHANGE
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("point_probes", "thin_features")
SEEDS = (1, 7, 53)
CLI_SEEDS = (0, 905)
SHELLS = ROOT / "tools" / "shells.json"


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src"),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _digests(checkout: Path, workload: str, seed: int, result: Path) -> tuple[dict[str, str], list[str]]:
    """Each op's digest in one pass of the workload, and a line for each op or pass that failed."""
    cmd = [sys.executable, str(checkout / "bench" / "child.py"), "--mode", "pass", "--workload", workload,
           "--seed", str(seed), "--result", str(result)]
    proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    if proc.returncode != 0 or not result.is_file():
        return {}, [f"the pass exited {proc.returncode} in {checkout}: {proc.stderr.strip()[-500:]}"]
    ops = json.loads(result.read_text(encoding="utf-8"))["ops"]
    return ({op["name"]: op["digest"] for op in ops if op["digest"]},
            [f"{op['name']} failed in {checkout}: {op['error']}" for op in ops if not op["digest"]])


def _cli(checkout: Path, config: Path, out: Path) -> dict[str, bytes]:
    """Every file the CLI writes for the config, by path under its output directory, and its exit status."""
    cmd = [sys.executable, "-m", "puremeasure", "--config", str(config), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True)
    files = {"(exit status)": str(proc.returncode).encode()}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def _differences(label: str, parent: dict, change: dict) -> list[str]:
    lines = []
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            lines.append(f"{label}: {key} only in {'change' if a is None else 'parent'}")
        elif a != b:
            lines.append(f"{label}: {key} differs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("change", type=Path, help="the checkout under test")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "src" / "puremeasure" / "__init__.py").is_file() or not (path / "bench").is_dir():
            parser.error(f"{path} is not a puremeasure checkout with src/ and bench/")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    found = []
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        work = Path(tmp)
        for workload in WORKLOADS:
            for seed in SEEDS:
                label = f"{workload} seed {seed}"
                (parent, failed), (change, also) = (
                    _digests(path, workload, seed, work / f"{side}_{workload}_{seed}.json")
                    for side, path in checkouts.items())
                found += [f"{label}: {line}" for line in failed + also] + _differences(label, parent, change)
                print(f"{label}: {len(parent)} ops compared", flush=True)
        configs = {"shells": SHELLS}
        for seed in CLI_SEEDS:
            configs[f"cli_config({seed})"] = work / f"cli_config_{seed}.json"
            configs[f"cli_config({seed})"].write_text(json.dumps(workloads.cli_config(seed)), encoding="utf-8")
        for name, path in configs.items():
            parent, change = (_cli(checkout, path, work / f"{side}_{name}")
                              for side, checkout in checkouts.items())
            found += _differences(name, parent, change)
            print(f"{name}: {len(parent) - 1} files compared", flush=True)
    for line in found:
        print(line)
    print("same bytes" if not found else f"{len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
