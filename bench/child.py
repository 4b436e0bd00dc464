"""One set-up or one pass of a workload, in a fresh interpreter.

run.py starts this script once per set-up sample and once per pass, with
PYTHONPATH pointing at the checkout's `src`, so that import time, set-up
and peak memory belong to this process alone.  Only the standard library
is imported before the set-up clock starts.

    python3 bench/child.py --mode setup|pass --workload NAME --seed N
        --result FILE [--trace] [--config FILE --out DIR]

`--config` and `--out` serve cli_batch, whose traced pass runs the CLI's
`main` in this process; its untraced pass is a plain `pure-measure` process
that run.py starts itself.

In a library pass a machine-speed sample (calibration.py) is taken
before the first operation and after each one, outside the timed
intervals, so run.py can rescale each operation by the samples on either
side of it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import traceback
from time import perf_counter


def _environment() -> dict:
    import numpy

    import puremeasure
    from puremeasure import quadrature

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "puremeasure": puremeasure.__version__,
        "CHUNK_PAIRS": quadrature.CHUNK_PAIRS,
        "MAGNITUDE_CAP": quadrature.MAGNITUDE_CAP,
    }


def _run_op(op) -> dict:
    """Run one operation; its digest covers every field of the result,
    each level's delta, value, stderr and hits included."""
    start = perf_counter()
    try:
        result = op.run()
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        checks = [vars(c) for c in op.checks(result)]
        stderr = op.efficiency(result) if op.efficiency else None
        error = None
    except Exception as e:  # one failing probe must not hide the others
        traceback.print_exc()  # into the pass's log file
        digest, checks, stderr, error = None, [], None, f"{type(e).__name__}: {e}"
    return {
        "name": op.name,
        "seconds": perf_counter() - start,
        "digest": digest,
        "checks": checks,
        "stderr": stderr,
        "error": error,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--out")
    args = parser.parse_args()

    import tracer
    import workloads
    from calibration import speed_sample

    out: dict = {}
    trace = tracer.Tracer() if args.trace else None
    setup_start = perf_counter()
    if args.workload == "cli_batch":
        from puremeasure import cli

        if trace is not None:
            trace.install()
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
        cli.parse_config(text)
        out["setup_s"] = perf_counter() - setup_start
        if args.mode == "pass":
            out["exit"] = cli.main(["--config", args.config, "--out", args.out])
    else:
        import puremeasure  # noqa: F401  (import time is part of set-up)

        if trace is not None:
            trace.install()
        wrap = (lambda name, fn: trace.wrap(tracer.INTEGRAND, f"integrand.{name}", fn)) if trace else (
            lambda name, fn: fn)
        ops = workloads.build(args.workload, args.seed, wrap)
        out["setup_s"] = perf_counter() - setup_start
        if args.mode == "pass":
            out["ops"] = []
            before = speed_sample()
            for op in ops:
                record = _run_op(op)
                record["speed"] = [before, speed_sample()]
                before = record["speed"][1]
                out["ops"].append(record)
    out["environment"] = _environment()
    if trace is not None:
        out["layers"] = trace.metrics()
        out["functions"] = trace.functions()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
