"""The harness that the fork tests share: their scripts run in fresh interpreters.

Under pytest numpy's BLAS thread may keep every run serial, and forking a
threaded process warns on Python 3.12, so a test hands its script to
`run_script`, which runs it with single-threaded BLAS and warnings as
errors.  The script calls `start`, which pins it to two of its CPUs, counts
its `os.fork` calls and fakes an idle machine (`runnable` sets the load),
and ends with `finish`, which checks that no child was left and that the
affinity mask is restored.
"""

import os
import subprocess
import sys
import tempfile

from puremeasure import density_engine
from puremeasure.__main__ import _BLAS_THREADS

CANNOT_FORK = not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or len(os.sched_getaffinity(0)) < 2


def run_script(script: str) -> list[str]:
    """The lines that `script` printed, run with the package and the tests importable; it must exit 0."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(density_engine.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, tests)), "PYTHONWARNINGS": "error",
           **dict.fromkeys(_BLAS_THREADS, "1")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def start() -> tuple[set[int], int, list]:
    """Pin this process to two of its CPUs, count its forks and fake an idle machine: (mask, pid, forks)."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    forks, fork = [], os.fork
    os.fork = lambda: forks.append(1) or fork()
    fd, density_engine._LOADAVG = tempfile.mkstemp()
    os.close(fd)
    runnable(1)
    return os.sched_getaffinity(0), os.getpid(), forks


def runnable(count: int) -> None:
    """Fake the machine's runnable tasks, as the kernel counts them, this process included."""
    with open(density_engine._LOADAVG, "w") as loadavg:
        loadavg.write(f"0.00 0.00 0.00 {count}/100 1")


def finish(mask: set[int]) -> None:
    """Check that no child was left and that the affinity mask is `mask` again; remove the faked load."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("a child was left")
    assert os.sched_getaffinity(0) == mask
    os.unlink(density_engine._LOADAVG)
