"""The `pure-measure` command, also run as `python -m puremeasure`.

numpy starts its BLAS thread pool when it is imported, and a process with
more than one OS thread runs every profile serially (density_engine).  No
task of the CLI needs BLAS threads, so `main` makes BLAS single-threaded,
whatever the environment held, before it imports `cli` and with it numpy.
This module loads only `os` and `gc` itself; `import puremeasure` sets nothing.
Both commands call `entry`, which runs `main` and then freezes the collector,
as the process exits next: the exit runs no full collection over what is
left, and reference counting still frees it.  `main` itself freezes nothing.
"""

import gc
import os

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    from . import cli

    return cli.main(argv)


def entry(argv=None) -> int:
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
