"""Machine-speed samples, so pass times can be put on one scale.

The machine this benchmark runs on shares its cores: the speed of the same
code drifts by ±20% over seconds to minutes, far more than a regression we
want to catch.  A fixed task timed right before and after each operation
measures that speed; an operation's time divided by the task's adjacent
time, times `REFERENCE_S`, is its time at reference speed.  The task mixes
what puremeasure spends its time on: Philox draws, vectorised distances and
comparisons, and interpreted Python.  It never touches puremeasure, so a
change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.009  # seconds the task lasts at reference speed (its median on a 2-core x86-64 VM)
ROUNDS = 5  # runs of the task per sample; their median is kept


def speed_sample() -> float:
    """Median seconds of the fixed task over ROUNDS runs."""
    import numpy as np

    times = []
    for _ in range(ROUNDS):
        start = perf_counter()
        gen = np.random.Generator(np.random.Philox(seed=12345))
        u = gen.random((8192, 3))
        for _ in range(24):
            (np.linalg.norm(u - 0.5, axis=1) < 0.5).sum()
        total = 0
        for i in range(36000):
            total += i * i % 7
        times.append(perf_counter() - start)
    times.sort()
    return times[ROUNDS // 2]


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two speed samples, rescaled to reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
