"""Search for the Korobov generator of the lattice sequence in puremeasure.quadrature.

The sampler's points are random shifts of the extensible rank-1 lattice
sequence whose first 2^m points form, for every m, the lattice of 2^m points
and generator (1, a, a^2, ...) mod 2^m (Hickernell, Hong, L'Ecuyer & Lemieux
2000).  This script picks a, one bit range at a time:

1. the low M_SEARCH bits exhaustively, minimising the worst ratio, over
   m = M_LOW..M_SEARCH, of the weighted P2 figure of merit (the mean square
   error of a randomly shifted lattice rule, worst case in the weighted
   Korobov space of smoothness 2) to the best P2 any generator reaches at
   2^m points;
2. the bits up to M_P2 greedily, one at a time, by P2 at 2^m points;
3. the remaining bits up to LATTICE_BITS greedily by the 2-D spectral test of
   the projections (1, a^j), j = 1..3, where P2 would enumerate too many
   points.

It takes a few seconds and needs numpy only.

    python3 tools/lattice_search.py          # print the generator
    python3 tools/lattice_search.py --check  # exit 1 unless it equals quadrature.LATTICE_A
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

DIMS = 9  # the most unit-cube coordinates a proposal in up to 8-D uses
# Product weights that halve with each coordinate, so that among the projections
# that are not exact (every 1-D one is) the 2-D (1, a), which every 2-D box
# reads, weighs most.
WEIGHTS = [0.5 ** j for j in range(DIMS)]
M_LOW, M_SEARCH, M_P2, LATTICE_BITS = 2, 13, 20, 32
BLOCK = 1 << 19  # candidate-point entries evaluated at once


def p2(generators: np.ndarray, m: int) -> np.ndarray:
    """Weighted P2 of the 2^m-point Korobov lattices of the given odd generators (mod 2^m)."""
    n = 1 << m
    k = np.arange(n, dtype=np.int64)
    x = k / n
    # 1 + gamma_j 2 pi^2 B2(x), with B2(x) = x^2 - x + 1/6, tabulated on the grid k / n
    tables = [1.0 + g * 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0) for g in WEIGHTS]
    out = np.empty(len(generators))
    rows = max(1, BLOCK // n)
    for lo in range(0, len(generators), rows):
        a = generators[lo:lo + rows, None].astype(np.int64) % n
        z = np.ones_like(a)
        prod = np.ones((len(a), n))
        for table in tables:
            prod *= table[(k * z) % n]
            z = (z * a) % n
        out[lo:lo + rows] = prod.mean(axis=1) - 1.0
    return out


def dual_shortest(z: int, n: int) -> float:
    """Length of the shortest nonzero h with h1 + h2 z = 0 mod n (Gauss-Lagrange reduction)."""
    u, v = (n, 0), (-z % n, 1)
    norm = lambda w: w[0] * w[0] + w[1] * w[1]
    if norm(u) < norm(v):
        u, v = v, u
    while True:
        q = round((u[0] * v[0] + u[1] * v[1]) / norm(v))
        u = (u[0] - q * v[0], u[1] - q * v[1])
        if norm(u) >= norm(v):
            return math.sqrt(norm(v))
        u, v = v, u


def spectral(a: int, m: int) -> float:
    """The worst normalised 2-D spectral figure of the projections (1, a^j), j = 1..3, at 2^m points."""
    n = 1 << m
    best = (4.0 / 3.0) ** 0.25 * math.sqrt(n)  # the hexagonal lattice's, the largest possible
    return min(dual_shortest(pow(a, j, n), n) for j in range(1, 4)) / best


def search() -> int:
    odd = {m: np.arange(1, 1 << m, 2) for m in range(M_LOW, M_SEARCH + 1)}
    ratio = np.zeros(len(odd[M_SEARCH]))
    for m, generators in odd.items():
        merit = p2(generators, m)
        # candidate c mod 2^m sits at index (c mod 2^m) // 2 of this m's table
        ratio = np.maximum(ratio, (merit / merit.min())[(odd[M_SEARCH] % (1 << m)) // 2])
    a = int(odd[M_SEARCH][np.argmin(ratio)])
    for m in range(M_SEARCH + 1, M_P2 + 1):
        pair = np.array([a, a + (1 << (m - 1))])
        a = int(pair[np.argmin(p2(pair, m))])
    for m in range(M_P2 + 1, LATTICE_BITS + 1):
        a = max((a, a + (1 << (m - 1))), key=lambda c: spectral(c, m))  # ties keep the lower
    return a


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed quadrature.LATTICE_A")
    args = parser.parse_args()
    a = search()
    print(f"LATTICE_A = {a:#010x}  # {a}")
    if not args.check:
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from puremeasure.quadrature import LATTICE_A, LATTICE_BITS as BITS

    if (LATTICE_A, BITS) != (a, LATTICE_BITS):
        print(f"quadrature.LATTICE_A is {LATTICE_A:#010x} on {BITS} bits: not reproduced", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
