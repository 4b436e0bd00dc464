"""The pairs a sweep evaluates, replicate by replicate, for tests that read the sample stream itself."""

from typing import Iterator

import numpy as np

from puremeasure.quadrature import Proposal, _Base, _lattice, _replicates, _shifts, _Work


def replicate_pairs(proposal: Proposal, seed: int, stream: int, pairs: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each replicate's pairs of a pass of `pairs` requested pairs, one (points, reflections) block per replicate.

    This is what `sweep` evaluates, replicate by replicate, from the same
    preparation; each replicate gets a work block of its own, so the blocks
    stay valid after the next one is drawn.
    """
    reps, size = _replicates(pairs)
    prepared = _Base(proposal, _lattice(proposal.coords, size), _shifts(seed, stream, reps, proposal.coords))
    for r in range(reps):
        yield prepared.halves(_Work(size, proposal, False), r, r + 1, 0, size)
