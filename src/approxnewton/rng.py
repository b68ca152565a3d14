"""Seeded randomness.

Every random object in the package is derived from an integer seed through
the counter-based Philox bit generator, so identical seeds reproduce
identical payloads bit-for-bit across runs and platforms.  Per-iteration
streams inside a solver run are derived with `child_seed`, which folds the
run seed and a stream tag through `numpy.random.SeedSequence`; iterations
therefore draw from statistically independent streams.
"""

from __future__ import annotations

import functools

import numpy as np


def generator(seed: int) -> np.random.Generator:
    """Return the package-standard generator for an integer seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@functools.lru_cache(maxsize=4096)  # a pure function, called at every step
def child_seed(seed: int, *tags: int) -> int:
    """Derive a deterministic sub-seed from a run seed and stream tags."""
    ss = np.random.SeedSequence(entropy=[int(seed)] + [int(t) for t in tags])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
