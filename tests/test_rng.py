"""Seeded randomness: `child_seed` is cached, and the cache changes nothing."""

import numpy as np
import pytest

from approxnewton import rng


@pytest.mark.parametrize("seed", [7, np.int64(7), 2**64 - 1, np.uint64(2**64 - 1)])
def test_cached_child_seed_is_the_seed_sequence_derivation(seed):
    want = np.random.SeedSequence(entropy=[int(seed), 1, 3]).generate_state(
        1, dtype=np.uint64
    )[0]
    rng.child_seed.cache_clear()
    for _ in range(2):  # a miss, then a hit
        got = rng.child_seed(seed, 1, 3)
        assert type(got) is int and got == int(want)
