import random

import numpy as np
import pytest

from hexapn.rng import GOLDEN, MASK, Stream64, mix64

# a scalar numpy uint64 overflow would only warn; make it fail instead
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_mix64_int_reference():
    # the first output of SplitMix64 from state 0 (Steele, Lea & Flood)
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(0) == 0
    assert mix64(MASK + 1 + GOLDEN) == mix64(GOLDEN)


def test_mix64_array_matches_int():
    words = np.concatenate([
        np.array([0, 1, 1 << 63, MASK, GOLDEN], dtype=np.uint64),
        np.random.default_rng(28).integers(0, MASK, 10_000, dtype=np.uint64, endpoint=True),
    ])
    before = words.copy()
    out = mix64(words)
    assert out.dtype == np.uint64
    assert np.array_equal(words, before)  # the argument is left unchanged
    assert out.tolist() == [mix64(w) for w in words.tolist()]


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
def test_below_tuple_indices_are_counter_words(n):
    # N^5 divides 2^64, so Stream64.below(N^5) never rejects: draw k is the
    # mixed counter word k mod N^5, and a whole row of draws is one array mix64
    n5 = n ** 5
    rng = random.Random(n)
    counters = np.arange(300, dtype=np.uint64)
    for seed in (0, 123457, -1, -(1 << 40) - 3, 1 << 63, MASK):
        for j in (0, 1, rng.randrange(1000), rng.randrange(1 << 20), rng.randrange(1 << 63), MASK):
            st = Stream64(seed, j)
            got = mix64(np.uint64(st.state0) + counters * np.uint64(GOLDEN)) & np.uint64(n5 - 1)
            assert got.dtype == np.uint64
            assert got.tolist() == [st.below(n5) for _ in range(300)], (seed, j)
