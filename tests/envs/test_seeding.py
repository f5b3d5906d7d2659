"""The wave reset's seeding against NumPy's own, bit for bit.

:func:`repro.envs.seeding.first_doubles` is a second implementation of
``np.random.default_rng(seed)``'s ``SeedSequence``/``PCG64`` set-up.
Generated seeds cover the whole accepted range, and the fixed edges
cover the places where a seed's 32-bit word count changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.seeding import SEED_BOUND, accepts, first_doubles, uniform

#: one and two 32-bit words, and the ends of the signed and unsigned range
EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

seeds_strategy = st.lists(
    st.integers(0, SEED_BOUND - 1) | st.sampled_from(EDGES),
    min_size=1,
    max_size=40,
)


def _assert_numpy_bits(seeds, k):
    got = first_doubles(seeds, k)
    want = np.array(
        [np.random.default_rng(seed).random(k) for seed in seeds]
    ).reshape(len(seeds), k)
    assert got.dtype == np.float64 and got.shape == (len(seeds), k)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("k", range(9))
def test_edge_seeds(k):
    _assert_numpy_bits(EDGES, k)


@settings(max_examples=200, deadline=None)
@given(seeds=seeds_strategy, k=st.integers(0, 8))
def test_generated_seeds(seeds, k):
    _assert_numpy_bits(seeds, k)


def test_a_wave_of_episode_seeds():
    """A backend-sized wave of 63-bit seeds, as ``_episode_seed`` draws."""
    seeds = (
        np.random.default_rng(11)
        .integers(0, 2**63, size=3000, dtype=np.uint64)
        .tolist()
    )
    _assert_numpy_bits(seeds, 4)


def test_numpy_integer_seeds():
    seeds = [np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1)]
    _assert_numpy_bits(seeds, 3)


def test_no_seeds():
    assert first_doubles([], 4).shape == (0, 4)


@pytest.mark.parametrize(
    "bad", [-1, SEED_BOUND, 2**70, np.int64(-1), 1.0, None, "3", True]
)
def test_refuses_seeds_outside_the_range(bad):
    assert accepts([1, 2**40])
    assert not accepts([1, bad])
    with pytest.raises(ValueError, match="2\\*\\*64"):
        first_doubles([1, bad], 4)


@pytest.mark.parametrize(
    "low, high", [(-0.05, 0.05), (-0.3, 0.3), (-0.4, 0.0), (-np.pi, np.pi)]
)
def test_uniform_repeats_generator_uniform(low, high):
    seeds = list(range(200)) + EDGES
    got = uniform(first_doubles(seeds, 4), low, high)
    sized = [np.random.default_rng(s).uniform(low, high, size=4) for s in seeds]
    assert got.tobytes() == np.array(sized).tobytes()
    first = [np.random.default_rng(s).uniform(low, high) for s in seeds]
    assert got[:, 0].tobytes() == np.array(first).tobytes()
