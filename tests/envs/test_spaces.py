"""Unit tests for observation/action spaces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.envs.spaces import Box, Discrete


class TestBox:
    def test_shape_from_bounds(self):
        box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        assert box.shape == (2,)
        assert box.flat_dim == 2

    def test_broadcast_shape(self):
        box = Box(-1.0, 1.0, shape=(4,))
        assert box.shape == (4,)
        assert np.all(box.low == -1.0)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box(np.zeros(2), np.ones(3))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0]), np.array([-1.0]))

    def test_contains_inside_and_outside(self):
        box = Box(np.array([-1.0]), np.array([1.0]))
        assert box.contains(np.array([0.5]))
        assert not box.contains(np.array([1.5]))
        assert not box.contains(np.array([0.5, 0.5]))  # wrong shape

    def test_clip(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        clipped = box.clip(np.array([5.0, -5.0]))
        assert np.array_equal(clipped, np.array([1.0, -1.0]))

    def test_sample_within_bounds(self):
        box = Box(np.array([-2.0, 0.0]), np.array([2.0, 1.0]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert box.contains(box.sample(rng))

    def test_sample_unbounded_does_not_crash(self):
        box = Box(np.array([-np.inf]), np.array([np.inf]))
        rng = np.random.default_rng(0)
        sample = box.sample(rng)
        assert np.isfinite(sample).all()

    def test_equality(self):
        a = Box(np.array([-1.0]), np.array([1.0]))
        b = Box(np.array([-1.0]), np.array([1.0]))
        c = Box(np.array([-2.0]), np.array([1.0]))
        assert a == b
        assert a != c

    @given(st.floats(-100, 0), st.floats(0.001, 100))
    def test_clip_always_contained(self, lo, hi):
        box = Box(np.array([lo]), np.array([hi]))
        assert box.contains(box.clip(np.array([1e9])))
        assert box.contains(box.clip(np.array([-1e9])))

    def test_box_bounds_are_read_only_copies(self):
        low, high = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
        box = Box(low, high)
        low[0] = -5.0  # the caller's arrays stay theirs, and writable
        assert box.low[0] == -1.0
        with pytest.raises(ValueError, match="read-only"):
            box.high[1] = 3.0


class TestDiscrete:
    def test_basic(self):
        d = Discrete(4)
        assert d.n == 4
        assert d.flat_dim == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Discrete(0)

    def test_contains(self):
        d = Discrete(3)
        assert d.contains(0)
        assert d.contains(2)
        assert not d.contains(3)
        assert not d.contains(-1)
        assert not d.contains("x")

    def test_sample_range(self):
        d = Discrete(5)
        rng = np.random.default_rng(1)
        samples = {d.sample(rng) for _ in range(200)}
        assert samples == {0, 1, 2, 3, 4}

    def test_equality(self):
        assert Discrete(3) == Discrete(3)
        assert Discrete(3) != Discrete(4)
        assert Discrete(3) != Box(np.array([0.0]), np.array([1.0]))
