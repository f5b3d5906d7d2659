"""Unit tests for the Environment base class plumbing."""

import numpy as np
import pytest

from repro.envs.base import Environment
from repro.envs.spaces import Box, Discrete


class _Counter(Environment):
    """Minimal environment: obs counts steps, never self-terminates."""

    name = "counter"
    max_episode_steps = 4
    reward_threshold = 10.0

    def __init__(self, seed=None):
        super().__init__(seed)
        self.observation_space = Box(np.array([0.0]), np.array([100.0]))
        self.action_space = Discrete(2)
        self._count = 0

    def _reset(self):
        self._count = 0
        return np.array([0.0])

    def _step(self, action):
        self._count += 1
        return np.array([float(self._count)]), 1.0, False, {}


class TestTimeLimit:
    def test_truncation_at_limit(self):
        env = _Counter()
        env.reset()
        for i in range(3):
            _, _, done, info = env.step(0)
            assert not done
        _, _, done, info = env.step(0)
        assert done and info["truncated"]

    def test_elapsed_steps_counter(self):
        env = _Counter()
        env.reset()
        env.step(0)
        env.step(0)
        assert env.elapsed_steps == 2

    def test_reset_clears_counter(self):
        env = _Counter()
        env.reset()
        env.step(0)
        env.reset()
        assert env.elapsed_steps == 0


class TestSeeding:
    def test_reset_seed_reseeds_rng(self):
        env = _Counter()
        env.reset(seed=5)
        a = env.rng.random()
        env.reset(seed=5)
        b = env.rng.random()
        assert a == b

    def test_reset_without_seed_continues_stream(self):
        env = _Counter(seed=1)
        env.reset()
        a = env.rng.random()
        env.reset()
        b = env.rng.random()
        assert a != b

    def test_generator_is_built_on_first_use(self):
        # a seeded reset replaces the generator, so none is built before
        env = _Counter(seed=1)
        assert env._rng is None
        env.reset(seed=5)
        assert env.rng.random() == np.random.default_rng(5).random()

    def test_constructor_seed_drives_unseeded_episodes(self):
        expected = np.random.default_rng(3).random()
        via_reset = _Counter(seed=3)
        via_reset.reset()
        assert via_reset.rng.random() == expected
        # reading the generator before any reset builds the same one
        assert _Counter(seed=3).rng.random() == expected


class TestInterfaceSizing:
    def test_discrete_outputs_is_action_count(self):
        env = _Counter()
        assert env.num_outputs == 2
        assert env.num_inputs == 1

    def test_box_outputs_is_flat_dim(self):
        env = _Counter()
        env.action_space = Box(np.full(3, -1.0), np.full(3, 1.0))
        assert env.num_outputs == 3

    def test_repr_mentions_spaces(self):
        assert "Discrete(2)" in repr(_Counter())


class TestGuards:
    def test_double_done_guard(self):
        env = _Counter()
        env.reset()
        for _ in range(4):
            env.step(0)
        with pytest.raises(RuntimeError, match="terminated"):
            env.step(0)
