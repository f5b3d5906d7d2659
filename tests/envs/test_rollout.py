"""Unit tests for episode rollouts and action decoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.envs.base import Environment
from repro.envs.cartpole import CartPole
from repro.envs.pendulum import Pendulum
from repro.envs.rollout import (
    decode_action,
    decode_action_batch,
    evaluate_policy,
    run_episode,
    run_lockstep,
)
from repro.envs.spaces import Box, Discrete


def zero_policy(obs):
    return np.zeros(4)


class _CountdownEnv(Environment):
    """Terminates naturally after ``terminate_at`` steps (or never)."""

    name = "countdown"
    max_episode_steps = 10

    def __init__(self, terminate_at=None, seed=None):
        super().__init__(seed)
        high = np.array([np.inf, np.inf])
        self.observation_space = Box(-high, high)
        self.action_space = Discrete(2)
        self.terminate_at = terminate_at
        self._count = 0

    def _reset(self):
        self._count = 0
        return np.zeros(2)

    def _step(self, action):
        self._count += 1
        done = self.terminate_at is not None and self._count >= self.terminate_at
        return np.array([float(self._count), 0.0]), 1.0, done, {}


class TestDecodeAction:
    def test_discrete_argmax(self):
        env = CartPole(seed=0)
        assert decode_action(env, np.array([0.1, 0.9])) == 1
        assert decode_action(env, np.array([0.9, 0.1])) == 0

    def test_discrete_ignores_extra_outputs(self):
        env = CartPole(seed=0)
        assert decode_action(env, np.array([0.0, 1.0, 99.0])) == 1

    def test_discrete_too_few_outputs(self):
        env = CartPole(seed=0)
        with pytest.raises(ValueError, match="needs 2"):
            decode_action(env, np.array([0.5]))

    def test_box_tanh_scaling(self):
        env = Pendulum(seed=0)
        action = decode_action(env, np.array([100.0]))
        assert action == pytest.approx(env.MAX_TORQUE)  # tanh saturates
        action = decode_action(env, np.array([0.0]))
        assert action == pytest.approx(0.0)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_box_always_in_bounds(self, raw):
        env = Pendulum(seed=0)
        action = np.asarray(decode_action(env, np.array([raw])))
        assert env.action_space.contains(action)


class TestRunEpisode:
    def test_record_fields(self):
        env = CartPole(seed=0)
        rec = run_episode(env, zero_policy, seed=1)
        assert rec.steps >= 1
        assert rec.total_reward == pytest.approx(rec.steps)  # +1 per step
        assert rec.rewards == []  # not kept by default

    def test_keep_rewards(self):
        env = CartPole(seed=0)
        rec = run_episode(env, zero_policy, seed=1, keep_rewards=True)
        assert len(rec.rewards) == rec.steps
        assert sum(rec.rewards) == pytest.approx(rec.total_reward)

    def test_max_steps_override(self):
        env = Pendulum(seed=0)
        rec = run_episode(env, lambda o: np.zeros(1), seed=1, max_steps=7)
        assert rec.steps == 7
        assert rec.truncated

    def test_deterministic_with_seed(self):
        env_a, env_b = CartPole(), CartPole()
        rec_a = run_episode(env_a, zero_policy, seed=9)
        rec_b = run_episode(env_b, zero_policy, seed=9)
        assert rec_a.total_reward == rec_b.total_reward
        assert rec_a.steps == rec_b.steps


class TestTruncationReporting:
    def test_natural_termination_on_last_step_not_truncated(self):
        """Regression: an episode that terminates on exactly the final
        allowed step used to be misreported as truncated because the
        external step cap was OR-ed over the environment's own flag."""
        env = _CountdownEnv(terminate_at=_CountdownEnv.max_episode_steps)
        rec = run_episode(env, lambda o: np.array([1.0, 0.0]))
        assert rec.steps == _CountdownEnv.max_episode_steps
        assert not rec.truncated

    def test_time_limit_truncates(self):
        env = _CountdownEnv(terminate_at=None)  # never terminates naturally
        rec = run_episode(env, lambda o: np.array([1.0, 0.0]))
        assert rec.steps == _CountdownEnv.max_episode_steps
        assert rec.truncated

    def test_external_cap_truncates(self):
        env = _CountdownEnv(terminate_at=None)
        rec = run_episode(env, lambda o: np.array([1.0, 0.0]), max_steps=4)
        assert rec.steps == 4
        assert rec.truncated

    def test_early_natural_termination_not_truncated(self):
        env = _CountdownEnv(terminate_at=3)
        rec = run_episode(env, lambda o: np.array([1.0, 0.0]))
        assert rec.steps == 3
        assert not rec.truncated

    def test_lockstep_follows_same_rule(self):
        envs = [
            _CountdownEnv(terminate_at=_CountdownEnv.max_episode_steps),
            _CountdownEnv(terminate_at=None),
            _CountdownEnv(terminate_at=3),
        ]
        records = run_lockstep(
            envs, lambda slots, obs: np.tile([1.0, 0.0], (len(slots), 1))
        )
        assert [r.steps for r in records] == [10, 10, 3]
        assert [r.truncated for r in records] == [False, True, False]


class TestDecodeActionBatch:
    def test_discrete_matches_rowwise(self):
        env = CartPole(seed=0)
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((32, 2))
        raw[5] = [0.5, 0.5]  # tie: both must resolve to the first max
        batch = decode_action_batch(env, raw)
        assert batch == [decode_action(env, raw[i]) for i in range(32)]

    def test_box_matches_rowwise(self):
        env = Pendulum(seed=0)
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((16, 1)) * 3.0
        batch = decode_action_batch(env, raw)
        for i in range(16):
            single = np.asarray(decode_action(env, raw[i]))
            assert np.asarray(batch[i]).tobytes() == single.tobytes()

    def test_too_few_outputs_rejected(self):
        env = CartPole(seed=0)
        with pytest.raises(ValueError, match="needs 2"):
            decode_action_batch(env, np.zeros((3, 1)))


class TestRunLockstep:
    def test_matches_individual_episodes(self):
        """A lock-step episode's record is bit-identical to running the
        same policy/seed alone through run_episode."""
        seeds = [11, 22, 33, 44]
        envs = [CartPole() for _ in seeds]
        records = run_lockstep(
            envs,
            lambda slots, obs: np.zeros((len(slots), 2)),
            seeds=seeds,
            keep_rewards=True,
        )
        for seed, rec in zip(seeds, records):
            solo = run_episode(
                CartPole(), zero_policy, seed=seed, keep_rewards=True
            )
            assert rec.total_reward == solo.total_reward
            assert rec.steps == solo.steps
            assert rec.truncated == solo.truncated
            assert rec.rewards == solo.rewards

    def test_mixed_lengths_all_complete(self):
        envs = [_CountdownEnv(terminate_at=t) for t in (2, 7, 4)]
        records = run_lockstep(
            envs, lambda slots, obs: np.tile([1.0, 0.0], (len(slots), 1))
        )
        assert [r.steps for r in records] == [2, 7, 4]
        assert [r.total_reward for r in records] == [2.0, 7.0, 4.0]

    def test_seed_count_mismatch(self):
        with pytest.raises(ValueError, match="one entry per env"):
            run_lockstep(
                [CartPole(), CartPole()],
                lambda slots, obs: np.zeros((len(slots), 2)),
                seeds=[1],
            )

    def test_no_envs(self):
        assert run_lockstep([], lambda slots, obs: np.zeros((0, 2))) == []


class TestEvaluatePolicy:
    def test_averages_over_episodes(self):
        env = CartPole(seed=0)
        fitness = evaluate_policy(env, zero_policy, episodes=3, seeds=[1, 2, 3])
        per_episode = [
            run_episode(CartPole(), zero_policy, seed=s).total_reward
            for s in (1, 2, 3)
        ]
        assert fitness == pytest.approx(np.mean(per_episode))

    def test_seed_count_mismatch(self):
        env = CartPole(seed=0)
        with pytest.raises(ValueError, match="one entry per episode"):
            evaluate_policy(env, zero_policy, episodes=2, seeds=[1])
