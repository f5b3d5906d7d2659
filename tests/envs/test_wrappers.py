"""Unit tests for environment wrappers."""

import numpy as np

from repro.envs.cartpole import CartPole
from repro.envs.rollout import run_episode
from repro.envs.wrappers import Wrapper


class TestWrapperDelegation:
    def test_interface_passthrough(self):
        env = CartPole(seed=0)
        wrapped = Wrapper(env)
        assert wrapped.num_inputs == env.num_inputs
        assert wrapped.num_outputs == env.num_outputs
        assert wrapped.name == "cartpole"
        assert wrapped.reward_threshold == env.reward_threshold
        assert wrapped.action_space is env.action_space

    def test_step_and_reset_delegate(self):
        env = CartPole(seed=0)
        wrapped = Wrapper(env)
        obs = wrapped.reset(seed=3)
        assert obs.shape == (4,)
        _, reward, _, _ = wrapped.step(0)
        assert reward == 1.0
        assert wrapped.elapsed_steps == 1

    def test_rollout_helpers_accept_wrappers(self):
        env = Wrapper(CartPole(seed=0))
        rec = run_episode(env, lambda o: np.zeros(2), seed=1)
        assert rec.steps >= 1
