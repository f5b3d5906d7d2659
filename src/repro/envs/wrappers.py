"""Environment wrappers.

:class:`Wrapper` delegates the environment interface to a wrapped
:class:`~repro.envs.base.Environment`.  :class:`FaultySensor` builds on
it: deterministic seeded NaN/inf corruption for chaos testing
(:mod:`repro.resilience`), the broken-sensor model a quarantine
pipeline must survive.

Wrappers duck-type the environment interface (reset/step/spaces/
metadata) and delegate everything else to the wrapped instance.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult

__all__ = ["Wrapper", "FaultySensor"]


class Wrapper:
    """Base delegating wrapper."""

    def __init__(self, env: Environment):
        self.env = env

    # ------------------------------------------------------- delegation
    def reset(self, seed: int | None = None) -> np.ndarray:
        return self.env.reset(seed=seed)

    def step(self, action: Any) -> StepResult:
        return self.env.step(action)

    @property
    def observation_space(self):
        return self.env.observation_space

    @property
    def action_space(self):
        return self.env.action_space

    @property
    def max_episode_steps(self) -> int:
        return self.env.max_episode_steps

    @property
    def reward_threshold(self) -> float:
        return self.env.reward_threshold

    @property
    def name(self) -> str:
        return self.env.name

    @property
    def num_inputs(self) -> int:
        return self.env.num_inputs

    @property
    def num_outputs(self) -> int:
        return self.env.num_outputs

    @property
    def rng(self) -> np.random.Generator:
        return self.env.rng

    @property
    def elapsed_steps(self) -> int:
        return self.env.elapsed_steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.env!r})"


class FaultySensor(Wrapper):
    """Deterministic seeded NaN/inf corruption of observations/rewards.

    Models a glitching edge sensor for chaos testing: with probability
    ``obs_nan`` (``obs_inf``) per step, one observation element is
    replaced with NaN (a random-sign inf); with probability
    ``reward_nan`` the step's reward becomes NaN.  The corruption
    stream is derived by hashing the wrapper ``seed`` together with the
    episode's reset seed, so it is independent of the wrapped
    environment's own RNG (physics stay identical to the fault-free
    run) and replays exactly for a given (seed, episode-seed) pair —
    the determinism contract in :doc:`docs/resilience`.

    Reward NaN matters for quarantine coverage: environments with
    constant survival rewards (CartPole) produce *finite* fitness from
    NaN observations, so observation faults alone never exercise the
    NaN-fitness path.
    """

    def __init__(
        self,
        env: Environment,
        obs_nan: float = 0.0,
        obs_inf: float = 0.0,
        reward_nan: float = 0.0,
        seed: int = 0,
    ):
        for name, p in (
            ("obs_nan", obs_nan),
            ("obs_inf", obs_inf),
            ("reward_nan", reward_nan),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        super().__init__(env)
        self.obs_nan = obs_nan
        self.obs_inf = obs_inf
        self.reward_nan = reward_nan
        self.seed = seed
        self._fault_rng = self._derive_rng(None)

    def _derive_rng(self, episode_seed: int | None) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.seed}|faulty_sensor|{episode_seed}".encode()
        ).digest()
        return np.random.default_rng(
            int.from_bytes(digest[:8], "little")
        )

    def _corrupt_obs(self, obs: np.ndarray) -> np.ndarray:
        rng = self._fault_rng
        if self.obs_nan > 0.0 and rng.random() < self.obs_nan:
            obs = np.array(obs, dtype=np.float64, copy=True)
            obs[int(rng.integers(obs.size))] = np.nan
        if self.obs_inf > 0.0 and rng.random() < self.obs_inf:
            obs = np.array(obs, dtype=np.float64, copy=True)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            obs[int(rng.integers(obs.size))] = sign * np.inf
        return obs

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._fault_rng = self._derive_rng(seed)
        return self._corrupt_obs(self.env.reset(seed=seed))

    def step(self, action: Any) -> StepResult:
        obs, reward, done, info = self.env.step(action)
        obs = self._corrupt_obs(obs)
        if self.reward_nan > 0.0 and self._fault_rng.random() < self.reward_nan:
            reward = float("nan")
        return obs, reward, done, info
