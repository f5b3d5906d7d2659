"""Mountain-car task (paper's Env3).

The Moore (1990) mountain car as implemented by Gym's
``MountainCar-v0``: an under-powered car in a valley must build momentum
to reach the flag on the right hill.  We also provide the continuous
variant used when a continuous-action baseline is wanted.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box, Discrete

__all__ = ["MountainCar", "MountainCarContinuous"]


class MountainCar(Environment):
    """Discrete-action mountain car (push left / coast / push right)."""

    name = "mountain_car"
    max_episode_steps = 200
    reward_threshold = -110.0

    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.5
    GOAL_VELOCITY = 0.0
    FORCE = 0.001
    GRAVITY = 0.0025

    observation_space = Box(
        np.array([MIN_POSITION, -MAX_SPEED]), np.array([MAX_POSITION, MAX_SPEED])
    )
    action_space = Discrete(3)

    def __init__(self, seed: int | None = None):
        super().__init__(seed)
        self._state = np.zeros(2)

    def _reset(self) -> np.ndarray:
        self._state = np.array([self._rng.uniform(-0.6, -0.4), 0.0])
        return self._state.copy()

    def _step(self, action: Any) -> StepResult:
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for {self.action_space}")
        position, velocity = self._state
        velocity += (int(action) - 1) * self.FORCE - self.GRAVITY * math.cos(
            3 * position
        )
        velocity = float(np.clip(velocity, -self.MAX_SPEED, self.MAX_SPEED))
        position = float(
            np.clip(position + velocity, self.MIN_POSITION, self.MAX_POSITION)
        )
        if position <= self.MIN_POSITION and velocity < 0:
            velocity = 0.0
        self._state = np.array([position, velocity])
        done = position >= self.GOAL_POSITION and velocity >= self.GOAL_VELOCITY
        return self._state.copy(), -1.0, done, {}


class MountainCarContinuous(Environment):
    """Continuous-force mountain car (Gym ``MountainCarContinuous-v0``)."""

    name = "mountain_car_continuous"
    max_episode_steps = 999
    reward_threshold = 90.0

    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.45
    POWER = 0.0015
    GRAVITY = 0.0025

    observation_space = Box(
        np.array([MIN_POSITION, -MAX_SPEED]), np.array([MAX_POSITION, MAX_SPEED])
    )
    action_space = Box(np.array([-1.0]), np.array([1.0]))

    def __init__(self, seed: int | None = None):
        super().__init__(seed)
        self._state = np.zeros(2)

    def _reset(self) -> np.ndarray:
        self._state = np.array([self._rng.uniform(-0.6, -0.4), 0.0])
        return self._state.copy()

    def _step(self, action: Any) -> StepResult:
        force = float(np.clip(np.asarray(action).reshape(-1)[0], -1.0, 1.0))
        position, velocity = self._state
        velocity += force * self.POWER - self.GRAVITY * math.cos(3 * position)
        velocity = float(np.clip(velocity, -self.MAX_SPEED, self.MAX_SPEED))
        position = float(
            np.clip(position + velocity, self.MIN_POSITION, self.MAX_POSITION)
        )
        if position <= self.MIN_POSITION and velocity < 0:
            velocity = 0.0
        self._state = np.array([position, velocity])
        done = position >= self.GOAL_POSITION
        reward = 100.0 if done else 0.0
        reward -= 0.1 * force**2
        return self._state.copy(), reward, done, {}
