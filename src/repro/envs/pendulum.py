"""Inverted-pendulum swing-up task (paper's Env6).

Gym's ``Pendulum-v1`` dynamics: a frictionless pendulum actuated by a
bounded torque must be swung upright and held there.  The reward is the
negative quadratic cost on angle, angular velocity, and applied torque,
so episode returns are always negative and "solving" means getting close
to zero.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box

__all__ = ["Pendulum"]


def _angle_normalize(x: float) -> float:
    return ((x + math.pi) % (2 * math.pi)) - math.pi


class Pendulum(Environment):
    """Torque-limited pendulum swing-up with quadratic cost."""

    name = "pendulum"
    max_episode_steps = 200
    # Gym defines no official threshold; the paper sets a per-task required
    # fitness.  An average return of -200 is the commonly used "solved" bar.
    reward_threshold = -200.0

    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0
    DT = 0.05
    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0

    # the physics overrides below never change the spaces
    _high = np.array([1.0, 1.0, MAX_SPEED])
    observation_space = Box(-_high, _high)
    action_space = Box(np.array([-MAX_TORQUE]), np.array([MAX_TORQUE]))
    del _high

    def __init__(
        self,
        seed: int | None = None,
        mass: float | None = None,
        length: float | None = None,
        gravity: float | None = None,
    ):
        """Physics parameters are overridable to model the paper's
        model-tuning scenario (§I): a controller trained on the nominal
        plant is redeployed on a perturbed one (heavier bob, longer rod)
        and adapted in place."""
        super().__init__(seed)
        if mass is not None:
            if mass <= 0:
                raise ValueError("mass must be > 0")
            self.MASS = mass
        if length is not None:
            if length <= 0:
                raise ValueError("length must be > 0")
            self.LENGTH = length
        if gravity is not None:
            self.GRAVITY = gravity
        self._state = np.zeros(2)  # (theta, theta_dot)

    def _reset(self) -> np.ndarray:
        theta = self._rng.uniform(-math.pi, math.pi)
        theta_dot = self._rng.uniform(-1.0, 1.0)
        self._state = np.array([theta, theta_dot])
        return self._observation()

    def _observation(self) -> np.ndarray:
        theta, theta_dot = self._state
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    def _step(self, action: Any) -> StepResult:
        torque = float(
            np.clip(
                np.asarray(action).reshape(-1)[0],
                -self.MAX_TORQUE,
                self.MAX_TORQUE,
            )
        )
        theta, theta_dot = self._state

        cost = (
            _angle_normalize(theta) ** 2
            + 0.1 * theta_dot**2
            + 0.001 * torque**2
        )

        g, m, length, dt = self.GRAVITY, self.MASS, self.LENGTH, self.DT
        theta_dot = theta_dot + (
            3 * g / (2 * length) * math.sin(theta)
            + 3.0 / (m * length**2) * torque
        ) * dt
        theta_dot = float(np.clip(theta_dot, -self.MAX_SPEED, self.MAX_SPEED))
        theta = theta + theta_dot * dt
        self._state = np.array([theta, theta_dot])

        return self._observation(), -cost, False, {}
