"""CartPole balance task (paper's Env1).

Dynamics follow the classic Barto, Sutton & Anderson cart-pole system as
implemented in OpenAI Gym's ``CartPole-v1``: a pole hinged on a cart that
moves along a frictionless track, with a binary push-left/push-right
action.  Reward is +1 per surviving step.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box, Discrete

__all__ = ["CartPole"]


class CartPole(Environment):
    """Cart-pole balancing with Euler-integrated Gym dynamics."""

    name = "cartpole"
    max_episode_steps = 500
    reward_threshold = 475.0

    GRAVITY = 9.8
    CART_MASS = 1.0
    POLE_MASS = 0.1
    POLE_HALF_LENGTH = 0.5
    FORCE_MAG = 10.0
    TAU = 0.02  # seconds between state updates

    X_THRESHOLD = 2.4
    THETA_THRESHOLD = 12 * 2 * math.pi / 360  # ~0.2095 rad

    def __init__(
        self,
        seed: int | None = None,
        pole_mass: float | None = None,
        pole_half_length: float | None = None,
        force_mag: float | None = None,
    ):
        """Physics parameters are overridable for the model-tuning
        scenario (§I): adapt a deployed controller to a perturbed
        plant (heavier or longer pole, weaker actuator)."""
        super().__init__(seed)
        if pole_mass is not None:
            if pole_mass <= 0:
                raise ValueError("pole_mass must be > 0")
            self.POLE_MASS = pole_mass
        if pole_half_length is not None:
            if pole_half_length <= 0:
                raise ValueError("pole_half_length must be > 0")
            self.POLE_HALF_LENGTH = pole_half_length
        if force_mag is not None:
            if force_mag <= 0:
                raise ValueError("force_mag must be > 0")
            self.FORCE_MAG = force_mag
        high = np.array(
            [
                self.X_THRESHOLD * 2,
                np.inf,
                self.THETA_THRESHOLD * 2,
                np.inf,
            ]
        )
        self.observation_space = Box(-high, high)
        self.action_space = Discrete(2)
        self._state = np.zeros(4)

    def _reset(self) -> np.ndarray:
        self._state = self._rng.uniform(-0.05, 0.05, size=4)
        return self._state.copy()

    def _step(self, action: Any) -> StepResult:
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for {self.action_space}")
        # Physics runs on plain Python floats: bit-identical to float64
        # scalar math, several times cheaper than np.float64 scalars, and
        # env.step sits on the generation critical path next to inference.
        x, x_dot, theta, theta_dot = self._state.tolist()
        force = self.FORCE_MAG if int(action) == 1 else -self.FORCE_MAG

        total_mass = self.CART_MASS + self.POLE_MASS
        pole_mass_length = self.POLE_MASS * self.POLE_HALF_LENGTH

        cos_theta = math.cos(theta)
        sin_theta = math.sin(theta)
        temp = (force + pole_mass_length * theta_dot**2 * sin_theta) / total_mass
        theta_acc = (self.GRAVITY * sin_theta - cos_theta * temp) / (
            self.POLE_HALF_LENGTH
            * (4.0 / 3.0 - self.POLE_MASS * cos_theta**2 / total_mass)
        )
        x_acc = temp - pole_mass_length * theta_acc * cos_theta / total_mass

        x += self.TAU * x_dot
        x_dot += self.TAU * x_acc
        theta += self.TAU * theta_dot
        theta_dot += self.TAU * theta_acc
        obs = np.array([x, x_dot, theta, theta_dot])
        self._state = obs

        done = (
            abs(x) > self.X_THRESHOLD or abs(theta) > self.THETA_THRESHOLD
        )
        return obs, 1.0, done, {}

    # ------------------------------------------ structure-of-arrays kernel
    BATCH_PARAMS = (
        "GRAVITY",
        "CART_MASS",
        "POLE_MASS",
        "POLE_HALF_LENGTH",
        "FORCE_MAG",
        "TAU",
        "X_THRESHOLD",
        "THETA_THRESHOLD",
    )

    @classmethod
    def _gather_batch(cls, envs: list[Environment]) -> np.ndarray:
        return np.array([env._state for env in envs], dtype=np.float64)

    def _step_batch(
        self, state: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``_step`` over rows ``(x, x_dot, theta, theta_dot)``.

        Same operations in the same order as the scalar path (see the
        float contract in DESIGN.md): ``np.float_power`` is libm ``pow``,
        like Python's ``**`` on floats, which is *not* always ``v * v``.
        """
        x, x_dot, theta, theta_dot = state.T
        force = np.where(actions == 1, self.FORCE_MAG, -self.FORCE_MAG)

        total_mass = self.CART_MASS + self.POLE_MASS
        pole_mass_length = self.POLE_MASS * self.POLE_HALF_LENGTH

        cos_theta = np.cos(theta)
        sin_theta = np.sin(theta)
        temp = (
            force + pole_mass_length * np.float_power(theta_dot, 2) * sin_theta
        ) / total_mass
        theta_acc = (self.GRAVITY * sin_theta - cos_theta * temp) / (
            self.POLE_HALF_LENGTH
            * (
                4.0 / 3.0
                - self.POLE_MASS * np.float_power(cos_theta, 2) / total_mass
            )
        )
        x_acc = temp - pole_mass_length * theta_acc * cos_theta / total_mass

        x = x + self.TAU * x_dot
        x_dot = x_dot + self.TAU * x_acc
        theta = theta + self.TAU * theta_dot
        theta_dot = theta_dot + self.TAU * theta_acc
        # one C-order row per instance: the next state and observation
        obs = np.array((x, x_dot, theta, theta_dot)).T.copy()

        done = (np.abs(x) > self.X_THRESHOLD) | (
            np.abs(theta) > self.THETA_THRESHOLD
        )
        return obs, obs, np.ones(len(obs)), done

    def _scatter_batch(self, row: np.ndarray) -> None:
        self._state = row.copy()
