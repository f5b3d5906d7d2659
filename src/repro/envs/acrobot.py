"""Acrobot swing-up task (paper's Env2).

A two-link underactuated pendulum; torque is applied only at the joint
between the links, and the goal is to swing the free end above a target
height.  The dynamics are Sutton's acrobot equations as used by Gym's
``Acrobot-v1``, integrated with fourth-order Runge-Kutta.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box, Discrete

__all__ = ["Acrobot"]


def _wrap(x: float, low: float, high: float) -> float:
    """Wrap ``x`` into the half-open interval ``[low, high)``."""
    diff = high - low
    while x >= high:
        x -= diff
    while x < low:
        x += diff
    return x


class Acrobot(Environment):
    """Two-link acrobot with the book (Sutton & Barto) dynamics."""

    name = "acrobot"
    max_episode_steps = 500
    reward_threshold = -100.0

    DT = 0.2
    LINK_LENGTH_1 = 1.0
    LINK_LENGTH_2 = 1.0
    LINK_MASS_1 = 1.0
    LINK_MASS_2 = 1.0
    LINK_COM_POS_1 = 0.5
    LINK_COM_POS_2 = 0.5
    LINK_MOI = 1.0
    GRAVITY = 9.8

    MAX_VEL_1 = 4 * math.pi
    MAX_VEL_2 = 9 * math.pi

    TORQUES = (-1.0, 0.0, 1.0)

    _high = np.array([1.0, 1.0, 1.0, 1.0, MAX_VEL_1, MAX_VEL_2])
    observation_space = Box(-_high, _high)
    action_space = Discrete(3)
    del _high

    def __init__(self, seed: int | None = None):
        super().__init__(seed)
        # internal state: (theta1, theta2, dtheta1, dtheta2)
        self._state = np.zeros(4)

    def _reset(self) -> np.ndarray:
        self._state = self._rng.uniform(-0.1, 0.1, size=4)
        return self._observation()

    def _observation(self) -> np.ndarray:
        t1, t2, dt1, dt2 = self._state
        return np.array(
            [math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2), dt1, dt2]
        )

    def _step(self, action: Any) -> StepResult:
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for {self.action_space}")
        torque = self.TORQUES[int(action)]

        state = self._rk4(self._state, torque)
        t1 = _wrap(state[0], -math.pi, math.pi)
        t2 = _wrap(state[1], -math.pi, math.pi)
        dt1 = float(np.clip(state[2], -self.MAX_VEL_1, self.MAX_VEL_1))
        dt2 = float(np.clip(state[3], -self.MAX_VEL_2, self.MAX_VEL_2))
        self._state = np.array([t1, t2, dt1, dt2])

        done = self._terminal()
        reward = 0.0 if done else -1.0
        return self._observation(), reward, done, {}

    def _terminal(self) -> bool:
        t1, t2 = self._state[0], self._state[1]
        return -math.cos(t1) - math.cos(t2 + t1) > 1.0

    # ---------------------------------------------------------- dynamics
    def _dsdt(self, state: np.ndarray, torque: float) -> np.ndarray:
        m1, m2 = self.LINK_MASS_1, self.LINK_MASS_2
        l1 = self.LINK_LENGTH_1
        lc1, lc2 = self.LINK_COM_POS_1, self.LINK_COM_POS_2
        moi = self.LINK_MOI
        g = self.GRAVITY
        theta1, theta2, dtheta1, dtheta2 = state

        d1 = (
            m1 * lc1**2
            + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * math.cos(theta2))
            + 2 * moi
        )
        d2 = m2 * (lc2**2 + l1 * lc2 * math.cos(theta2)) + moi
        phi2 = m2 * lc2 * g * math.cos(theta1 + theta2 - math.pi / 2.0)
        phi1 = (
            -m2 * l1 * lc2 * dtheta2**2 * math.sin(theta2)
            - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * math.sin(theta2)
            + (m1 * lc1 + m2 * l1) * g * math.cos(theta1 - math.pi / 2)
            + phi2
        )
        ddtheta2 = (
            torque
            + d2 / d1 * phi1
            - m2 * l1 * lc2 * dtheta1**2 * math.sin(theta2)
            - phi2
        ) / (m2 * lc2**2 + moi - d2**2 / d1)
        ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
        return np.array([dtheta1, dtheta2, ddtheta1, ddtheta2])

    def _rk4(self, state: np.ndarray, torque: float) -> np.ndarray:
        dt = self.DT
        k1 = self._dsdt(state, torque)
        k2 = self._dsdt(state + dt / 2 * k1, torque)
        k3 = self._dsdt(state + dt / 2 * k2, torque)
        k4 = self._dsdt(state + dt * k3, torque)
        return state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
