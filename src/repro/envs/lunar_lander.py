"""Lunar-lander task (paper's Env5) — Box2D substitution.

Gym's ``LunarLander-v2`` simulates a rigid lander with two legs in Box2D.
Box2D is unavailable offline, so this module implements a simplified
rigid-body lander with the **same interface**: an 8-dimensional
observation ``(x, y, vx, vy, angle, angular velocity, left-leg contact,
right-leg contact)``, four discrete actions (no-op / left thruster /
main engine / right thruster), and the same reward structure (potential
shaping on position/velocity/angle, fuel cost per engine firing, +/-100
terminal bonus, +10 per leg touching down).

The dynamics are 2-D rigid-body mechanics integrated explicitly: gravity,
a main engine thrusting along the body axis, and side thrusters that
apply lateral force plus torque.  This preserves what the paper's
workload needs from the environment — an 8-input/4-output control task
whose episode lengths vary strongly across individuals — while replacing
the contact solver with an analytic touchdown test.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box, Discrete

__all__ = ["LunarLander"]


class LunarLander(Environment):
    """Simplified rigid-body lunar lander with discrete thruster actions."""

    name = "lunar_lander"
    max_episode_steps = 400
    reward_threshold = 200.0

    DT = 1.0 / 50.0
    GRAVITY = -1.6  # lunar gravity, scaled units
    MAIN_ENGINE_ACCEL = 4.0
    SIDE_ENGINE_ACCEL = 1.2
    SIDE_ENGINE_TORQUE = 1.6
    ANGULAR_DAMPING = 0.12
    LEG_SPAN = 0.18  # half-distance between the two leg tips
    HELIPAD_HALF_WIDTH = 0.25
    SAFE_LANDING_SPEED = 0.6
    SAFE_LANDING_ANGLE = 0.35
    FIELD_HALF_WIDTH = 1.5
    START_ALTITUDE = 1.4

    NOOP, LEFT_THRUSTER, MAIN_ENGINE, RIGHT_THRUSTER = range(4)

    def __init__(self, seed: int | None = None):
        super().__init__(seed)
        high = np.array([1.5, 1.5, 5.0, 5.0, math.pi, 5.0, 1.0, 1.0])
        self.observation_space = Box(-high, high)
        self.action_space = Discrete(4)
        # state: x, y, vx, vy, angle, angular velocity
        self._state = np.zeros(6)
        self._prev_shaping: float | None = None

    # ------------------------------------------------------------- reset
    def _reset(self) -> np.ndarray:
        x = self._rng.uniform(-0.3, 0.3)
        vx = self._rng.uniform(-0.4, 0.4)
        vy = self._rng.uniform(-0.4, 0.0)
        angle = self._rng.uniform(-0.1, 0.1)
        self._state = np.array([x, self.START_ALTITUDE, vx, vy, angle, 0.0])
        self._prev_shaping = None
        return self._observation()

    def _observation(
        self, contacts: tuple[bool, bool] | None = None
    ) -> np.ndarray:
        x, y, vx, vy, angle, omega = self._state
        left, right = self._leg_contacts() if contacts is None else contacts
        return np.array([x, y, vx, vy, angle, omega, float(left), float(right)])

    def _leg_contacts(self) -> tuple[bool, bool]:
        _, y, _, _, angle, _ = self._state
        # leg tips at +/- LEG_SPAN along the body's lateral axis, below
        # the hull; legs only sense vertical proximity in this model
        drop = self.LEG_SPAN * math.sin(-angle)
        return y - drop <= 0.01, y + drop <= 0.01

    # -------------------------------------------------------------- step
    def _step(self, action: Any) -> StepResult:
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for {self.action_space}")
        action = int(action)
        x, y, vx, vy, angle, omega = self._state

        ax, ay = 0.0, self.GRAVITY
        fuel_cost = 0.0
        if action == self.MAIN_ENGINE:
            # main engine thrusts along the body's "up" axis
            ax += -math.sin(angle) * self.MAIN_ENGINE_ACCEL
            ay += math.cos(angle) * self.MAIN_ENGINE_ACCEL
            fuel_cost = 0.30
        elif action == self.LEFT_THRUSTER:
            ax += self.SIDE_ENGINE_ACCEL * math.cos(angle)
            omega += self.SIDE_ENGINE_TORQUE * self.DT
            fuel_cost = 0.03
        elif action == self.RIGHT_THRUSTER:
            ax += -self.SIDE_ENGINE_ACCEL * math.cos(angle)
            omega -= self.SIDE_ENGINE_TORQUE * self.DT
            fuel_cost = 0.03

        vx += ax * self.DT
        vy += ay * self.DT
        x += vx * self.DT
        y += vy * self.DT
        omega *= 1.0 - self.ANGULAR_DAMPING * self.DT
        angle += omega * self.DT
        angle = ((angle + math.pi) % (2 * math.pi)) - math.pi
        self._state = np.array([x, y, vx, vy, angle, omega])
        contacts = self._leg_contacts()

        # --- reward shaping (mirrors Gym's potential-based shaping) ---
        shaping = (
            -100.0 * math.sqrt(x * x + y * y)
            - 100.0 * math.sqrt(vx * vx + vy * vy)
            - 100.0 * abs(angle)
            + 10.0 * sum(contacts)
        )
        reward = 0.0
        if self._prev_shaping is not None:
            reward = shaping - self._prev_shaping
        self._prev_shaping = shaping
        reward -= fuel_cost

        done = False
        if y <= 0.0:
            done = True
            if self._is_safe_landing():
                reward += 100.0
            else:
                reward -= 100.0
        elif abs(x) > self.FIELD_HALF_WIDTH or y > 2.0 * self.START_ALTITUDE:
            done = True
            reward -= 100.0

        return self._observation(contacts), reward, done, {}

    def _is_safe_landing(self) -> bool:
        x, _, vx, vy, angle, _ = self._state
        speed = math.sqrt(vx * vx + vy * vy)
        return (
            abs(x) <= self.HELIPAD_HALF_WIDTH
            and speed <= self.SAFE_LANDING_SPEED
            and abs(angle) <= self.SAFE_LANDING_ANGLE
        )

    # ------------------------------------------ structure-of-arrays kernel
    BATCH_PARAMS = (
        "DT",
        "GRAVITY",
        "MAIN_ENGINE_ACCEL",
        "SIDE_ENGINE_ACCEL",
        "SIDE_ENGINE_TORQUE",
        "ANGULAR_DAMPING",
        "LEG_SPAN",
        "HELIPAD_HALF_WIDTH",
        "SAFE_LANDING_SPEED",
        "SAFE_LANDING_ANGLE",
        "FIELD_HALF_WIDTH",
        "START_ALTITUDE",
    )

    #: fuel cost per step, indexed by action (the scalar path's literals)
    _FUEL_COST = np.array([0.0, 0.03, 0.30, 0.03])
    _FUEL_COST.flags.writeable = False

    @classmethod
    def _gather_batch(cls, envs: list[Environment]) -> np.ndarray:
        """Rows ``(x, y, vx, vy, angle, omega, prev_shaping, has_prev)``."""
        state = np.zeros((len(envs), 8))
        state[:, :6] = [env._state for env in envs]
        for row, env in zip(state, envs):
            if env._prev_shaping is not None:
                row[6:] = env._prev_shaping, 1.0
        return state

    def _step_batch(
        self, state: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``_step`` over the rows of :meth:`_gather_batch`.

        Each branch of the scalar path is computed for every row and
        selected per row by action, with the same operations in the
        same order, so the selected values carry the same bits.
        """
        x, y, vx, vy, angle, omega, prev_shaping, has_prev = state.T
        left = actions == self.LEFT_THRUSTER
        main = actions == self.MAIN_ENGINE
        right = actions == self.RIGHT_THRUSTER
        cos_angle = np.cos(angle)
        ax = np.where(
            main,
            0.0 + -np.sin(angle) * self.MAIN_ENGINE_ACCEL,
            np.where(
                left,
                0.0 + self.SIDE_ENGINE_ACCEL * cos_angle,
                np.where(
                    right, 0.0 + -self.SIDE_ENGINE_ACCEL * cos_angle, 0.0
                ),
            ),
        )
        ay = np.where(
            main,
            self.GRAVITY + cos_angle * self.MAIN_ENGINE_ACCEL,
            self.GRAVITY,
        )
        turn = self.SIDE_ENGINE_TORQUE * self.DT
        omega = np.where(
            left, omega + turn, np.where(right, omega - turn, omega)
        )
        fuel_cost = self._FUEL_COST[actions]

        vx = vx + ax * self.DT
        vy = vy + ay * self.DT
        x = x + vx * self.DT
        y = y + vy * self.DT
        omega = omega * (1.0 - self.ANGULAR_DAMPING * self.DT)
        angle = angle + omega * self.DT
        angle = np.remainder(angle + math.pi, 2 * math.pi) - math.pi

        drop = self.LEG_SPAN * np.sin(-angle)
        left_leg = (y - drop <= 0.01).astype(np.float64)
        right_leg = (y + drop <= 0.01).astype(np.float64)
        speed = np.sqrt(vx * vx + vy * vy)
        abs_x = np.abs(x)
        abs_angle = np.abs(angle)
        shaping = (
            -100.0 * np.sqrt(x * x + y * y)
            - 100.0 * speed
            - 100.0 * abs_angle
            + 10.0 * (left_leg + right_leg)
        )
        reward = (
            np.where(has_prev != 0, shaping - prev_shaping, 0.0) - fuel_cost
        )

        landed = y <= 0.0
        done = landed | (abs_x > self.FIELD_HALF_WIDTH) | (
            y > 2.0 * self.START_ALTITUDE
        )
        if done.any():  # most ticks end no episode: skip the bonus terms
            safe = (
                (abs_x <= self.HELIPAD_HALF_WIDTH)
                & (speed <= self.SAFE_LANDING_SPEED)
                & (abs_angle <= self.SAFE_LANDING_ANGLE)
            )
            bonus = np.where(landed & safe, reward + 100.0, reward - 100.0)
            reward = np.where(done, bonus, reward)

        # one C-order row per instance in each; separate arrays, so an
        # observation never aliases the state, as in the scalar path
        columns = (x, y, vx, vy, angle, omega)
        has_prev = np.ones(len(x))
        new_state = np.array((*columns, shaping, has_prev)).T.copy()
        obs = np.array((*columns, left_leg, right_leg)).T.copy()
        return new_state, obs, reward, done

    def _scatter_batch(self, row: np.ndarray) -> None:
        self._state = row[:6].copy()
        self._prev_shaping = row[6] if row[7] else None
