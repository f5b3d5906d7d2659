"""Bipedal-walker task (paper's Env4) — Box2D substitution.

Gym's ``BipedalWalker-v3`` is a Box2D articulated biped with a
24-dimensional observation (hull angle/velocities, 4 joint angles and
speeds, 2 ground contacts, 10 lidar rangefinder returns) and 4
continuous joint-torque actions.  Box2D is unavailable offline, so this
module implements a planar torque-controlled biped with the **same
observation and action interface** and a reduced-order contact model:

* each leg has a hip and a knee joint driven by first-order torque
  dynamics with damping and joint limits;
* foot positions follow from leg kinematics; a foot in contact with the
  terrain acts as the stance foot, and the hull advances with the
  horizontal velocity the stance leg's joint motion sweeps out
  (a standard reduced-order "stance-leg" walking model);
* falling (hull pitch beyond the limit or hull touching the ground)
  terminates the episode with the Gym penalty of -100;
* reward is forward progress minus a small torque cost, as in Gym.

This keeps the properties the paper relies on: it is by far the hardest
of the six tasks (matching Table V, where evolved bipedal networks are
the largest), it has the widest network interface (24 in / 4 out), and
episode lengths vary strongly across individuals.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box

__all__ = ["BipedalWalker"]


class BipedalWalker(Environment):
    """Reduced-order planar biped with 4 torque-controlled joints."""

    name = "bipedal_walker"
    max_episode_steps = 1600
    reward_threshold = 300.0

    DT = 1.0 / 50.0
    THIGH_LENGTH = 0.45
    SHIN_LENGTH = 0.5
    # nominal hip height above ground; must sit below the fully-extended
    # leg reach (THIGH + SHIN = 0.95) or the feet can never touch down
    HULL_HEIGHT = 0.8
    HIP_LIMIT = (-0.8, 1.1)
    KNEE_LIMIT = (-1.6, -0.1)
    JOINT_SPEED_LIMIT = 4.0
    JOINT_GAIN = 6.0  # torque -> angular acceleration
    JOINT_DAMPING = 1.5
    PITCH_LIMIT = 1.0
    TORQUE_COST = 0.00035 * 80.0
    PROGRESS_SCALE = 130.0 / 30.0  # reward per unit of forward progress
    LIDAR_COUNT = 10
    LIDAR_RANGE = 1.6
    TRACK_LENGTH = 30.0
    TERRAIN_ROUGHNESS = 0.02

    observation_space = Box(-np.inf, np.inf, shape=(24,))
    action_space = Box(-1.0, 1.0, shape=(4,))

    def __init__(self, seed: int | None = None):
        super().__init__(seed)
        # joints: [hip1, knee1, hip2, knee2] angles and speeds
        self._joints = np.zeros(4)
        self._joint_speeds = np.zeros(4)
        self._hull_x = 0.0
        self._hull_pitch = 0.0
        self._hull_pitch_rate = 0.0
        self._hull_vx = 0.0
        self._hull_vy = 0.0
        self._terrain_phase = 0.0

    # ------------------------------------------------------------- reset
    def _reset(self) -> np.ndarray:
        self._joints = np.array([0.3, -0.6, -0.3, -0.6]) + self._rng.uniform(
            -0.05, 0.05, size=4
        )
        self._joint_speeds = np.zeros(4)
        self._hull_x = 0.0
        self._hull_pitch = self._rng.uniform(-0.05, 0.05)
        self._hull_pitch_rate = 0.0
        self._hull_vx = 0.0
        self._hull_vy = 0.0
        self._terrain_phase = self._rng.uniform(0, 2 * math.pi)
        return self._observation()

    # ----------------------------------------------------------- terrain
    def terrain_height(self, x: float) -> float:
        """Mildly rolling terrain; flat enough to walk on, not trivial."""
        return self.TERRAIN_ROUGHNESS * (
            math.sin(1.7 * x + self._terrain_phase)
            + 0.5 * math.sin(3.1 * x + 2.0 * self._terrain_phase)
        )

    # -------------------------------------------------------- kinematics
    def _foot_position(self, leg: int) -> tuple[float, float]:
        """World-frame foot position for leg 0 or 1."""
        hip, knee = self._joints[2 * leg], self._joints[2 * leg + 1]
        thigh_angle = self._hull_pitch + hip
        shin_angle = thigh_angle + knee
        hip_x = self._hull_x
        hip_y = self.terrain_height(self._hull_x) + self.HULL_HEIGHT
        foot_x = (
            hip_x
            + self.THIGH_LENGTH * math.sin(thigh_angle)
            + self.SHIN_LENGTH * math.sin(shin_angle)
        )
        foot_y = (
            hip_y
            - self.THIGH_LENGTH * math.cos(thigh_angle)
            - self.SHIN_LENGTH * math.cos(shin_angle)
        )
        return foot_x, foot_y

    def _contacts(self) -> tuple[bool, bool]:
        out = []
        for leg in (0, 1):
            fx, fy = self._foot_position(leg)
            out.append(fy <= self.terrain_height(fx) + 0.02)
        return out[0], out[1]

    def _lidar(self) -> np.ndarray:
        """Forward-looking terrain probes, normalized to [0, 1]."""
        readings = np.empty(self.LIDAR_COUNT)
        base_y = self.terrain_height(self._hull_x) + self.HULL_HEIGHT
        for i in range(self.LIDAR_COUNT):
            # rays fan from straight down to ~45 degrees ahead
            frac = i / (self.LIDAR_COUNT - 1)
            dx = frac * self.LIDAR_RANGE
            ground = self.terrain_height(self._hull_x + dx)
            dist = math.hypot(dx, base_y - ground)
            readings[i] = min(dist / self.LIDAR_RANGE, 1.0)
        return readings

    # -------------------------------------------------------------- step
    def _observation(self) -> np.ndarray:
        left_contact, right_contact = self._contacts()
        return np.concatenate(
            [
                [
                    self._hull_pitch,
                    self._hull_pitch_rate,
                    self._hull_vx,
                    self._hull_vy,
                ],
                [
                    self._joints[0],
                    self._joint_speeds[0],
                    self._joints[1],
                    self._joint_speeds[1],
                    float(left_contact),
                ],
                [
                    self._joints[2],
                    self._joint_speeds[2],
                    self._joints[3],
                    self._joint_speeds[3],
                    float(right_contact),
                ],
                self._lidar(),
            ]
        )

    def _step(self, action: Any) -> StepResult:
        torques = np.clip(np.asarray(action, dtype=np.float64).reshape(-1), -1, 1)
        if torques.shape[0] != 4:
            raise ValueError(f"bipedal walker expects 4 torques, got {torques!r}")

        pre_contacts = self._contacts()
        pre_feet = [self._foot_position(0)[0], self._foot_position(1)[0]]

        # joint dynamics: torque-driven with damping and limits
        accel = self.JOINT_GAIN * torques - self.JOINT_DAMPING * self._joint_speeds
        self._joint_speeds = np.clip(
            self._joint_speeds + accel * self.DT,
            -self.JOINT_SPEED_LIMIT,
            self.JOINT_SPEED_LIMIT,
        )
        new_joints = self._joints + self._joint_speeds * self.DT
        for leg in (0, 1):
            lo, hi = self.HIP_LIMIT
            new_joints[2 * leg] = np.clip(new_joints[2 * leg], lo, hi)
            lo, hi = self.KNEE_LIMIT
            new_joints[2 * leg + 1] = np.clip(new_joints[2 * leg + 1], lo, hi)
        # zero speed at the stops
        hit = new_joints != self._joints + self._joint_speeds * self.DT
        self._joint_speeds[hit] = 0.0
        self._joints = new_joints

        # stance-leg propulsion: a foot in ground contact that sweeps
        # backward relative to the hull pushes the hull forward.
        propulsion = 0.0
        stance_legs = 0
        for leg in (0, 1):
            if pre_contacts[leg]:
                stance_legs += 1
                foot_dx = self._foot_position(leg)[0] - pre_feet[leg]
                propulsion += -foot_dx  # backward foot sweep -> forward hull
        if stance_legs:
            self._hull_vx += propulsion / stance_legs / self.DT * 0.9 * self.DT
            self._hull_vx *= 0.92  # stance friction
        else:
            self._hull_vx *= 0.995  # airborne: momentum mostly conserved

        dx = self._hull_vx * self.DT
        prev_height = self.terrain_height(self._hull_x)
        self._hull_x += dx
        self._hull_vy = (self.terrain_height(self._hull_x) - prev_height) / self.DT

        # hull pitch reacts to asymmetric leg configuration
        balance = (self._joints[0] + self._joints[2]) * 0.5
        pitch_accel = -3.0 * self._hull_pitch - 0.8 * self._hull_pitch_rate
        pitch_accel += 0.6 * balance + 0.08 * float(np.sum(torques[:1] - torques[2:3]))
        if not any(pre_contacts):
            pitch_accel -= 1.2  # unsupported hull tips forward
        self._hull_pitch_rate += pitch_accel * self.DT
        self._hull_pitch += self._hull_pitch_rate * self.DT

        # --- reward ---
        reward = self.PROGRESS_SCALE * dx
        reward -= self.TORQUE_COST * float(np.sum(np.abs(torques)))
        reward -= 0.05 * abs(self._hull_pitch)

        done = False
        if abs(self._hull_pitch) > self.PITCH_LIMIT:
            reward -= 100.0
            done = True
        if self._hull_x >= self.TRACK_LENGTH:
            done = True
        if self._hull_x < -0.5:
            done = True

        return self._observation(), reward, done, {"x": self._hull_x}
