"""Pong-lite: the suite's Atari-class task (paper's Env7).

§VI-A says the evaluation used "a mix of control benchmarks and Atari
games", and Fig 11's caption averages over "Env1-Env7"; footnote 4 only
names the six control tasks, so the seventh is an unnamed Atari game.
The Atari Learning Environment is unavailable offline; this module
provides the closest self-contained equivalent: a RAM-observation Pong
against a tracking opponent.

* observation (6): ball x/y, ball vx/vy, own paddle y, opponent paddle y
  (the "RAM" view Atari agents commonly train on, normalized);
* actions (3): stay / up / down;
* reward: +1 per rally won, -1 per rally lost; an episode is a match to
  ``POINTS_TO_WIN`` points either way;
* the opponent tracks the ball with capped speed and a reaction delay,
  so it is beatable but not trivially.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.envs.base import Environment, StepResult
from repro.envs.spaces import Box, Discrete

__all__ = ["Pong"]


class Pong(Environment):
    """Planar two-paddle pong with RAM-style observations."""

    name = "pong"
    max_episode_steps = 2000
    #: win a 5-point match with a 3-point margin on average
    reward_threshold = 3.0

    FIELD_W = 1.0
    FIELD_H = 1.0
    PADDLE_HALF = 0.1
    PADDLE_SPEED = 0.035
    OPPONENT_SPEED = 0.022
    BALL_SPEED = 0.03
    SPIN = 0.012  # paddle movement deflects the ball
    POINTS_TO_WIN = 5

    STAY, UP, DOWN = range(3)

    observation_space = Box(-1.0, 1.0, shape=(6,))
    action_space = Discrete(3)

    def __init__(self, seed: int | None = None):
        super().__init__(seed)
        self._ball = np.zeros(2)
        self._ball_v = np.zeros(2)
        self._own_y = 0.5
        self._opp_y = 0.5
        self._own_score = 0
        self._opp_score = 0

    # ------------------------------------------------------------- reset
    def _reset(self) -> np.ndarray:
        self._own_y = 0.5
        self._opp_y = 0.5
        self._own_score = 0
        self._opp_score = 0
        self._serve(direction=1 if self._rng.random() < 0.5 else -1)
        return self._observation()

    def _serve(self, direction: int) -> None:
        self._ball = np.array([0.5, self._rng.uniform(0.3, 0.7)])
        angle = self._rng.uniform(-0.35, 0.35)
        self._ball_v = self.BALL_SPEED * np.array(
            [direction * np.cos(angle), np.sin(angle)]
        )

    def _observation(self) -> np.ndarray:
        # normalized to [-1, 1]-ish around the field center
        return np.array(
            [
                self._ball[0] * 2 - 1,
                self._ball[1] * 2 - 1,
                self._ball_v[0] / self.BALL_SPEED,
                self._ball_v[1] / self.BALL_SPEED,
                self._own_y * 2 - 1,
                self._opp_y * 2 - 1,
            ]
        )

    # -------------------------------------------------------------- step
    def _step(self, action: Any) -> StepResult:
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r} for {self.action_space}")
        action = int(action)

        own_move = 0.0
        if action == self.UP:
            own_move = self.PADDLE_SPEED
        elif action == self.DOWN:
            own_move = -self.PADDLE_SPEED
        self._own_y = float(
            np.clip(self._own_y + own_move, self.PADDLE_HALF,
                    self.FIELD_H - self.PADDLE_HALF)
        )

        # opponent: tracks the ball, but only when it approaches
        if self._ball_v[0] > 0:
            error = self._ball[1] - self._opp_y
            step = float(
                np.clip(error, -self.OPPONENT_SPEED, self.OPPONENT_SPEED)
            )
            self._opp_y = float(
                np.clip(self._opp_y + step, self.PADDLE_HALF,
                        self.FIELD_H - self.PADDLE_HALF)
            )

        self._ball += self._ball_v

        # wall bounces
        if self._ball[1] <= 0.0 or self._ball[1] >= self.FIELD_H:
            self._ball[1] = float(np.clip(self._ball[1], 0.0, self.FIELD_H))
            self._ball_v[1] = -self._ball_v[1]

        reward = 0.0
        # own paddle at x=0, opponent at x=FIELD_W
        if self._ball[0] <= 0.0:
            if abs(self._ball[1] - self._own_y) <= self.PADDLE_HALF:
                self._ball[0] = 0.0
                self._ball_v[0] = abs(self._ball_v[0])
                self._ball_v[1] += self.SPIN * np.sign(own_move)
            else:
                self._opp_score += 1
                reward = -1.0
                self._serve(direction=-1)
        elif self._ball[0] >= self.FIELD_W:
            if abs(self._ball[1] - self._opp_y) <= self.PADDLE_HALF:
                self._ball[0] = self.FIELD_W
                self._ball_v[0] = -abs(self._ball_v[0])
            else:
                self._own_score += 1
                reward = 1.0
                self._serve(direction=1)

        done = (
            self._own_score >= self.POINTS_TO_WIN
            or self._opp_score >= self.POINTS_TO_WIN
        )
        info = {"own_score": self._own_score, "opp_score": self._opp_score}
        return self._observation(), reward, done, info
