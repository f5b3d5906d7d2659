"""Environment substrate: from-scratch OpenAI-Gym-style benchmark tasks.

The paper (§VI-A) evaluates on six OpenAI environments.  This package
reimplements them with NumPy (classic-control tasks use the published
Gym dynamics; the two Box2D tasks use reduced-order physics with the
same observation/action interfaces — see DESIGN.md §2).
"""

from repro.envs.acrobot import Acrobot
from repro.envs.base import Environment, StepResult
from repro.envs.bipedal_walker import BipedalWalker
from repro.envs.cartpole import CartPole
from repro.envs.lunar_lander import LunarLander
from repro.envs.mountain_car import MountainCar, MountainCarContinuous
from repro.envs.pendulum import Pendulum
from repro.envs.pong import Pong
from repro.envs.registry import ENV_SUITE, EnvSpec, make, registered_names, spec
from repro.envs.rollout import (
    EpisodeRecord,
    PolicyFn,
    decode_action,
    evaluate_policy,
    run_episode,
)
from repro.envs.spaces import Box, Discrete, Space
from repro.envs.wrappers import Wrapper

__all__ = [
    "Acrobot",
    "BipedalWalker",
    "Box",
    "CartPole",
    "Discrete",
    "ENV_SUITE",
    "EnvSpec",
    "Environment",
    "EpisodeRecord",
    "LunarLander",
    "MountainCar",
    "MountainCarContinuous",
    "Pendulum",
    "Pong",
    "PolicyFn",
    "Space",
    "StepResult",
    "Wrapper",
    "decode_action",
    "evaluate_policy",
    "make",
    "registered_names",
    "run_episode",
    "spec",
]
