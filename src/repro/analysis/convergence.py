"""Convergence analysis: normalized fitness (Fig 2).

The paper normalizes each task's achieved fitness to [0, 1] — "when the
algorithm achieves 1.0, it means it finishes the task" — so traces from
tasks with wildly different reward scales share one plot.  The natural
zero point is what a random policy scores, which this module measures
per task.
"""

from __future__ import annotations

import numpy as np

from repro.envs.registry import make
from repro.envs.rollout import evaluate_policy

__all__ = [
    "random_policy_baseline",
    "normalize_fitness",
]


def random_policy_baseline(
    env_name: str, episodes: int = 3, seed: int = 0
) -> float:
    """Average fitness of a uniformly random policy on ``env_name``."""
    env = make(env_name, seed=seed)
    rng = np.random.default_rng(seed)

    def random_policy(obs: np.ndarray) -> np.ndarray:
        return rng.standard_normal(env.num_outputs)

    seeds = [seed + 1 + i for i in range(episodes)]
    return evaluate_policy(env, random_policy, episodes=episodes, seeds=seeds)


def normalize_fitness(
    fitness: float, baseline: float, required: float
) -> float:
    """Map ``fitness`` to [0, 1]: baseline -> 0, required -> 1, clipped."""
    if required == baseline:
        return 1.0 if fitness >= required else 0.0
    value = (fitness - baseline) / (required - baseline)
    return float(np.clip(value, 0.0, 1.0))
