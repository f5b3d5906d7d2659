"""Episode rollouts and fitness evaluation.

This module is the "Evaluate" glue from the paper's Table III: given a
policy (any callable mapping an observation vector to a raw output
vector), it runs episodes against an environment, converts raw network
outputs into environment actions, and reports the fitness along with the
step counts the hardware cost models need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.envs import seeding
from repro.envs.base import Environment
from repro.envs.spaces import Box, Discrete
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import span as _span

__all__ = [
    "PolicyFn",
    "InferFn",
    "EpisodeRecord",
    "check_observations",
    "check_slots",
    "decode_action",
    "decode_action_batch",
    "run_episode",
    "run_lockstep",
    "evaluate_policy",
]

PolicyFn = Callable[[np.ndarray], np.ndarray]
#: Lock-step inference: ``infer(slots, obs) -> outputs``.  ``slots`` is
#: the ascending list of still-alive slots, ``obs`` a float64
#: ``(len(slots), num_inputs)`` block, and row ``i`` of the returned
#: ``(len(slots), num_outputs)`` block is ``slots[i]``'s raw output.
#: The INAX device's scatter/infer/gather step,
#: :class:`repro.neat.vectorized.PopulationEvaluator` and the
#: interpreted fallback all satisfy it, and all of them reject the
#: slots and blocks :func:`check_slots` and :func:`check_observations`
#: refuse.
InferFn = Callable[[list[int], np.ndarray], np.ndarray]


@dataclass
class EpisodeRecord:
    """Outcome of one episode: fitness plus workload accounting."""

    total_reward: float
    steps: int
    truncated: bool
    #: Per-step rewards, kept for convergence-trace benches.
    rewards: list[float] = field(default_factory=list)


def decode_action(env: Environment, raw_output: np.ndarray):
    """Convert a raw network output vector into an environment action.

    * ``Discrete(n)`` — argmax over the ``n`` output nodes (the standard
      NEAT policy head, and how the paper sizes INAX's PE count per env);
    * ``Box`` — squash each output with tanh and scale to the bounds.
    """
    raw = np.asarray(raw_output, dtype=np.float64).reshape(-1)
    space = env.action_space
    if isinstance(space, Discrete):
        if raw.shape[0] < space.n:
            raise ValueError(
                f"policy produced {raw.shape[0]} outputs but {env.name} "
                f"needs {space.n}"
            )
        return int(np.argmax(raw[: space.n]))
    if isinstance(space, Box):
        dim = space.flat_dim
        if raw.shape[0] < dim:
            raise ValueError(
                f"policy produced {raw.shape[0]} outputs but {env.name} "
                f"needs {dim}"
            )
        squashed = np.tanh(raw[:dim])
        center = (space.high + space.low) / 2.0
        half_range = (space.high - space.low) / 2.0
        # unbounded dims pass through un-scaled
        half_range = np.where(np.isfinite(half_range), half_range, 1.0)
        center = np.where(np.isfinite(center), center, 0.0)
        return center + half_range * squashed.reshape(space.shape)
    raise TypeError(f"unsupported action space {space!r}")


def decode_action_batch(env: Environment, raw_outputs: np.ndarray) -> list:
    """Decode a ``(batch, num_outputs)`` block of raw outputs at once.

    Bit-identical to calling :func:`decode_action` row by row (ties in
    the argmax resolve to the first maximum in both, and the Box path
    applies the same value-pure elementwise ops), but pays the NumPy
    call overhead once per lock-step tick instead of once per individual.
    """
    raw = np.atleast_2d(np.asarray(raw_outputs, dtype=np.float64))
    actions = _decode_rows(env, raw)
    if isinstance(env.action_space, Discrete):
        return actions.tolist()
    return list(actions)


def _decode_rows(env: Environment, raw: np.ndarray) -> np.ndarray:
    """:func:`decode_action_batch` as one array, one action per row."""
    space = env.action_space
    if isinstance(space, Discrete):
        if raw.shape[1] < space.n:
            raise ValueError(
                f"policy produced {raw.shape[1]} outputs but {env.name} "
                f"needs {space.n}"
            )
        return np.argmax(raw[:, : space.n], axis=1)
    if isinstance(space, Box):
        dim = space.flat_dim
        if raw.shape[1] < dim:
            raise ValueError(
                f"policy produced {raw.shape[1]} outputs but {env.name} "
                f"needs {dim}"
            )
        squashed = np.tanh(raw[:, :dim])
        center = (space.high + space.low) / 2.0
        half_range = (space.high - space.low) / 2.0
        half_range = np.where(np.isfinite(half_range), half_range, 1.0)
        center = np.where(np.isfinite(center), center, 0.0)
        return center + half_range * squashed.reshape(
            (raw.shape[0],) + space.shape
        )
    raise TypeError(f"unsupported action space {space!r}")


def run_episode(
    env: Environment,
    policy: PolicyFn,
    seed: int | None = None,
    max_steps: int | None = None,
    keep_rewards: bool = False,
) -> EpisodeRecord:
    """Run one episode of ``policy`` in ``env`` and return its record.

    ``truncated`` reports the *environment's* truncation flag when the
    episode ends on its own (an episode that terminates naturally on
    exactly the last allowed step is **not** truncated), and is only
    forced ``True`` when the external ``max_steps`` cap cuts a
    still-running episode short.
    """
    obs = env.reset(seed=seed)
    total = 0.0
    steps = 0
    truncated = False
    rewards: list[float] = []
    limit = max_steps if max_steps is not None else env.max_episode_steps
    while True:
        action = decode_action(env, policy(obs))
        obs, reward, done, info = env.step(action)
        total += reward
        steps += 1
        if keep_rewards:
            rewards.append(reward)
        if done:
            truncated = bool(info.get("truncated", False))
            break
        if steps >= limit:
            truncated = True
            break
    registry = get_metrics()
    if registry is not None:
        registry.histogram("episode.steps").observe(steps)
        registry.counter("episode.count").inc()
    return EpisodeRecord(
        total_reward=total, steps=steps, truncated=truncated, rewards=rewards
    )


#: Fewest live episodes worth one structure-of-arrays env step.  Below
#: it a kernel pass costs more than stepping the instances one by one,
#: so :func:`run_lockstep` hands the survivors back to their instances;
#: the crossover is pure tuning (both paths produce identical bits).
BATCH_MIN_WIDTH = 8


def check_slots(slots: list[int], num_slots: int) -> None:
    """Raise unless ``slots`` is a non-empty ascending run of distinct
    slots in ``range(num_slots)`` — the :data:`InferFn` slot contract."""
    if not slots:
        raise ValueError("inference needs at least one live slot")
    if any(a >= b for a, b in zip(slots, slots[1:])):
        raise ValueError(
            f"live slots must be strictly ascending, got {list(slots)}"
        )
    if slots[0] < 0 or slots[-1] >= num_slots:
        raise IndexError(
            f"live slots {list(slots)} fall outside range({num_slots})"
        )


def check_observations(
    obs: np.ndarray, rows: int, num_inputs: int
) -> np.ndarray:
    """``obs`` as float64, raising unless it is ``(rows, num_inputs)``.

    The :data:`InferFn` block contract: a short observation must fail,
    never broadcast across a network's inputs.
    """
    block = np.asarray(obs, dtype=np.float64)
    if block.shape != (rows, num_inputs):
        raise ValueError(
            f"expected a ({rows}, {num_inputs}) observation block, "
            f"got shape {block.shape}"
        )
    return block


def run_lockstep(
    envs: Sequence[Environment],
    infer: InferFn,
    seeds: Sequence[int | None] | None = None,
    max_steps: int | None = None,
    keep_rewards: bool = False,
) -> list[EpisodeRecord]:
    """Run one episode per env, all in lock-step, and return the records.

    This is the shared multi-episode driver behind every batched
    evaluation path: each synchronized tick infers every still-alive
    slot at once (``infer(alive, obs)`` with one observation row per
    live slot, see :data:`InferFn`), decodes the whole wave's actions
    in one batch, then steps each slot's environment.  Slots whose
    episodes terminate drop out of subsequent ticks — the software
    analogue of the paper's §V-B2 idle-PU effect — so the INAX
    backend's device waves and the ``cpu-compiled`` backend's
    population inference run through identical bookkeeping.

    When every env is an instance of one class with a structure-of-
    arrays kernel and equal :meth:`~repro.envs.base.Environment.batch_key`
    (same physics), and every seed is an integer
    :func:`repro.envs.seeding.first_doubles` takes, the wave's envs are
    reset and stepped as rows of one NumPy pass, the env-side twin of
    evaluating individuals on parallel PUs.  Once fewer than
    :data:`BATCH_MIN_WIDTH` are alive the survivors go back to their
    instances and step one by one.  Unseeded, wrapped, mixed and
    kernel-less waves are reset and stepped one by one.

    Per-slot rewards accumulate in step order, and truncation follows
    :func:`run_episode`'s rule exactly, so a lock-step episode's record
    is bit-identical to running it alone, and each env ends in the same
    state as if it had.
    """
    if seeds is not None and len(seeds) != len(envs):
        raise ValueError("seeds, when given, must have one entry per env")
    n = len(envs)
    batched = seeds is not None and _batchable(envs) and seeding.accepts(seeds)
    # a batched wave is reset in _run_batched, which fills in the
    # observations of the episodes that outlast it
    observations: list[np.ndarray | None] = (
        [None] * n
        if batched
        else [
            env.reset(seed=seeds[i] if seeds is not None else None)
            for i, env in enumerate(envs)
        ]
    )
    limits = [
        max_steps if max_steps is not None else env.max_episode_steps
        for env in envs
    ]
    totals = [0.0] * n
    steps = [0] * n
    truncated = [False] * n
    rewards: list[list[float]] = [[] for _ in range(n)]
    alive = list(range(n))
    ticks = 0
    inferences = 0
    with _span("rollout.lockstep", envs=n):
        if batched:
            alive, ticks, inferences = _run_batched(
                envs,
                infer,
                seeds,
                observations,
                limits[0],
                totals,
                steps,
                truncated,
                rewards if keep_rewards else None,
            )
        batched_ticks = ticks
        while alive:
            ticks += 1
            inferences += len(alive)
            obs = np.array(
                [observations[slot] for slot in alive], dtype=np.float64
            )
            actions = decode_action_batch(envs[alive[0]], infer(alive, obs))
            survivors = []
            for action, slot in zip(actions, alive):
                obs, reward, done, info = envs[slot].step(action)
                observations[slot] = obs
                totals[slot] += reward
                steps[slot] += 1
                if keep_rewards:
                    rewards[slot].append(reward)
                if done:
                    truncated[slot] = bool(info.get("truncated", False))
                elif steps[slot] >= limits[slot]:
                    truncated[slot] = True
                else:
                    survivors.append(slot)
            alive = survivors
    registry = get_metrics()
    if registry is not None:
        registry.histogram("rollout.wave_size").observe(n)
        registry.counter("rollout.ticks").inc(ticks)
        registry.counter("rollout.batched_ticks").inc(batched_ticks)
        registry.counter("rollout.inferences").inc(inferences)
        registry.counter("episode.count").inc(n)
        episode_steps = registry.histogram("episode.steps")
        for count in steps:
            episode_steps.observe(count)
    return [
        EpisodeRecord(
            total_reward=totals[i],
            steps=steps[i],
            truncated=truncated[i],
            rewards=rewards[i],
        )
        for i in range(n)
    ]


def _batchable(envs: Sequence[Environment]) -> bool:
    """Whether one kernel can step all of ``envs`` bit-identically.

    That is, the head has a kernel and every env has the head's
    :meth:`~repro.envs.base.Environment.batch_key`: its exact class, its
    ``max_episode_steps`` and its ``BATCH_PARAMS`` values, compared
    without building a key per env.
    """
    if len(envs) < BATCH_MIN_WIDTH:
        return False
    head = envs[0]
    if not isinstance(head, Environment) or head.batch_key() is None:
        return False
    cls = type(head)
    names = ("max_episode_steps", *cls.BATCH_PARAMS)
    # a tuple, as in batch_key, also for one name, which attrgetter
    # would return bare
    params = (
        attrgetter(*names)
        if len(names) > 1
        else lambda env: (env.max_episode_steps,)
    )
    key = params(head)
    return all(type(env) is cls and params(env) == key for env in envs)


def _run_batched(
    envs: Sequence[Environment],
    infer: InferFn,
    seeds: Sequence[int],
    observations: list[np.ndarray | None],
    limit: int,
    totals: list[float],
    steps: list[int],
    truncated: list[bool],
    rewards: list[list[float]] | None,
) -> tuple[list[int], int, int]:
    """The batched head of :func:`run_lockstep`.

    Resets every env with its seed in one kernel call, then steps every
    live slot with one kernel call per tick until fewer than
    :data:`BATCH_MIN_WIDTH` are alive, filling the per-slot lists for
    every finished episode.  Each env gets its state back when its
    episode ends or the batch hands over; for the survivors
    ``observations`` holds their latest observation.  Returns
    ``(survivors, ticks, inferences)``.
    """
    head = envs[0]
    state, obs = head.reset_batch(envs, seeds)
    alive = list(range(len(envs)))
    totals_alive = np.zeros(len(envs))
    tick = inferences = 0
    while True:
        inferences += len(alive)
        actions = _decode_rows(head, infer(alive, obs))
        state, obs, reward, done, cut = head.step_batch(state, actions, tick)
        tick += 1
        totals_alive += reward
        if rewards is not None:
            for slot, value in zip(alive, reward.tolist()):
                rewards[slot].append(value)
        if tick >= limit:  # every live episode ends, by the env or the cap
            cut = cut | ~done
            ended = np.ones_like(done)
        else:
            ended = done
        if ended.any():
            for row in np.flatnonzero(ended).tolist():
                slot = alive[row]
                totals[slot] = float(totals_alive[row])
                steps[slot] = tick
                truncated[slot] = bool(cut[row])
                envs[slot].leave_batch(state[row], tick, bool(done[row]))
            running = ~ended
            state, obs = state[running], obs[running]
            totals_alive = totals_alive[running]
            alive = [slot for slot, keep in zip(alive, running.tolist()) if keep]
        if len(alive) < BATCH_MIN_WIDTH:
            for row, slot in enumerate(alive):
                totals[slot] = float(totals_alive[row])
                steps[slot] = tick
                observations[slot] = obs[row]
                envs[slot].leave_batch(state[row], tick, False)
            return alive, tick, inferences


def evaluate_policy(
    env: Environment,
    policy: PolicyFn,
    episodes: int = 1,
    seeds: Sequence[int] | None = None,
    max_steps: int | None = None,
) -> float:
    """Average episode reward of ``policy`` over ``episodes`` runs.

    This is the fitness function NEAT maximizes; it is also used to
    check a trained RL policy against the task's required fitness.
    """
    if seeds is not None and len(seeds) != episodes:
        raise ValueError("seeds, when given, must have one entry per episode")
    total = 0.0
    for i in range(episodes):
        seed = seeds[i] if seeds is not None else None
        total += run_episode(env, policy, seed=seed, max_steps=max_steps).total_reward
    return total / episodes
