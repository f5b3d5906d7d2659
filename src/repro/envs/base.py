"""Base environment protocol.

All environments in this substrate follow the classic Gym episodic
interface::

    obs = env.reset(seed=0)
    obs, reward, done, info = env.step(action)

Each environment also publishes the metadata the rest of the system needs:

* ``observation_space`` / ``action_space`` — used by NEAT to size the
  initial genome (inputs = observation dim, outputs = action dim) and by
  the RL baselines to build their MLP policies;
* ``max_episode_steps`` — the episode cap (Gym's ``TimeLimit`` wrapper is
  folded into the environment here);
* ``reward_threshold`` — the paper's "required fitness" per task; a NEAT
  or RL run stops once the averaged episode reward reaches it.

A registered environment's spaces depend only on its class constants,
never on constructor arguments, so the class builds them once, as class
attributes; a :class:`~repro.envs.spaces.Box`'s bounds are read-only.

An environment may also carry a *structure-of-arrays kernel*: twins of
``_reset`` and ``_step`` that reset and advance many instances of the
same physics in one NumPy pass, repeating the scalar arithmetic
operation for operation so every row's result is bit-identical to that
instance alone.  A kernel class sets :attr:`Environment.BATCH_PARAMS`
and :attr:`Environment.RESET_DRAWS` and implements:

* ``_reset_batch(draws)``: ``_reset`` over rows of a fresh generator's
  first ``RESET_DRAWS`` ``random()`` draws
  (:func:`repro.envs.seeding.first_doubles`), returning ``(state rows,
  observation rows)``; ``_reset`` may only draw through ``random()``
  and ``uniform()`` (see :func:`repro.envs.seeding.uniform`);
* ``_step_batch(state, actions)``: ``_step`` over the state rows;
* ``_scatter_batch(row)``: hand one row back to its instance;
* ``_gather_batch(envs)``: stack instances' episode state into rows,
  which the kernel parity tests use to place arbitrary states.

:func:`repro.envs.rollout.run_lockstep` uses the kernel for whole
seeded waves (see :meth:`Environment.batch_key`,
:meth:`Environment.reset_batch` and :meth:`Environment.step_batch`).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.envs.seeding import first_doubles
from repro.envs.spaces import Space

__all__ = ["Environment", "StepResult"]

StepResult = tuple[np.ndarray, float, bool, dict[str, Any]]


class Environment:
    """Abstract episodic environment.

    Subclasses implement :meth:`_reset` and :meth:`_step`; this base class
    owns seeding, step counting, and the episode time limit so each
    environment's physics code stays free of bookkeeping.
    """

    #: Environment identifier used by the registry.
    name: str = "environment"
    observation_space: Space
    action_space: Space
    #: Hard cap on episode length (Gym TimeLimit equivalent).
    max_episode_steps: int = 1000
    #: Episode reward at which the task counts as solved.
    reward_threshold: float = 0.0

    def __init__(self, seed: int | None = None):
        # no generator until one is needed: reset(seed) installs its
        # own, so one built here (from OS entropy when seed is None)
        # would be thrown away.  The rng property builds it from _seed,
        # advanced past _draws draws (which only reset_batch sets).
        self._seed = seed
        self._draws = 0
        self._rng: np.random.Generator | None = None
        self._elapsed_steps = 0
        self._needs_reset = True

    # ------------------------------------------------------------------ API
    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start a new episode and return the initial observation.

        A ``seed`` starts a fresh generator; without one the episode
        draws from the current generator (see :attr:`rng`).
        """
        self._rng = np.random.default_rng(seed) if seed is not None else self.rng
        self._elapsed_steps = 0
        self._needs_reset = False
        obs = self._reset()
        return np.asarray(obs, dtype=np.float64)

    def step(self, action: Any) -> StepResult:
        """Advance one timestep.

        Returns ``(observation, reward, done, info)``.  ``info["truncated"]``
        is set when the episode ended only because of the time limit.
        """
        if self._needs_reset:
            raise RuntimeError(
                f"{self.name}: step() called before reset() or after the "
                "episode terminated"
            )
        obs, reward, done, info = self._step(action)
        self._elapsed_steps += 1
        truncated = False
        if not done and self._elapsed_steps >= self.max_episode_steps:
            done = True
            truncated = True
        info.setdefault("truncated", truncated)
        if done:
            self._needs_reset = True
        return np.asarray(obs, dtype=np.float64), float(reward), bool(done), info

    # ------------------------------------------ structure-of-arrays kernel
    #: Attribute names the kernel reads besides per-row state (physics
    #: constants and thresholds); instances batch together only when all
    #: of them, and ``max_episode_steps``, are equal.
    BATCH_PARAMS: tuple[str, ...] = ()
    #: ``random()`` draws ``_reset`` takes from a fresh generator (one
    #: per ``random()`` or ``uniform()`` value); ``_reset_batch`` gets
    #: them as rows.
    RESET_DRAWS = 0

    def batch_key(self) -> tuple | None:
        """What decides whether instances can share one kernel pass.

        ``None`` when this exact class has no kernel: a subclass never
        inherits its parent's, since it may have changed the scalar
        physics the kernel repeats.  Otherwise instances with equal
        keys step bit-identically as rows of one :meth:`step_batch`.
        """
        cls = type(self)
        if cls is Environment or "_step_batch" not in vars(cls):
            return None
        params = tuple(getattr(self, name) for name in self.BATCH_PARAMS)
        return (cls, self.max_episode_steps, params)

    def reset_batch(
        self, envs: Sequence["Environment"], seeds: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`reset` of each of ``envs`` with its seed, in one pass.

        ``envs`` share this instance's :meth:`batch_key`, and ``seeds``
        are integers in ``[0, 2**64)``.  Returns ``(state,
        observations)``, one row per instance: the rows
        :meth:`step_batch` takes and the observations :meth:`reset`
        returns.  Each instance is marked reset, and its generator is
        built on first use as ``default_rng(seed)`` advanced past the
        reset's draws, so it ends as :meth:`reset` would leave it.
        The episode state reaches the instance through
        :meth:`leave_batch`.
        """
        draws = self.RESET_DRAWS
        state, obs = self._reset_batch(first_doubles(seeds, draws))
        for env, seed in zip(envs, seeds):
            env._seed, env._draws, env._rng = seed, draws, None
            env._elapsed_steps = 0
            env._needs_reset = False
        return state, obs

    def step_batch(
        self, state: np.ndarray, actions: np.ndarray, elapsed: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`step` for every row of a gathered batch at once.

        ``state`` comes from ``_gather_batch`` (or a previous call) and
        is never modified; ``elapsed`` is the rows' common step count
        before this step.  Returns ``(state, observations, rewards,
        done, truncated)``, one row per instance, where ``done`` and
        ``truncated`` follow :meth:`step`'s time-limit rule.
        """
        state, obs, rewards, done = self._step_batch(state, actions)
        if elapsed + 1 >= self.max_episode_steps:
            truncated = ~done
            done = np.ones_like(done)
        else:
            truncated = np.zeros_like(done)
        return state, obs, rewards, done, truncated

    def leave_batch(self, row: np.ndarray, elapsed: int, done: bool) -> None:
        """Hand one batch row back to this instance.

        Afterwards the instance is exactly as if it had taken the same
        ``elapsed`` steps through :meth:`step`, so it can go on stepping
        alone (or be reset) with no trace of the batch.
        """
        self._scatter_batch(row)
        self._elapsed_steps = elapsed
        self._needs_reset = done

    @classmethod
    def _gather_batch(cls, envs: list["Environment"]) -> np.ndarray:
        """Stack the instances' episode state into one row each."""
        raise NotImplementedError

    def _reset_batch(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel: ``(state, observations)`` after ``_reset``, one row
        per row of ``draws``, the ``(rows, RESET_DRAWS)`` first draws of
        each instance's fresh generator.  The observations may be the
        state array itself where ``_reset`` returns its state."""
        raise NotImplementedError

    def _step_batch(
        self, state: np.ndarray, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Kernel: ``(state, observations, rewards, terminated)``.

        Returns new arrays and never writes ``state``.  The observations
        may be the state array itself only where ``_step`` likewise
        returns its new state as the observation.
        """
        raise NotImplementedError

    def _scatter_batch(self, row: np.ndarray) -> None:
        """Restore this instance's episode state from one batch row."""
        raise NotImplementedError

    @property
    def elapsed_steps(self) -> int:
        return self._elapsed_steps

    @property
    def rng(self) -> np.random.Generator:
        """The episode generator.  Built on first use from the
        constructor's seed, or after :meth:`reset_batch` from the
        episode's seed, advanced past the draws the reset took."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
            if self._draws:  # taken by reset_batch
                self._rng.random(self._draws)
        return self._rng

    # ------------------------------------------------- subclass extension
    def _reset(self) -> np.ndarray:
        raise NotImplementedError

    def _step(self, action: Any) -> StepResult:
        raise NotImplementedError

    # ----------------------------------------------------------- helpers
    @property
    def num_inputs(self) -> int:
        """Network input width implied by the observation space."""
        return self.observation_space.flat_dim

    @property
    def num_outputs(self) -> int:
        """Network output width implied by the action space.

        Discrete action spaces get one output node per action (argmax
        policy); continuous spaces get one node per action dimension.
        This matches the paper's per-environment PE counts (Fig 10's
        footnote: cartpole 3 outputs, pendulum 1, ...).
        """
        from repro.envs.spaces import Discrete

        if isinstance(self.action_space, Discrete):
            return self.action_space.n
        return self.action_space.flat_dim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(obs={self.observation_space}, "
            f"act={self.action_space})"
        )
