"""Structure-of-arrays env kernels against per-instance resets and steps.

The kernels (``CartPole`` and ``LunarLander`` ``_reset_batch`` and
``_step_batch``) and the batched head of :func:`run_lockstep` must be
invisible: every row of a kernel reset or step carries the bits of the
same instance reset or stepped alone, and every lock-step episode
matches :func:`run_episode` on its own env, generator included.  Seeds,
states and actions are generated; the terminal branches each physics
step can take are also pinned by hand-built states, so they are covered
on every run and not only when generation happens to reach them.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import CompiledCPUBackend
from repro.envs import rollout
from repro.envs.cartpole import CartPole
from repro.envs.lunar_lander import LunarLander
from repro.envs.rollout import BATCH_MIN_WIDTH, run_episode, run_lockstep
from repro.envs.wrappers import FaultySensor
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan
from repro.telemetry import TelemetrySession

from tests.conftest import evolved_genome


def _finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# ------------------------------------------------------ state strategies
#: (x, y, vx, vy, angle, omega, prev_shaping) anywhere in or just past
#: the field, so both out-of-field tests and ground contact occur
lander_anywhere = st.tuples(
    _finite(-1.7, 1.7),
    _finite(-0.05, 3.0),
    _finite(-4.0, 4.0),
    _finite(-4.0, 4.0),
    _finite(-math.pi, math.pi),
    _finite(-4.0, 4.0),
    st.none() | _finite(-500.0, 60.0),
)
#: low, slow and near the pad: landings, safe and not, and leg contacts
lander_touchdown = st.tuples(
    _finite(-0.4, 0.4),
    _finite(-0.02, 0.04),
    _finite(-0.7, 0.7),
    _finite(-0.7, 0.7),
    _finite(-0.5, 0.5),
    _finite(-1.0, 1.0),
    st.none() | _finite(-200.0, 30.0),
)
lander_rows = st.lists(
    st.tuples(lander_anywhere | lander_touchdown, st.integers(0, 3)),
    min_size=1,
    max_size=12,
)
#: (x, x_dot, theta, theta_dot) straddling both failure thresholds
cartpole_rows = st.lists(
    st.tuples(
        st.tuples(
            _finite(-2.6, 2.6),
            _finite(-3.0, 3.0),
            _finite(-0.25, 0.25),
            _finite(-3.5, 3.5),
        ),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=12,
)
physics = st.fixed_dictionaries(
    {},
    optional={
        "pole_mass": _finite(0.01, 2.0),
        "pole_half_length": _finite(0.05, 2.0),
        "force_mag": _finite(0.5, 30.0),
    },
)


def _elapsed(env_cls):
    """Step counts before the step, weighted towards the time limit."""
    cap = env_cls.max_episode_steps
    return st.integers(0, cap - 1) | st.sampled_from([cap - 2, cap - 1])


# --------------------------------------------------------------- helpers
def _placed(env_cls, row, elapsed, kwargs):
    """A fresh instance mid-episode at ``row`` after ``elapsed`` steps."""
    env = env_cls(**kwargs)
    env.reset(seed=0)
    if env_cls is LunarLander:
        env._state = np.array(row[:6], dtype=np.float64)
        prev = row[6]
        env._prev_shaping = None if prev is None else np.float64(prev)
    else:
        env._state = np.array(row, dtype=np.float64)
    env._elapsed_steps = elapsed
    return env


def _episode_state(env):
    while isinstance(env, FaultySensor):
        env = env.env
    state = [
        env._state.tobytes(),
        env._elapsed_steps,
        env._needs_reset,
        env.rng.bit_generator.state,
    ]
    if isinstance(env, LunarLander):
        prev = env._prev_shaping
        state.append(None if prev is None else (type(prev), float(prev).hex()))
    return state


def _assert_kernel_matches_step(env_cls, rows, elapsed, kwargs=None):
    """Step each row alone and all rows through the kernel; same bits."""
    kwargs = kwargs or {}
    states = [state for state, _ in rows]
    actions = np.array([action for _, action in rows])
    alone = [_placed(env_cls, s, elapsed, kwargs) for s in states]
    results = [env.step(int(a)) for env, a in zip(alone, actions)]

    batch = [_placed(env_cls, s, elapsed, kwargs) for s in states]
    assert len({env.batch_key() for env in batch}) == 1
    gathered = env_cls._gather_batch(batch)
    before = gathered.copy()
    state, obs, rewards, done, truncated = batch[0].step_batch(
        gathered, actions, elapsed
    )
    assert np.array_equal(gathered, before)  # the kernel never writes its input
    for i, (obs_i, reward_i, done_i, info_i) in enumerate(results):
        assert obs[i].tobytes() == obs_i.tobytes()
        assert float(rewards[i]).hex() == reward_i.hex()
        assert bool(done[i]) is done_i
        assert bool(truncated[i]) is info_i["truncated"]
        batch[i].leave_batch(state[i], elapsed + 1, bool(done[i]))
        assert _episode_state(batch[i]) == _episode_state(alone[i])
    return results


# ---------------------------------------------------- generated kernels
class TestGeneratedKernelParity:
    @settings(max_examples=150, deadline=None)
    @given(rows=lander_rows, elapsed=_elapsed(LunarLander))
    def test_lunar_lander(self, rows, elapsed):
        _assert_kernel_matches_step(LunarLander, rows, elapsed)

    @settings(max_examples=150, deadline=None)
    @given(rows=cartpole_rows, elapsed=_elapsed(CartPole))
    def test_cartpole(self, rows, elapsed):
        _assert_kernel_matches_step(CartPole, rows, elapsed)

    @settings(max_examples=100, deadline=None)
    @given(rows=cartpole_rows, elapsed=_elapsed(CartPole), kwargs=physics)
    def test_cartpole_physics_overrides(self, rows, elapsed, kwargs):
        _assert_kernel_matches_step(CartPole, rows, elapsed, kwargs)


# ----------------------------------------------------- generated resets
#: 63-bit seeds as the backends draw them, any seed the wave reset
#: takes, and the edges where a seed's 32-bit word count changes
reset_seeds = st.lists(
    st.integers(0, 2**63 - 1)
    | st.integers(0, 2**64 - 1)
    | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    min_size=1,
    max_size=24,
)


def _assert_reset_batch_matches_reset(env_cls, seeds, kwargs=None):
    """Reset each instance alone and all through the kernel; same bits."""
    kwargs = kwargs or {}
    alone = [env_cls(**kwargs) for _ in seeds]
    observations = [env.reset(seed=seed) for env, seed in zip(alone, seeds)]

    batch = [env_cls(**kwargs) for _ in seeds]
    state, obs = batch[0].reset_batch(batch, seeds)
    assert state.tobytes() == env_cls._gather_batch(alone).tobytes()
    assert [row.tobytes() for row in obs] == [o.tobytes() for o in observations]
    for env, row, reference in zip(batch, state, alone):
        env.leave_batch(row, 0, False)
        assert _episode_state(env) == _episode_state(reference)


class TestGeneratedResetParity:
    @settings(max_examples=100, deadline=None)
    @given(seeds=reset_seeds)
    def test_lunar_lander(self, seeds):
        _assert_reset_batch_matches_reset(LunarLander, seeds)

    @settings(max_examples=100, deadline=None)
    @given(seeds=reset_seeds, kwargs=physics)
    def test_cartpole_physics_overrides(self, seeds, kwargs):
        _assert_reset_batch_matches_reset(CartPole, seeds, kwargs)

    @pytest.mark.parametrize("env_cls", [LunarLander, CartPole])
    def test_unseeded_reset_after_a_wave_reset(self, env_cls):
        """A later unseeded episode draws where the seeded one left off."""
        alone, batched = env_cls(), env_cls()
        alone.reset(seed=2**40 + 3)
        batched.reset_batch([batched], [2**40 + 3])
        assert batched.reset().tobytes() == alone.reset().tobytes()
        assert _episode_state(batched) == _episode_state(alone)


# ------------------------------------------------- every terminal branch
def _lander_row(x=0.0, y=1.0, vx=0.0, vy=0.0, angle=0.0, omega=0.0, prev=None):
    return (x, y, vx, vy, angle, omega, prev)


#: name -> (state, action, done, sign of the terminal bonus); first-step
#: states (no previous shaping) so the reward is the bonus minus fuel
LANDER_BRANCHES = {
    "safe_landing": (_lander_row(x=0.05, y=0.001, vy=-0.3), 0, True, +1),
    "crash_too_fast": (_lander_row(y=0.001, vy=-2.0), 0, True, -1),
    "crash_off_pad": (_lander_row(x=0.9, y=0.001, vy=-0.2), 0, True, -1),
    "crash_tilted": (_lander_row(y=0.001, vy=-0.2, angle=0.8), 2, True, -1),
    "out_of_field_side": (_lander_row(x=1.499, vx=1.0), 3, True, -1),
    "out_of_field_top": (_lander_row(y=2.799, vy=1.0), 2, True, -1),
    "in_flight": (_lander_row(prev=-150.0), 1, False, 0),
    "first_step": (_lander_row(), 2, False, 0),
    "legs_touching": (_lander_row(y=0.005, vy=0.5, angle=0.3), 0, False, 0),
    # the angle wrap with (angle + pi) below 0 and above 2 pi
    "wrap_below": (_lander_row(angle=-3.14, omega=-3.0), 1, False, 0),
    "wrap_above": (_lander_row(angle=3.14, omega=3.0), 3, False, 0),
}


class TestTerminalBranches:
    @pytest.mark.parametrize("name", sorted(LANDER_BRANCHES))
    def test_lunar_lander_branch(self, name):
        state, action, done, sign = LANDER_BRANCHES[name]
        (obs, reward, is_done, info), = _assert_kernel_matches_step(
            LunarLander, [(state, action)], elapsed=5
        )
        assert is_done is done and not info["truncated"]
        if sign > 0:
            assert reward > 50.0
        elif sign < 0:
            assert reward < -50.0
        if name == "legs_touching":
            assert obs[6:].tolist() != [0.0, 0.0]

    @pytest.mark.parametrize(
        "state, action, done",
        [
            ((2.399, 1.0, 0.0, 0.0), 1, True),  # cart leaves the track
            ((-2.399, -1.0, 0.0, 0.0), 0, True),
            ((0.0, 0.0, 0.209, 1.0), 1, True),  # pole falls past 12 degrees
            ((0.0, 0.0, -0.209, -1.0), 0, True),
            ((0.0, 0.0, 0.01, 0.0), 1, False),
        ],
    )
    def test_cartpole_thresholds(self, state, action, done):
        (_, _, is_done, info), = _assert_kernel_matches_step(
            CartPole, [(state, action)], elapsed=3
        )
        assert is_done is done and not info["truncated"]

    @pytest.mark.parametrize("env_cls", [LunarLander, CartPole])
    def test_time_limit_truncation(self, env_cls):
        if env_cls is LunarLander:
            state = _lander_row(prev=-150.0)
        else:
            state = (0.0, 0.0, 0.0, 0.0)
        cap = env_cls.max_episode_steps
        (_, _, done, info), = _assert_kernel_matches_step(
            env_cls, [(state, 0)], elapsed=cap - 1
        )
        assert done and info["truncated"]
        (_, _, done, info), = _assert_kernel_matches_step(
            env_cls, [(state, 0)], elapsed=cap - 2
        )
        assert not done and not info["truncated"]

    @pytest.mark.parametrize(
        "env_cls, state",
        [
            (LunarLander, _lander_row(y=0.001, vy=-2.0)),
            (CartPole, (2.399, 1.0, 0.0, 0.0)),
        ],
    )
    def test_natural_termination_on_the_last_step(self, env_cls, state):
        cap = env_cls.max_episode_steps
        (_, _, done, info), = _assert_kernel_matches_step(
            env_cls, [(state, 1)], elapsed=cap - 1
        )
        assert done and not info["truncated"]

    def test_cartpole_squares_like_the_scalar_path(self):
        """Rows whose ``theta_dot * theta_dot`` differs from ``theta_dot**2``
        in the last bit, under physics where that bit reaches the state."""
        grid = np.linspace(-6.0, 6.0, 400_001).tolist()
        speeds = [v for v in grid if v * v != v**2]
        assert speeds
        rows = [((0.0, 0.0, 0.2, v), 0) for v in speeds]
        kwargs = dict(pole_mass=2.0, pole_half_length=2.0, force_mag=0.5)
        _assert_kernel_matches_step(CartPole, rows, elapsed=0, kwargs=kwargs)

    def test_mixed_branches_in_one_batch(self):
        rows = [(state, action) for state, action, _, _ in LANDER_BRANCHES.values()]
        _assert_kernel_matches_step(LunarLander, rows, elapsed=7)


# ------------------------------------------------- lock-step vs alone
def _policies(seed, count, num_inputs, num_outputs):
    weights = np.random.default_rng(seed).normal(
        size=(count, num_outputs, num_inputs)
    )
    return [lambda obs, w=w: w @ obs for w in weights]


def _assert_lockstep_matches_alone(
    make, width, seed, max_steps=None, keep_rewards=False
):
    probe = make(0)
    policies = _policies(seed, width, probe.num_inputs, probe.num_outputs)
    seeds = [seed * 1000 + slot for slot in range(width)]

    seen_alone = [[] for _ in range(width)]
    alone_envs = [make(slot) for slot in range(width)]
    alone = []
    for slot, env in enumerate(alone_envs):

        def policy(obs, slot=slot):
            seen_alone[slot].append(obs.copy())
            return policies[slot](obs)

        alone.append(
            run_episode(
                env,
                policy,
                seed=seeds[slot],
                max_steps=max_steps,
                keep_rewards=keep_rewards,
            )
        )

    # keeps references, not copies: any later write to a buffer the
    # driver handed out would show up as a mismatch below
    seen = [[] for _ in range(width)]

    def infer(slots, obs):
        for slot, row in zip(slots, obs):
            seen[slot].append(row)
        return np.array([policies[slot](row) for slot, row in zip(slots, obs)])

    envs = [make(slot) for slot in range(width)]
    together = run_lockstep(
        envs, infer, seeds=seeds, max_steps=max_steps, keep_rewards=keep_rewards
    )
    for slot in range(width):
        a, b = together[slot], alone[slot]
        assert (a.total_reward.hex(), a.steps, a.truncated) == (
            b.total_reward.hex(),
            b.steps,
            b.truncated,
        )
        assert [r.hex() for r in a.rewards] == [r.hex() for r in b.rewards]
        assert [o.tobytes() for o in seen[slot]] == [
            o.tobytes() for o in seen_alone[slot]
        ]
        assert _episode_state(envs[slot]) == _episode_state(alone_envs[slot])
    return together


#: name -> ``make(slot)``
ENV_FACTORIES = {
    "lunar_lander": lambda slot: LunarLander(),
    "cartpole": lambda slot: CartPole(),
    "cartpole_heavy": lambda slot: CartPole(pole_mass=0.4, pole_half_length=0.8),
}
#: widths on both sides of the hand-over to per-instance stepping
STRADDLE = [1, BATCH_MIN_WIDTH - 1, BATCH_MIN_WIDTH, BATCH_MIN_WIDTH + 1, 64]


class TestLockstepParity:
    @pytest.mark.parametrize("width", STRADDLE)
    @pytest.mark.parametrize("name", sorted(ENV_FACTORIES))
    def test_widths_straddling_the_handoff(self, name, width):
        _assert_lockstep_matches_alone(ENV_FACTORIES[name], width, seed=width)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(ENV_FACTORIES)),
        width=st.integers(1, 64) | st.sampled_from(STRADDLE),
        seed=st.integers(0, 2**20),
        max_steps=st.none() | st.integers(1, 520),
        keep_rewards=st.booleans(),
    )
    def test_generated(self, name, width, seed, max_steps, keep_rewards):
        _assert_lockstep_matches_alone(
            ENV_FACTORIES[name], width, seed, max_steps, keep_rewards
        )

    def test_short_cap_ends_every_batched_episode_together(self):
        records = _assert_lockstep_matches_alone(
            ENV_FACTORIES["cartpole"], 16, seed=3, max_steps=4, keep_rewards=True
        )
        assert all(r.steps <= 4 for r in records)
        assert any(r.truncated for r in records)


# ------------------------------------------------------- path selection
def _batched_ticks(envs):
    policies = _policies(0, len(envs), envs[0].num_inputs, envs[0].num_outputs)

    def infer(slots, obs):
        return np.array([policies[slot](row) for slot, row in zip(slots, obs)])

    with TelemetrySession() as session:
        run_lockstep(envs, infer, seeds=list(range(len(envs))))
    metrics = session.metrics
    assert metrics.counter("rollout.ticks").value > 0
    return metrics.counter("rollout.batched_ticks").value


class _SubclassedCartPole(CartPole):
    """Same physics; a subclass never inherits its parent's kernel."""


class TestPathSelection:
    def test_uniform_kernel_envs_batch(self):
        assert _batched_ticks([CartPole() for _ in range(12)]) > 0
        assert _batched_ticks([LunarLander() for _ in range(12)]) > 0

    def test_narrow_waves_step_alone(self):
        assert _batched_ticks([CartPole() for _ in range(BATCH_MIN_WIDTH - 1)]) == 0

    def test_mixed_classes_step_alone(self):
        envs = [CartPole() for _ in range(11)] + [_SubclassedCartPole()]
        assert _batched_ticks(envs) == 0
        assert _batched_ticks([_SubclassedCartPole() for _ in range(12)]) == 0

    def test_mixed_physics_step_alone(self):
        envs = [CartPole() for _ in range(11)] + [CartPole(pole_mass=0.2)]
        assert _batched_ticks(envs) == 0

    def test_mixed_time_limits_step_alone(self):
        envs = [CartPole() for _ in range(12)]
        envs[5].max_episode_steps = 50
        assert _batched_ticks(envs) == 0

    def test_faulty_sensor_wrapped_envs_step_alone(self):
        envs = [FaultySensor(CartPole(), obs_nan=0.1, seed=3) for _ in range(12)]
        assert _batched_ticks(envs) == 0

    def test_wrapped_and_mixed_lists_still_match_alone(self):
        _assert_lockstep_matches_alone(
            lambda slot: FaultySensor(LunarLander(), obs_nan=0.1, seed=2),
            12,
            seed=5,
        )
        _assert_lockstep_matches_alone(
            lambda slot: CartPole(pole_mass=0.1 + 0.1 * (slot % 2)), 12, seed=6
        )

    @pytest.mark.parametrize("at", [0, 5, 11])
    @pytest.mark.parametrize(
        "odd", ["same_value", "override", "time_limit", "subclass", "wrapped"]
    )
    def test_one_odd_env_keeps_the_wave_apart(self, odd, at):
        """``_batchable`` decides as one shared ``batch_key`` would:
        one env, the head included, whose class, time limit or kernel
        parameter differs keeps the whole wave apart."""
        envs = [CartPole() for _ in range(12)]
        if odd == "same_value":
            envs[at].GRAVITY = float(CartPole.GRAVITY)
        elif odd == "override":
            envs[at].GRAVITY = CartPole.GRAVITY + 1e-12
        elif odd == "time_limit":
            envs[at].max_episode_steps += 1
        elif odd == "subclass":
            envs[at] = _SubclassedCartPole()
        else:
            envs[at] = FaultySensor(CartPole(), obs_nan=0.1, seed=3)
        key = envs[0].batch_key() if isinstance(envs[0], CartPole) else None
        one_key = key is not None and all(
            isinstance(env, CartPole) and env.batch_key() == key for env in envs
        )
        assert rollout._batchable(envs) is one_key is (odd == "same_value")

    def test_handoff_width_is_the_module_constant(self, monkeypatch):
        envs = [CartPole() for _ in range(12)]
        monkeypatch.setattr(rollout, "BATCH_MIN_WIDTH", 13)
        assert _batched_ticks(envs) == 0


# ---------------------------------------------------------- observability
def _lander_run(fault_plan_text=None):
    """One telemetry-recorded cpu-compiled lunar_lander generation."""
    cfg = NEATConfig(num_inputs=8, num_outputs=4, population_size=24)
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(4)
    genomes = [
        evolved_genome(cfg, tracker, rng, mutations=4, key=i) for i in range(24)
    ]
    plan = None if fault_plan_text is None else FaultPlan.parse(fault_plan_text)
    backend = CompiledCPUBackend("lunar_lander", cfg, base_seed=7, fault_plan=plan)
    with TelemetrySession() as session:
        try:
            backend.evaluate(genomes)
        finally:
            backend.close()
    fitness = [float(g.fitness).hex() for g in genomes]
    return session.metrics, fitness, backend.resilience_log()


class TestBatchedTicksCounter:
    def test_clean_lunar_lander_run_batches(self):
        metrics, _, _ = _lander_run()
        batched = metrics.counter("rollout.batched_ticks").value
        assert 0 < batched <= metrics.counter("rollout.ticks").value

    def test_obs_nan_chaos_run_steps_alone_and_replays(self):
        # a rare reward NaN as well, so the replayed event log is not empty
        plan = "seed=9,env.obs_nan@0.05,env.reward_nan@0.002"
        metrics, fitness, events = _lander_run(plan)
        assert metrics.counter("rollout.batched_ticks").value == 0
        assert metrics.counter("rollout.ticks").value > 0
        assert events
        _, replay_fitness, replay_events = _lander_run(plan)
        assert replay_fitness == fitness
        assert json.dumps(replay_events, sort_keys=True) == json.dumps(
            events, sort_keys=True
        )
