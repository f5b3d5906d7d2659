"""End-to-end chaos determinism: faults never change the numbers.

The resilience contract has two halves, both asserted here against the
real backends on CartPole:

* **transparency** — supervised retries, degraded shards, and per-wave
  software fallback produce fitness values *bit-identical* to a
  fault-free run (the per-(genome, episode) seeding contract);
* **replayability** — the same :class:`FaultPlan` over the same run
  yields the same structured event log, byte for byte.
"""

import numpy as np
import pytest

from repro.core.backends import CPUBackend, FastCPUBackend, INAXBackend
from repro.inax.accelerator import INAXConfig
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisorConfig

from tests.conftest import evolved_genome


def _cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=6)


def _genomes(cfg, n=6, mutations=6, seed=0):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(n)
    ]


def _fitness(backend, cfg, **genome_kwargs):
    genomes = _genomes(cfg, **genome_kwargs)
    try:
        backend.evaluate(genomes)
    finally:
        backend.close()
    return [g.fitness for g in genomes]


def _fast_supervisor(**overrides):
    defaults = dict(
        shard_timeout=30.0,
        max_retries=1,
        backoff_base=0.0,
        join_timeout=5.0,
        disable_after=99,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


class TestWorkerChaosTransparency:
    def test_worker_error_chaos_is_bit_identical(self):
        cfg = _cfg()
        clean = _fitness(
            FastCPUBackend("cartpole", cfg, base_seed=1, workers=0), cfg
        )
        # every attempt errors -> retries exhaust -> in-process degrade
        backend = FastCPUBackend(
            "cartpole",
            cfg,
            base_seed=1,
            workers=2,
            fault_plan=FaultPlan.parse("seed=0,worker.error@1.0"),
            supervisor=_fast_supervisor(),
        )
        chaotic = _fitness(backend, cfg)
        assert chaotic == clean
        supervisor = backend._supervisor
        assert supervisor.degraded_shards == 2
        assert supervisor.errors > 0

    @pytest.mark.slow
    def test_worker_crash_chaos_is_bit_identical(self):
        cfg = _cfg()
        clean = _fitness(
            FastCPUBackend("cartpole", cfg, base_seed=1, workers=0), cfg
        )
        # seed=3 crashes shard 0 at attempt 0 and nothing at attempt 1,
        # so the watchdog fires exactly once and the retry succeeds
        backend = FastCPUBackend(
            "cartpole",
            cfg,
            base_seed=1,
            workers=2,
            fault_plan=FaultPlan.parse("seed=3,worker.crash@0.5"),
            supervisor=_fast_supervisor(shard_timeout=3.0, max_retries=2),
        )
        chaotic = _fitness(backend, cfg)
        assert chaotic == clean
        supervisor = backend._supervisor
        assert supervisor.timeouts >= 1
        assert supervisor.respawns >= 1
        assert supervisor.degraded_shards == 0

    def test_disabled_supervisor_still_completes(self):
        cfg = _cfg()
        clean = _fitness(
            FastCPUBackend("cartpole", cfg, base_seed=1, workers=0), cfg
        )
        backend = FastCPUBackend(
            "cartpole",
            cfg,
            base_seed=1,
            workers=2,
            fault_plan=FaultPlan.parse("seed=0,worker.error@1.0"),
            supervisor=_fast_supervisor(disable_after=1),
        )
        genomes = _genomes(cfg)
        try:
            backend.evaluate(genomes)  # degrades -> disables sharding
            assert backend._supervisor.disabled
            second = _genomes(cfg)
            backend.evaluate(second)  # runs fully in-process
        finally:
            backend.close()
        assert [g.fitness for g in second] == clean


class TestReplayability:
    def test_same_plan_yields_identical_event_logs(self):
        cfg = _cfg()
        logs = []
        fitnesses = []
        for _ in range(2):
            backend = FastCPUBackend(
                "cartpole",
                cfg,
                base_seed=1,
                workers=2,
                fault_plan=FaultPlan.parse("seed=0,worker.error@1.0"),
                supervisor=_fast_supervisor(),
            )
            fitnesses.append(_fitness(backend, cfg))
            logs.append(backend.resilience_log())
        assert logs[0] == logs[1]
        assert logs[0]  # the chaos actually happened
        assert fitnesses[0] == fitnesses[1]

    def test_inax_chaos_replay_matches(self):
        cfg = _cfg()
        logs = []
        for _ in range(2):
            backend = INAXBackend(
                "cartpole",
                cfg,
                inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
                base_seed=1,
                fallback="cpu-fast",
                fault_plan=FaultPlan.parse("seed=11,inax.wedge@0.05"),
            )
            _fitness(backend, cfg)
            logs.append(backend.resilience_log())
        assert logs[0] == logs[1]


class TestINAXDegradation:
    def test_wedged_waves_fall_back_bit_identically(self):
        cfg = _cfg()
        clean = _fitness(
            INAXBackend(
                "cartpole",
                cfg,
                inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
                base_seed=1,
            ),
            cfg,
        )
        backend = INAXBackend(
            "cartpole",
            cfg,
            inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
            base_seed=1,
            fallback="cpu-fast",
            fault_plan=FaultPlan.parse("seed=0,inax.wedge@1.0"),
        )
        chaotic = _fitness(backend, cfg)
        assert chaotic == clean
        # 6 genomes over 3 PUs = 2 waves, every one wedged at step 0
        assert backend.fallback_waves == 2
        assert backend.fallback_genomes == 6
        kinds = [e.kind for e in backend.resilience_events]
        assert kinds.count("fallback.wave") == 2

    def test_wedge_without_fallback_raises(self):
        from repro.resilience.faults import DeviceFault

        cfg = _cfg()
        backend = INAXBackend(
            "cartpole",
            cfg,
            inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
            base_seed=1,
            fault_plan=FaultPlan.parse("seed=0,inax.wedge@1.0"),
        )
        with pytest.raises(DeviceFault):
            backend.evaluate(_genomes(cfg))

    def test_oversize_fallback_matches_software_path(self):
        cfg = _cfg()
        clean = _fitness(CPUBackend("cartpole", cfg, base_seed=1), cfg)
        backend = INAXBackend(
            "cartpole",
            cfg,
            # capacity 1 word: every genome is oversized
            inax_config=INAXConfig(
                num_pus=3, num_pes_per_pu=2, weight_buffer_capacity=1
            ),
            base_seed=1,
            oversize_policy="raise",
            fallback="cpu-fast",
        )
        degraded = _fitness(backend, cfg)
        assert degraded == clean
        assert backend.oversize_count == 6
        assert backend.fallback_genomes == 6
        kinds = [e.kind for e in backend.resilience_events]
        assert kinds.count("fallback.oversize") == 6


class TestQuarantineEndToEnd:
    def test_reward_nan_quarantines_whole_population(self):
        cfg = _cfg()
        backend = CPUBackend(
            "cartpole",
            cfg,
            base_seed=1,
            fault_plan=FaultPlan.parse("seed=0,env.reward_nan@1.0"),
            quarantine_penalty=-123.0,
        )
        fitnesses = _fitness(backend, cfg)
        assert fitnesses == [-123.0] * 6
        assert backend.quarantine_count == 6
        kinds = [e.kind for e in backend.resilience_events]
        assert kinds.count("quarantine.nonfinite") == 6

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("fault", ["obs_nan", "obs_inf"])
    def test_env_faults_fire_identically_across_backends(self, fault):
        """The env fault stream keys on episode seeds, not the backend,
        and a corrupted sensor reading changes the same bits on every
        backend — also when 40 genomes share one lock-step population."""
        cfg = _cfg()
        plan_text = f"seed=9,env.{fault}@0.05"
        cpu = _fitness(
            CPUBackend(
                "cartpole",
                cfg,
                base_seed=1,
                fault_plan=FaultPlan.parse(plan_text),
            ),
            cfg,
            n=40,
        )
        fast = _fitness(
            FastCPUBackend(
                "cartpole",
                cfg,
                base_seed=1,
                workers=0,
                fault_plan=FaultPlan.parse(plan_text),
            ),
            cfg,
            n=40,
        )
        assert fast == cpu


class TestReporterColumns:
    def test_fastcpu_columns(self):
        cfg = _cfg()
        inprocess = FastCPUBackend("cartpole", cfg, base_seed=1, workers=0)
        sharded = FastCPUBackend("cartpole", cfg, base_seed=1, workers=2)
        try:
            # supervision columns only appear when sharding is possible
            assert set(inprocess.reporter_columns()) == {"quarantined"}
            assert set(sharded.reporter_columns()) == {
                "quarantined",
                "shard_retries",
                "shard_degraded",
            }
        finally:
            inprocess.close()
            sharded.close()

    def test_inax_columns_gain_fallback_when_armed(self):
        cfg = _cfg()
        plain = INAXBackend("cartpole", cfg, base_seed=1)
        armed = INAXBackend("cartpole", cfg, base_seed=1, fallback="cpu-fast")
        assert set(plain.reporter_columns()) == {
            "quarantined",
            "oversize",
            "pack_eff",
        }
        assert set(armed.reporter_columns()) == {
            "quarantined",
            "oversize",
            "pack_eff",
            "fallback_waves",
        }
