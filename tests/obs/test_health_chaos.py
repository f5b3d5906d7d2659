"""Watchtower under PR 4 chaos plans.

The satellite contract: a fault-ridden run must produce the expected
``HealthEvent`` kinds, and replaying the same :class:`FaultPlan` must
yield a **byte-identical** ``health.json`` — chaos is seeded, health
evaluation is pure, so the composition is deterministic end to end.
"""

from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.obs.detectors import HealthConfig
from repro.obs.monitor import HealthMonitor
from repro.resilience.faults import FaultPlan

NAN_SPEC = "seed=5,env.reward_nan@0.25"
WEDGE_SPEC = "seed=11,inax.wedge@0.35,env.reward_nan@0.1"


def _chaos_run(spec, backend="cpu", generations=2, **e3_kwargs):
    monitor = HealthMonitor(HealthConfig(quarantine_warning_fraction=0.05))
    platform = E3(
        "cartpole",
        backend=backend,
        neat_config=NEATConfig(population_size=16),
        seed=3,
        fault_plan=FaultPlan.parse(spec),
        health=monitor,
        **e3_kwargs,
    )
    platform.run(max_generations=generations)
    platform.backend.close()
    return monitor


class TestChaosEventKinds:
    def test_nan_storm_produces_quarantine_events(self):
        monitor = _chaos_run(NAN_SPEC)
        detectors = {e.detector for e in monitor.events}
        assert "quarantine.storm" in detectors
        sites = {e.site for e in monitor.events
                 if e.detector == "quarantine.storm"}
        # every generation of this plan quarantines someone
        assert sites  # at least one flagged generation
        assert all(site.startswith("gen=") for site in sites)

    def test_wedged_device_produces_fallback_events(self):
        monitor = _chaos_run(WEDGE_SPEC, backend="inax", fallback="cpu-fast")
        detectors = {e.detector for e in monitor.events}
        assert "fallback.storm" in detectors

    def test_fault_free_run_is_quiet_on_resilience_detectors(self):
        monitor = HealthMonitor()
        platform = E3(
            "cartpole",
            backend="cpu",
            neat_config=NEATConfig(population_size=16),
            seed=3,
            health=monitor,
        )
        platform.run(max_generations=2)
        platform.backend.close()
        noisy = {"quarantine.storm", "fallback.storm", "shard.instability"}
        assert not {e.detector for e in monitor.events} & noisy


class TestChaosReplayDeterminism:
    def _health_bytes(self, tmp_path, name, spec, **kwargs):
        monitor = _chaos_run(spec, **kwargs)
        path = tmp_path / name
        monitor.write(path)
        return path.read_bytes()

    def test_replayed_plan_byte_identical_health_json(self, tmp_path):
        first = self._health_bytes(tmp_path, "a.json", NAN_SPEC)
        second = self._health_bytes(tmp_path, "b.json", NAN_SPEC)
        assert first == second

    def test_replayed_inax_chaos_byte_identical(self, tmp_path):
        first = self._health_bytes(
            tmp_path, "a.json", WEDGE_SPEC, backend="inax", fallback="cpu-fast"
        )
        second = self._health_bytes(
            tmp_path, "b.json", WEDGE_SPEC, backend="inax", fallback="cpu-fast"
        )
        assert first == second

    def test_different_seed_different_stream_still_valid(self, tmp_path):
        import json

        from repro.obs.events import validate_health_report

        payload = json.loads(
            self._health_bytes(
                tmp_path, "c.json", "seed=9,env.reward_nan@0.25"
            )
        )
        assert validate_health_report(payload) == []
