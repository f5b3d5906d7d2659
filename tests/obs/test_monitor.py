"""The streaming HealthMonitor: reporter wiring, telemetry emission,
sample assembly from real backends, and health.json determinism."""

import json

from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.neat.population import GenerationStats
from repro.obs.detectors import HealthConfig
from repro.obs.events import validate_health_report
from repro.obs.monitor import (
    SAMPLE_SPAN,
    HealthMonitor,
    build_sample,
    run_attribution,
)
from repro.telemetry import TelemetrySession


def _stats(generation=0, **overrides):
    base = dict(
        generation=generation,
        best_fitness=10.0,
        mean_fitness=5.0,
        num_species=3,
        best_genome_key=1,
        mean_nodes=4.0,
        mean_connections=6.0,
        population_size=20,
        extras={},
    )
    base.update(overrides)
    return GenerationStats(**base)


class TestBuildSample:
    def test_fixed_fields(self):
        sample = build_sample(_stats(generation=4))
        assert sample.generation == 4
        assert sample.best_fitness == 10.0
        assert sample.num_species == 3
        assert sample.population_size == 20

    def test_extras_copied(self):
        sample = build_sample(
            _stats(extras={"quarantined": 2.0, "pack_eff": 0.4,
                           "fallback_waves": 1.0})
        )
        assert sample.quarantined == 2.0
        assert sample.pack_eff == 0.4
        assert sample.fallback_waves == 1.0

    def test_backend_probes(self):
        class FakeReport:
            waves = 3
            setup_cycles = 100.0
            prefetch_hidden_cycles = 40.0

        class FakeRecord:
            cycle_report = FakeReport()

        class FakePipeline:
            prefetch = True

        class FakeBackend:
            records = [FakeRecord()]
            pipeline = FakePipeline()

            def compile_cache_info(self):
                return {"hits": 7, "misses": 3, "size": 5, "warmed": 0}

        sample = build_sample(_stats(), FakeBackend())
        assert sample.compile_hits == 7.0
        assert sample.compile_misses == 3.0
        assert sample.waves == 3
        assert sample.setup_cycles == 100.0
        assert sample.prefetch_hidden_cycles == 40.0
        assert sample.prefetch_enabled is True

    def test_deferred_cycle_report_tolerated(self):
        class FakeRecord:
            cycle_report = None  # a backend built with no INAX config

        class FakeBackend:
            records = [FakeRecord()]

        sample = build_sample(_stats(), FakeBackend())
        assert sample.waves is None


class TestMonitorStreaming:
    def test_emits_sample_and_event_spans(self):
        session = TelemetrySession()
        session.install()
        try:
            monitor = HealthMonitor(HealthConfig(species_floor=2))
            monitor.on_generation(_stats(generation=0, num_species=3))
            monitor.on_generation(_stats(generation=1, num_species=1))
            names = [s.name for s in session.tracer.spans]
        finally:
            session.uninstall()
        assert names.count(SAMPLE_SPAN) == 2
        assert "health.species.collapse" in names
        snapshot = session.metrics.snapshot()
        assert snapshot["health.events.warning"]["value"] == 1

    def test_silent_without_telemetry(self):
        monitor = HealthMonitor()
        monitor.on_generation(_stats())
        assert len(monitor.samples) == 1

    def test_finalize_idempotent_and_write(self, tmp_path):
        monitor = HealthMonitor()
        monitor.on_generation(_stats())
        path = tmp_path / "health.json"
        first = monitor.write(path)
        second = monitor.write(path)
        assert first.to_json() == second.to_json()
        payload = json.loads(path.read_text())
        assert validate_health_report(payload) == []
        assert payload["generations"] == 1


class TestReattach:
    """Satellite regression: resubmitted jobs reuse a monitor instance."""

    def _population(self):
        from repro.neat.population import Population

        return Population(NEATConfig(population_size=8), seed=0)

    def test_attach_twice_does_not_double_register(self):
        population = self._population()
        monitor = HealthMonitor()
        monitor.attach(population)
        monitor.attach(population)
        registered = [
            r for r in population.reporters._reporters if r is monitor
        ]
        assert len(registered) == 1
        # one attach, one sample per generation — not two
        session = TelemetrySession()
        with session:
            monitor.on_generation(_stats(generation=0))
        names = [s.name for s in session.tracer.spans]
        assert names.count(SAMPLE_SPAN) == 1

    def test_reattach_after_finalize_rearms(self):
        population = self._population()
        monitor = HealthMonitor()
        monitor.attach(population)
        monitor.on_generation(_stats(generation=0))
        monitor.finalize()
        # a resubmitted job re-attaches the same monitor: the finalize
        # latch must reopen instead of refusing the new run's samples
        monitor.attach(population)
        monitor.on_generation(_stats(generation=1))
        assert len(monitor.samples) == 2
        monitor.finalize()
        monitor.finalize()  # still idempotent within the new run
        assert monitor.report().generations == 2

    def test_e3_rerun_with_same_monitor(self):
        monitor = HealthMonitor()
        for _ in range(2):
            E3(
                "cartpole",
                backend="cpu",
                neat_config=NEATConfig(population_size=12),
                seed=5,
                health=monitor,
            ).run(max_generations=2)
        # both runs observed, no double-registration doubling samples
        assert len(monitor.samples) == 4


class TestRunAttribution:
    def test_filters_to_deterministic_keys(self):
        manifest = {
            "command": "run",
            "env": "cartpole",
            "backend": "inax",
            "seed": 7,
            "schedule": "lpt",
            "prefetch": True,
            "overlap": False,  # retired key of older manifests
            "git_commit": "abc",
            "git_dirty": False,
            "created_unix": 123.4,  # wall clock: must not leak
            "platform": "Linux",
        }
        run = run_attribution(manifest)
        assert "created_unix" not in run
        assert "platform" not in run
        assert "overlap" not in run
        assert run["schedule"] == "lpt"
        assert run["git_commit"] == "abc"

    def test_empty_manifest(self):
        assert run_attribution(None) == {}


class TestPlatformWiring:
    def test_e3_attaches_monitor_and_probes_backend(self, tmp_path):
        monitor = HealthMonitor()
        platform = E3(
            "cartpole",
            backend="inax",
            neat_config=NEATConfig(population_size=16),
            seed=7,
            health=monitor,
        )
        result = platform.run(max_generations=2)
        assert len(monitor.samples) == result.generations
        # the INAX backend's cycle report feeds the sample stream
        assert monitor.samples[0].waves is not None
        assert monitor.samples[0].pack_eff is not None
        # run() finalizes the monitor
        report = monitor.report()
        assert report.generations == result.generations

    def test_identical_runs_identical_reports(self):
        def run_once():
            monitor = HealthMonitor()
            E3(
                "cartpole",
                backend="cpu",
                neat_config=NEATConfig(population_size=12),
                seed=5,
                health=monitor,
            ).run(max_generations=3)
            return monitor.report().to_json()

        assert run_once() == run_once()
