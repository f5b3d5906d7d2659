"""TelemetrySession lifecycle and end-to-end platform integration."""

from pathlib import Path

import pytest

from repro.core.platform import E3
from repro.neat.config import NEATConfig
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    Tracer,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
    summarize_trace,
    write_trace_jsonl,
)


class TestSessionLifecycle:
    def test_install_uninstall_restores_previous(self):
        outer_tracer, outer_metrics = Tracer(), MetricsRegistry()
        set_tracer(outer_tracer)
        set_metrics(outer_metrics)
        try:
            session = TelemetrySession()
            with session:
                assert get_tracer() is session.tracer
                assert get_metrics() is session.metrics
                assert session.installed
            assert get_tracer() is outer_tracer
            assert get_metrics() is outer_metrics
            assert not session.installed
        finally:
            set_tracer(None)
            set_metrics(None)

    def test_install_is_idempotent(self):
        session = TelemetrySession()
        session.install()
        session.install()  # second install must not clobber the saved state
        session.uninstall()
        assert get_tracer() is None
        assert get_metrics() is None

    def test_nested_sessions_restore_in_lifo_order(self):
        outer, inner = TelemetrySession(), TelemetrySession()
        outer.install()
        inner.install()
        assert get_tracer() is inner.tracer
        inner.uninstall()
        assert get_tracer() is outer.tracer
        assert get_metrics() is outer.metrics
        outer.uninstall()
        assert get_tracer() is None
        assert get_metrics() is None

    def test_out_of_order_teardown_does_not_resurrect(self):
        """Regression: uninstalling sessions in non-LIFO order used to
        re-install the inner session's (dead) tracer when the outer one
        left, leaking spans from later work into a closed session."""
        outer, inner = TelemetrySession(), TelemetrySession()
        outer.install()
        inner.install()
        # non-LIFO: the *outer* session leaves first
        outer.uninstall()
        # the live inner session must stay active, not be clobbered
        assert get_tracer() is inner.tracer
        assert get_metrics() is inner.metrics
        inner.uninstall()
        # ...and the fully-unwound state is clean, not outer's tracer
        assert get_tracer() is None
        assert get_metrics() is None

    def test_out_of_order_teardown_three_deep(self):
        a, b, c = (TelemetrySession() for _ in range(3))
        a.install()
        b.install()
        c.install()
        b.uninstall()  # pull the middle out
        assert get_tracer() is c.tracer
        c.uninstall()
        assert get_tracer() is a.tracer
        a.uninstall()
        assert get_tracer() is None
        assert get_metrics() is None

    def test_sessions_are_thread_local(self):
        import threading

        session = TelemetrySession()
        seen: dict[str, object] = {}

        def worker() -> None:
            seen["tracer"] = get_tracer()

        with session:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # a fresh thread starts from the default context: no tracer
        assert seen["tracer"] is None

    def test_phase_timer_shares_registry(self):
        session = TelemetrySession()
        session.phase_timer.record("evaluate", 2.0)
        assert (
            session.metrics.counter("phase.evaluate_seconds").value == 2.0
        )

    def test_export_writes_selected_sinks(self, tmp_path):
        session = TelemetrySession()
        with session:
            session.tracer.add_span("x", start=0.0, duration=1.0)
        written = session.export(
            trace_path=tmp_path / "t.jsonl",
            chrome_path=tmp_path / "t.chrome.json",
            metrics_path=tmp_path / "m.json",
        )
        assert set(written) == {"trace", "chrome", "metrics"}
        for path in written.values():
            assert Path(path).exists()


def _run(backend: str, telemetry: TelemetrySession | None = None, **kwargs):
    platform = E3(
        "cartpole",
        backend=backend,
        neat_config=NEATConfig(population_size=24),
        seed=3,
        telemetry=telemetry,
        **kwargs,
    )
    return platform.run(max_generations=3)


class TestPlatformIntegration:
    def test_inax_run_produces_expected_spans(self):
        session = TelemetrySession()
        result = _run("inax", telemetry=session)
        names = {s.name for s in session.tracer.spans}
        for expected in (
            "phase.evaluate",
            "phase.speciate",
            "phase.reproduce",
            "backend.evaluate",
            "pu.setup",
            "pu.compute",
            "inax.wave",
        ):
            assert expected in names, expected
        # device spans landed on per-PU tracks
        tracks = {s.track for s in session.tracer.spans}
        assert any(t.startswith("pu") for t in tracks)
        assert result.telemetry is session
        assert not session.installed  # run() uninstalled it

    def test_phase_timer_matches_profiler_exactly(self):
        session = TelemetrySession()
        result = _run("cpu", telemetry=session)
        # the TeeRecorder feeds both from the same record() calls
        assert session.phase_timer.phases == result.profiler.phases
        assert session.phase_timer.fractions() == result.profiler.fractions()

    def test_trace_summary_fractions_match_profiler(self, tmp_path):
        """Acceptance: trace-summary phase fractions within 1% of the
        profiler's fractions()."""
        session = TelemetrySession()
        result = _run("cpu-fast", telemetry=session)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, session.tracer, metrics=session.metrics)
        summary = summarize_trace(path)
        fractions = summary.phase_fractions()
        expected = result.profiler.fractions()
        assert set(fractions) == set(expected)
        for phase, value in expected.items():
            assert fractions[phase] == pytest.approx(value, abs=0.01)

    def test_metrics_cover_episodes_and_cache(self):
        session = TelemetrySession()
        _run("cpu-fast", telemetry=session)
        snapshot = session.metrics.snapshot()
        assert snapshot["episode.steps"]["count"] > 0
        assert snapshot["rollout.wave_size"]["count"] > 0
        assert "compile.cache.hits" in snapshot
        assert snapshot["neat.generations"]["value"] == 3

    def test_worker_shards_ship_telemetry(self):
        session = TelemetrySession()
        _run("cpu-fast", telemetry=session, workers=2)
        snapshot = session.metrics.snapshot()
        assert snapshot["fastcpu.shard.evaluate_seconds"]["value"] > 0
        assert snapshot["fastcpu.shard.genomes"]["count"] > 0
        # worker-side histograms merged back into the parent registry
        assert snapshot["episode.steps"]["count"] > 0
        assert snapshot["rollout.wave_size"]["count"] > 0

    def test_telemetry_does_not_change_evolution(self):
        """Acceptance: identical fitness trajectory with telemetry on."""
        bare = _run("cpu-fast")
        traced = _run("cpu-fast", telemetry=TelemetrySession())
        assert [s.best_fitness for s in bare.history] == [
            s.best_fitness for s in traced.history
        ]
        assert [s.mean_fitness for s in bare.history] == [
            s.mean_fitness for s in traced.history
        ]
        assert bare.best_fitness == traced.best_fitness

    def test_globals_clean_after_run(self):
        _run("cpu", telemetry=TelemetrySession())
        assert get_tracer() is None
        assert get_metrics() is None
