"""The streaming health monitor (the live half of the watchtower).

:class:`HealthMonitor` is a population reporter: every generation it
assembles a :class:`~repro.obs.detectors.GenerationSample` from the
``GenerationStats`` feed plus cheap backend probes (cache counters,
the last cycle report), runs the detector registry over it, and —
when a tracer is installed — streams both the sample and any fired
events into the trace as zero-duration marker spans so the doctor can
replay the exact same inputs offline.

Determinism: the samples and events never touch the wall clock; only
the optional trace markers carry timestamps (like every other span).
``health.json`` is written through :meth:`HealthMonitor.write`, which
uses the canonical byte layout — two identically-seeded runs produce
identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.neat.population import GenerationStats, Population
from repro.obs.detectors import (
    GenerationSample,
    HealthConfig,
    build_detectors,
)
from repro.obs.events import HealthEvent, HealthReport
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import get_tracer

__all__ = [
    "HealthMonitor",
    "build_sample",
    "run_attribution",
    "SAMPLE_SPAN",
    "EVENT_SPAN_PREFIX",
]

#: span name carrying one generation's sample attrs in the trace
SAMPLE_SPAN = "health.sample"
#: event spans are named ``health.<detector>``
EVENT_SPAN_PREFIX = "health."

#: manifest keys copied into the report's ``run`` section — only
#: deterministic attribution, never wall-clock fields like created_unix
_RUN_KEYS = (
    "command",
    "env",
    "backend",
    "workers",
    "population",
    "generations",
    "episodes_per_genome",
    "seed",
    "git_commit",
    "git_dirty",
    "schedule",
    "prefetch",
    "overlap",
    "devices",
    "islands",
    "migration_interval",
    "migration_size",
)

#: cumulative reporter-column extras copied verbatim into samples
_EXTRA_KEYS = (
    "quarantined",
    "shard_retries",
    "shard_degraded",
    "oversize",
    "fallback_waves",
    "devices_up",
    "device_evictions",
    "device_readmissions",
    "repacked_waves",
    "migrations",
    "migrations_skipped",
)


def run_attribution(manifest: Mapping[str, Any] | None) -> dict[str, Any]:
    """The deterministic slice of a manifest dict for ``health.json``."""
    if not manifest:
        return {}
    return {key: manifest[key] for key in _RUN_KEYS if key in manifest}


def build_sample(
    stats: GenerationStats, backend: Any = None
) -> GenerationSample:
    """Assemble one generation's health inputs.

    The ``GenerationStats`` fixed fields and backend-contributed extras
    provide the evolution-side signals; the optional ``backend`` is
    probed (duck-typed, every probe optional) for cache counters and
    the generation's cycle report.  Under evolve/evaluate overlap the
    software backends defer cycle pricing to ``drain()``, so the INAX
    shape fields stay ``None`` there — the INAX backend prices its
    report synchronously, which is the only backend those detectors
    are about anyway.
    """
    extras = stats.extras
    kwargs: dict[str, Any] = {
        "generation": stats.generation,
        "best_fitness": stats.best_fitness,
        "mean_fitness": stats.mean_fitness,
        "num_species": stats.num_species,
        "population_size": stats.population_size,
    }
    for key in _EXTRA_KEYS:
        if key in extras:
            kwargs[key] = float(extras[key])
    if "pack_eff" in extras:  # per-generation wave occupancy (inax)
        kwargs["pack_eff"] = float(extras["pack_eff"])
    if backend is None:
        return GenerationSample(**kwargs)
    if hasattr(backend, "compile_cache_info"):
        info = backend.compile_cache_info()
        kwargs["compile_hits"] = float(info["hits"])
        kwargs["compile_misses"] = float(info["misses"])
    records = getattr(backend, "records", None)
    if records:
        report = records[-1].cycle_report
        if report is not None:
            kwargs["waves"] = int(report.waves)
            kwargs["setup_cycles"] = float(report.setup_cycles)
            kwargs["prefetch_hidden_cycles"] = float(
                report.prefetch_hidden_cycles
            )
    pipeline = getattr(backend, "pipeline", None)
    if pipeline is not None:
        kwargs["prefetch_enabled"] = bool(pipeline.prefetch)
    return GenerationSample(**kwargs)


class HealthMonitor:
    """Streaming run-health evaluation, wired in as a reporter.

    Usage (the platform does this for you via ``E3(..., health=...)``)::

        monitor = HealthMonitor()
        monitor.attach(population, backend)
        ...            # run as usual; detectors fire per generation
        monitor.write("health.json")
    """

    def __init__(
        self,
        config: HealthConfig | None = None,
        names: list[str] | None = None,
    ) -> None:
        self.config = config if config is not None else HealthConfig()
        self._detectors = build_detectors(self.config, names)
        self.samples: list[GenerationSample] = []
        self.events: list[HealthEvent] = []
        self._backend: Any = None
        self._finalized = False

    # ------------------------------------------------------------ wiring
    def attach(
        self, population: Population, backend: Any = None
    ) -> "HealthMonitor":
        """Register as a reporter and remember the backend to probe.

        Idempotent *and re-arming*: attaching the same monitor again (a
        resumed or re-submitted job) neither double-registers the
        reporter — which would double-emit ``health.sample`` spans and
        double-count ``health.events.*`` — nor leaves a previously
        finalized monitor refusing samples; the finalize latch re-opens
        so the new run's generations are observed normally (and
        :meth:`finalize` stays idempotent *per run*).
        """
        self._backend = backend
        self._finalized = False
        population.reporters.add(self)
        return self

    # -------------------------------------------------------- observation
    def on_generation(self, stats: GenerationStats) -> None:
        """Reporter protocol entry point (fires once per generation)."""
        self.observe(build_sample(stats, self._backend))

    def observe(self, sample: GenerationSample) -> None:
        """Feed one sample through the detectors; stream to telemetry."""
        if self._finalized:
            raise RuntimeError("HealthMonitor already finalized")
        self.samples.append(sample)
        tracer = get_tracer()
        if tracer is not None:
            tracer.add_span(
                SAMPLE_SPAN, tracer.now(), 0.0, **sample.to_attrs()
            )
        fired: list[HealthEvent] = []
        for detector in self._detectors:
            fired.extend(detector.observe(sample))
        self._emit(fired)

    def _emit(self, fired: list[HealthEvent]) -> None:
        if not fired:
            return
        self.events.extend(fired)
        tracer = get_tracer()
        registry = get_metrics()
        for event in fired:
            if tracer is not None:
                tracer.add_span(
                    EVENT_SPAN_PREFIX + event.detector,
                    tracer.now(),
                    0.0,
                    severity=event.severity,
                    site=event.site,
                    message=event.message,
                    **dict(event.evidence),
                )
            if registry is not None:
                registry.counter(f"health.events.{event.severity}").inc()

    # ------------------------------------------------------------ verdict
    def finalize(self) -> None:
        """Run the detectors' end-of-run hooks (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        final: list[HealthEvent] = []
        for detector in self._detectors:
            final.extend(detector.finish())
        self._emit(final)

    def report(
        self, run: Mapping[str, Any] | None = None
    ) -> HealthReport:
        """The run verdict so far (call :meth:`finalize` first for the
        end-of-run hooks to be included)."""
        return HealthReport.build(
            events=self.events,
            generations=len(self.samples),
            detectors=[d.name for d in self._detectors],
            config=self.config.to_dict(),
            run=dict(run or {}),
        )

    def write(
        self, path: str | Path, run: Mapping[str, Any] | None = None
    ) -> HealthReport:
        """Finalize and write the canonical ``health.json``."""
        self.finalize()
        report = self.report(run)
        Path(path).write_text(report.to_json())
        return report
