"""The detector registry: deterministic run-health rules.

Each detector consumes the per-generation :class:`GenerationSample`
stream and emits :class:`~repro.obs.events.HealthEvent`\\ s when a
health contract is violated.  Detectors are **pure functions of the
sample stream**: no wall clock, no RNG, no telemetry access — the same
samples always produce the same events, which is what lets the doctor
replay an exported trace through the same registry and reproduce the
live monitor's ``health.json`` byte for byte.

Samples carry *cumulative* counters (quarantined genomes, shard
retries, cache hits) exactly as the backends report them; detectors
difference consecutive samples themselves, so a monitor attached
mid-run (resume) still sees correct per-generation deltas.

Registry
--------

===========================  ====================================================
name                         fires when
===========================  ====================================================
``fitness.stagnation``       best-ever fitness flat for a window of generations
``fitness.regression``       generation best drops far below the running max
``species.collapse``         species count collapses to (or below) the floor
``cache.hit_rate``           decode/compile cache hit rate collapses post-warmup
``quarantine.storm``         NaN/inf quarantines spike in one generation
``fallback.storm``           INAX waves fall back to software in bursts
``shard.instability``        shard retries burst / shards degrade in-process
``inax.occupancy``           wave packing efficiency sinks below the floor
``inax.prefetch``            prefetch stops hiding set-up behind compute
``fabric.instability``       farm devices get evicted / the farm degrades to one
``fabric.eviction_storm``    evictions cluster inside a short window
===========================  ====================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterable, Mapping

from repro.obs.events import HealthEvent

__all__ = [
    "HealthConfig",
    "GenerationSample",
    "Detector",
    "DETECTOR_REGISTRY",
    "register_detector",
    "build_detectors",
    "evaluate_samples",
]


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds for every registered detector (all deterministic)."""

    #: generations without a new best before ``fitness.stagnation``
    stagnation_window: int = 10
    #: generation-best drop (fraction of the running max's magnitude)
    #: tolerated before ``fitness.regression`` warns / goes critical
    regression_tolerance: float = 0.25
    regression_critical: float = 0.6
    #: ``species.collapse`` fires when the count falls below this floor
    species_floor: int = 2
    #: generations of cache traffic ignored before hit rates are judged
    cache_warmup_generations: int = 3
    #: minimum per-generation lookups before a hit rate is meaningful
    cache_min_lookups: int = 10
    #: per-generation hit rate below this is a collapse
    cache_hit_rate_floor: float = 0.2
    #: quarantined fraction of the population per generation
    quarantine_warning_fraction: float = 0.05
    quarantine_critical_fraction: float = 0.25
    #: fraction of a generation's waves that fell back to software
    fallback_warning_fraction: float = 0.25
    #: shard retries in one generation before ``shard.instability``
    shard_retry_burst: int = 2
    #: per-generation wave occupancy below this is an occupancy drop
    occupancy_floor: float = 0.25
    #: fraction of set-up cycles prefetch must hide (later waves)
    prefetch_hiding_floor: float = 0.25
    #: ``fabric.eviction_storm``: this many device evictions inside the
    #: window is a storm (flapping hardware, not isolated failures)
    eviction_storm_window: int = 5
    eviction_storm_count: int = 3

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class GenerationSample:
    """One generation's deterministic health inputs.

    Everything optional is ``None`` when the run's backend does not
    produce it (a CPU run has no shard counters, a software run has no
    wave occupancy); detectors skip what is missing.  Counter fields
    are cumulative over the run, matching the backends'
    ``reporter_columns`` contract.
    """

    generation: int
    best_fitness: float | None = None
    mean_fitness: float | None = None
    num_species: int | None = None
    population_size: int | None = None
    #: cumulative quarantined-genome count (all backends)
    quarantined: float | None = None
    #: cumulative shard retry / degraded counts (cpu-fast with workers)
    shard_retries: float | None = None
    shard_degraded: float | None = None
    #: cumulative oversize-genome / software-fallback-wave counts (inax)
    oversize: float | None = None
    fallback_waves: float | None = None
    #: this generation's count-based wave occupancy (inax)
    pack_eff: float | None = None
    #: cumulative compile-cache lookups (cpu-compiled / cpu-fast)
    compile_hits: float | None = None
    compile_misses: float | None = None
    #: this generation's dispatch shape (inax cycle report)
    waves: int | None = None
    setup_cycles: float | None = None
    prefetch_hidden_cycles: float | None = None
    prefetch_enabled: bool | None = None
    #: farm health (fabric backend): alive-device gauge + cumulative
    #: eviction/re-admission/re-pack counters
    devices_up: float | None = None
    device_evictions: float | None = None
    device_readmissions: float | None = None
    repacked_waves: float | None = None
    #: island migration outcomes (cumulative)
    migrations: float | None = None
    migrations_skipped: float | None = None

    def to_attrs(self) -> dict[str, Any]:
        """Flat span-attribute dict; ``None`` fields are omitted."""
        attrs: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                attrs[spec.name] = value
        return attrs

    @classmethod
    def from_attrs(cls, attrs: Mapping[str, Any]) -> "GenerationSample":
        known = {spec.name for spec in fields(cls)}
        kwargs = {k: v for k, v in attrs.items() if k in known}
        return cls(**kwargs)


class Detector:
    """Base detector: stateful over one run, deterministic throughout."""

    #: registry name; subclasses override
    name = "detector"

    def __init__(self, config: HealthConfig) -> None:
        self.config = config

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        """Consume one generation's sample; return any new events."""
        raise NotImplementedError

    def finish(self) -> list[HealthEvent]:
        """End-of-run hook (stagnation summaries etc.); default none."""
        return []

    # ------------------------------------------------------------ helpers
    def _event(
        self,
        severity: str,
        site: str,
        message: str,
        **evidence: Any,
    ) -> HealthEvent:
        return HealthEvent(
            detector=self.name,
            severity=severity,
            site=site,
            message=message,
            evidence=evidence,
        )


#: registry name -> detector class
DETECTOR_REGISTRY: dict[str, type[Detector]] = {}


def register_detector(cls: type[Detector]) -> type[Detector]:
    if cls.name in DETECTOR_REGISTRY:
        raise ValueError(f"duplicate detector name {cls.name!r}")
    DETECTOR_REGISTRY[cls.name] = cls
    return cls


def build_detectors(
    config: HealthConfig | None = None,
    names: Iterable[str] | None = None,
) -> list[Detector]:
    """Instantiate registered detectors (all by default, sorted by name)."""
    config = config if config is not None else HealthConfig()
    if names is None:
        selected = sorted(DETECTOR_REGISTRY)
    else:
        selected = list(names)
        for name in selected:
            if name not in DETECTOR_REGISTRY:
                known = ", ".join(sorted(DETECTOR_REGISTRY))
                raise ValueError(
                    f"unknown detector {name!r}; registered: {known}"
                )
    return [DETECTOR_REGISTRY[name](config) for name in selected]


def _delta(
    current: float | None, previous: float | None
) -> float | None:
    """Per-generation delta of a cumulative counter (None = unknown)."""
    if current is None:
        return None
    if previous is None:
        return current
    return current - previous


# ----------------------------------------------------------- fitness health
@register_detector
class FitnessStagnationDetector(Detector):
    """Best-ever fitness flat for ``stagnation_window`` generations.

    Warns at one window, goes critical at two — an autonomous edge run
    that stopped improving is burning energy for nothing.
    """

    name = "fitness.stagnation"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._best: float | None = None
        self._since_improved = 0
        self._warned = False
        self._critical = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        best = sample.best_fitness
        if best is None:
            return []
        if self._best is None or best > self._best:
            self._best = best
            self._since_improved = 0
            self._warned = False
            self._critical = False
            return []
        self._since_improved += 1
        window = self.config.stagnation_window
        events: list[HealthEvent] = []
        if self._since_improved >= 2 * window and not self._critical:
            self._critical = True
            events.append(
                self._event(
                    "critical",
                    f"gen={sample.generation}",
                    f"best fitness flat for {self._since_improved} "
                    f"generations (2x window)",
                    stagnant_generations=self._since_improved,
                    window=window,
                    best_fitness=self._best,
                )
            )
        elif self._since_improved >= window and not self._warned:
            self._warned = True
            events.append(
                self._event(
                    "warning",
                    f"gen={sample.generation}",
                    f"best fitness flat for {self._since_improved} "
                    f"generations",
                    stagnant_generations=self._since_improved,
                    window=window,
                    best_fitness=self._best,
                )
            )
        return events


@register_detector
class FitnessRegressionDetector(Detector):
    """Generation best collapses relative to the running maximum.

    NEAT's per-generation best naturally wobbles; this fires only when
    the drop exceeds ``regression_tolerance`` of the running max's
    magnitude, and emits once per excursion (on entry) rather than
    every generation the run stays depressed.
    """

    name = "fitness.regression"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._running_max: float | None = None
        self._in_regression = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        best = sample.best_fitness
        if best is None:
            return []
        if self._running_max is None or best > self._running_max:
            self._running_max = best
            self._in_regression = False
            return []
        scale = max(abs(self._running_max), 1.0)
        drop = (self._running_max - best) / scale
        if drop <= self.config.regression_tolerance:
            self._in_regression = False
            return []
        if self._in_regression:
            return []
        self._in_regression = True
        severity = (
            "critical" if drop > self.config.regression_critical else "warning"
        )
        return [
            self._event(
                severity,
                f"gen={sample.generation}",
                f"generation best dropped {drop:.0%} below the running max",
                drop_fraction=drop,
                generation_best=best,
                running_max=self._running_max,
            )
        ]


@register_detector
class SpeciesCollapseDetector(Detector):
    """Species count falls below the diversity floor.

    One surviving species means crossover diversity is gone and the
    run is riding a single lineage; fires on the healthy -> collapsed
    transition.
    """

    name = "species.collapse"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._was_healthy = False
        self._peak: int | None = None

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        count = sample.num_species
        if count is None:
            return []
        if self._peak is None or count > self._peak:
            self._peak = count
        floor = self.config.species_floor
        if count >= floor:
            self._was_healthy = True
            return []
        if not self._was_healthy:
            # a run that *starts* under the floor never had diversity
            # to lose; stay quiet until it first clears the bar
            return []
        self._was_healthy = False
        return [
            self._event(
                "warning",
                f"gen={sample.generation}",
                f"species collapsed to {count} (floor {floor}, "
                f"peak {self._peak})",
                num_species=count,
                floor=floor,
                peak=self._peak,
            )
        ]


# ------------------------------------------------------------- cache health
@register_detector
class CacheCollapseDetector(Detector):
    """Compile-cache hit rate collapses after warm-up.

    A structural cache that stops hitting means every generation pays
    full compile cost again — the structural-batching speedup silently
    evaporates.  Judged per generation on delta traffic.
    """

    name = "cache.hit_rate"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._previous = (0.0, 0.0)
        self._alerted = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        hits, misses = sample.compile_hits, sample.compile_misses
        if hits is None or misses is None:
            return []
        prev_hits, prev_misses = self._previous
        self._previous = (hits, misses)
        if sample.generation < self.config.cache_warmup_generations:
            return []
        delta_hits = hits - prev_hits
        lookups = delta_hits + misses - prev_misses
        if lookups < self.config.cache_min_lookups:
            return []
        rate = delta_hits / lookups
        floor = self.config.cache_hit_rate_floor
        if rate >= floor:
            self._alerted = False
            return []
        if self._alerted:
            return []
        self._alerted = True
        return [
            self._event(
                "warning",
                f"gen={sample.generation}|cache=compile",
                f"compile cache hit rate collapsed to {rate:.0%} "
                f"(floor {floor:.0%})",
                hit_rate=rate,
                floor=floor,
                lookups=lookups,
            )
        ]


# -------------------------------------------------------- resilience health
@register_detector
class QuarantineStormDetector(Detector):
    """NaN/inf quarantines spike within one generation.

    A lone quarantine is the resilience layer doing its job; a storm
    means a systemic fault source (sensor, corrupted buffer) is
    poisoning a meaningful slice of the population every generation.
    """

    name = "quarantine.storm"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._previous: float | None = None

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        delta = _delta(sample.quarantined, self._previous)
        if sample.quarantined is not None:
            self._previous = sample.quarantined
        if delta is None or delta <= 0:
            return []
        population = sample.population_size
        if not population:
            return []
        fraction = delta / population
        if fraction < self.config.quarantine_warning_fraction:
            return []
        severity = (
            "critical"
            if fraction >= self.config.quarantine_critical_fraction
            else "warning"
        )
        return [
            self._event(
                severity,
                f"gen={sample.generation}",
                f"{int(delta)} genomes quarantined this generation "
                f"({fraction:.0%} of the population)",
                quarantined=delta,
                fraction=fraction,
                population=population,
            )
        ]


@register_detector
class FallbackStormDetector(Detector):
    """INAX waves degrade to the software path in bursts.

    The fallback ladder keeps results bit-identical, but every fallen
    wave runs at software speed — a burst means the device (or its
    DMA) is effectively down while the run pretends to be accelerated.
    """

    name = "fallback.storm"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._previous: float | None = None

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        delta = _delta(sample.fallback_waves, self._previous)
        if sample.fallback_waves is not None:
            self._previous = sample.fallback_waves
        if delta is None or delta <= 0:
            return []
        waves = sample.waves
        evidence: dict[str, Any] = {"fallback_waves": delta}
        if waves:
            fraction = delta / waves
            evidence["waves"] = waves
            evidence["fraction"] = fraction
            if delta >= waves:
                severity = "critical"
                message = (
                    f"every wave ({int(delta)}/{waves}) fell back to "
                    "software — the device is effectively down"
                )
            elif fraction >= self.config.fallback_warning_fraction:
                severity = "warning"
                message = (
                    f"{int(delta)}/{waves} waves fell back to software "
                    f"({fraction:.0%})"
                )
            else:
                severity = "info"
                message = f"{int(delta)} wave(s) fell back to software"
        else:
            severity = "warning"
            message = f"{int(delta)} wave(s) fell back to software"
        return [
            self._event(
                severity,
                f"gen={sample.generation}",
                message,
                **evidence,
            )
        ]


@register_detector
class ShardInstabilityDetector(Detector):
    """cpu-fast shards retry in bursts or degrade in-process.

    Retries are recoverable churn (warn on bursts); a *degraded* shard
    means retries were exhausted and the supervisor pulled work
    in-process — the parallel path is failing.
    """

    name = "shard.instability"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._previous_retries: float | None = None
        self._previous_degraded: float | None = None

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        events: list[HealthEvent] = []
        retries = _delta(sample.shard_retries, self._previous_retries)
        if sample.shard_retries is not None:
            self._previous_retries = sample.shard_retries
        if retries is not None and retries >= self.config.shard_retry_burst:
            events.append(
                self._event(
                    "warning",
                    f"gen={sample.generation}",
                    f"{int(retries)} shard retries in one generation",
                    retries=retries,
                    burst_threshold=self.config.shard_retry_burst,
                )
            )
        degraded = _delta(sample.shard_degraded, self._previous_degraded)
        if sample.shard_degraded is not None:
            self._previous_degraded = sample.shard_degraded
        if degraded is not None and degraded > 0:
            events.append(
                self._event(
                    "critical",
                    f"gen={sample.generation}",
                    f"{int(degraded)} shard(s) exhausted retries and "
                    "degraded in-process",
                    degraded=degraded,
                )
            )
        return events


# ------------------------------------------------------------- INAX health
@register_detector
class OccupancyDropDetector(Detector):
    """Wave occupancy sinks below the floor.

    Occupancy is the §V-B2 idle-PU effect made visible: a low value
    means most PU slots idle while stragglers pin waves open — exactly
    what LPT packing exists to fix.  Fires on the transition into the
    low-occupancy regime.
    """

    name = "inax.occupancy"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._alerted = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        occupancy = sample.pack_eff
        if occupancy is None:
            return []
        floor = self.config.occupancy_floor
        if occupancy >= floor:
            self._alerted = False
            return []
        if self._alerted:
            return []
        self._alerted = True
        return [
            self._event(
                "warning",
                f"gen={sample.generation}",
                f"wave occupancy dropped to {occupancy:.0%} "
                f"(floor {floor:.0%})",
                occupancy=occupancy,
                floor=floor,
            )
        ]


@register_detector
class PrefetchHidingDetector(Detector):
    """Prefetch stops hiding set-up cycles behind compute.

    With double-buffering on, later waves should hide most of their
    set-up behind the previous wave's compute; a low hidden fraction
    means compute windows shrank below set-up cost and the DMA channel
    is exposed on the wall clock again.
    """

    name = "inax.prefetch"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._alerted = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        if not sample.prefetch_enabled:
            return []
        hidden = sample.prefetch_hidden_cycles
        setup = sample.setup_cycles
        if hidden is None or setup is None:
            return []
        if sample.waves is not None and sample.waves < 2:
            return []  # a single wave has nothing to hide behind
        total_setup = hidden + setup
        if total_setup <= 0:
            return []
        fraction = hidden / total_setup
        floor = self.config.prefetch_hiding_floor
        if fraction >= floor:
            self._alerted = False
            return []
        if self._alerted:
            return []
        self._alerted = True
        return [
            self._event(
                "warning",
                f"gen={sample.generation}",
                f"prefetch hides only {fraction:.0%} of set-up cycles "
                f"(floor {floor:.0%})",
                hidden_fraction=fraction,
                floor=floor,
                hidden_cycles=hidden,
                exposed_setup_cycles=setup,
            )
        ]


# ------------------------------------------------------------ fabric health
@register_detector
class FabricInstabilityDetector(Detector):
    """Farm devices get evicted, or the farm degrades to one device.

    Each evicted device shifts its waves onto the survivors (correct
    but slower — the re-pack is fitness-invisible, the cycles are not);
    warn per eviction burst.  When the alive-device count collapses to
    one from a larger farm, the run has silently become single-device:
    critical, fired on the transition.
    """

    name = "fabric.instability"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._previous_evictions: float | None = None
        self._peak_up: float | None = None
        self._degraded = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        events: list[HealthEvent] = []
        evictions = _delta(
            sample.device_evictions, self._previous_evictions
        )
        if sample.device_evictions is not None:
            self._previous_evictions = sample.device_evictions
        if evictions is not None and evictions > 0:
            events.append(
                self._event(
                    "warning",
                    f"gen={sample.generation}",
                    f"{int(evictions)} device(s) evicted this generation",
                    evictions=evictions,
                    devices_up=sample.devices_up,
                )
            )
        up = sample.devices_up
        if up is not None:
            if self._peak_up is None or up > self._peak_up:
                self._peak_up = up
            if up > 1:
                self._degraded = False
            elif self._peak_up > 1 and not self._degraded:
                self._degraded = True
                events.append(
                    self._event(
                        "critical",
                        f"gen={sample.generation}",
                        f"farm degraded to 1 device "
                        f"(peak {int(self._peak_up)})",
                        devices_up=up,
                        peak=self._peak_up,
                    )
                )
        return events


@register_detector
class EvictionStormDetector(Detector):
    """Device evictions cluster inside a short window.

    Isolated evictions are the supervisor doing its job; a storm —
    ``eviction_storm_count`` evictions inside
    ``eviction_storm_window`` generations — means the farm is flapping
    (bad power rail, thermal runaway) and probation keeps re-admitting
    devices that immediately fail again.  Fired on the transition into
    the storm regime.
    """

    name = "fabric.eviction_storm"

    def __init__(self, config: HealthConfig) -> None:
        super().__init__(config)
        self._previous: float | None = None
        self._window: list[float] = []
        self._alerted = False

    def observe(self, sample: GenerationSample) -> list[HealthEvent]:
        delta = _delta(sample.device_evictions, self._previous)
        if sample.device_evictions is not None:
            self._previous = sample.device_evictions
        if delta is None:
            return []
        self._window.append(delta)
        window = self.config.eviction_storm_window
        if len(self._window) > window:
            self._window = self._window[-window:]
        total = sum(self._window)
        if total < self.config.eviction_storm_count:
            self._alerted = False
            return []
        if self._alerted:
            return []
        self._alerted = True
        return [
            self._event(
                "critical",
                f"gen={sample.generation}",
                f"{int(total)} device evictions in the last "
                f"{len(self._window)} generation(s) — the farm is flapping",
                evictions_in_window=total,
                window=window,
                threshold=self.config.eviction_storm_count,
            )
        ]


# --------------------------------------------------------------- evaluation
def evaluate_samples(
    samples: Iterable[GenerationSample],
    config: HealthConfig | None = None,
    names: Iterable[str] | None = None,
    observer: Callable[[GenerationSample, list[HealthEvent]], None]
    | None = None,
) -> tuple[list[HealthEvent], list[str], int]:
    """Run a detector set over a sample stream.

    Returns ``(events, detector_names, sample_count)`` — the shared
    core of the live monitor and the offline doctor, so both *must*
    produce identical events for identical samples.  ``observer`` (if
    given) sees each sample with its newly-fired events, which is how
    the streaming monitor publishes to telemetry without the detectors
    ever knowing telemetry exists.
    """
    detectors = build_detectors(config, names)
    events: list[HealthEvent] = []
    count = 0
    for sample in samples:
        count += 1
        fired: list[HealthEvent] = []
        for detector in detectors:
            fired.extend(detector.observe(sample))
        if observer is not None:
            observer(sample, fired)
        events.extend(fired)
    final: list[HealthEvent] = []
    for detector in detectors:
        final.extend(detector.finish())
    events.extend(final)
    return events, [d.name for d in detectors], count
