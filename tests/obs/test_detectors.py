"""Unit tests for the watchtower detector registry.

Every detector is exercised with a synthetic sample stream that walks
it across its threshold, plus the negative case right at the bar.
Determinism (same samples, same events, twice) is asserted for the
whole registry at once.
"""

import json

import pytest

from repro.obs.detectors import (
    DETECTOR_REGISTRY,
    GenerationSample,
    HealthConfig,
    build_detectors,
    evaluate_samples,
)
from repro.obs.events import (
    HealthEvent,
    HealthReport,
    validate_health_report,
)

EXPECTED_DETECTORS = {
    "fitness.stagnation",
    "fitness.regression",
    "species.collapse",
    "cache.hit_rate",
    "quarantine.storm",
    "fallback.storm",
    "shard.instability",
    "inax.occupancy",
    "inax.prefetch",
    "fabric.instability",
    "fabric.eviction_storm",
}


def _events(samples, config=None, names=None):
    events, _, _ = evaluate_samples(samples, config, names)
    return events


def _named(events, name):
    return [e for e in events if e.detector == name]


class TestRegistry:
    def test_all_expected_detectors_registered(self):
        assert set(DETECTOR_REGISTRY) == EXPECTED_DETECTORS

    def test_build_all_sorted(self):
        detectors = build_detectors()
        assert [d.name for d in detectors] == sorted(EXPECTED_DETECTORS)

    def test_build_subset_and_unknown(self):
        only = build_detectors(names=["quarantine.storm"])
        assert [d.name for d in only] == ["quarantine.storm"]
        with pytest.raises(ValueError, match="unknown detector"):
            build_detectors(names=["no.such"])


class TestFitnessStagnation:
    def test_warns_then_goes_critical(self):
        config = HealthConfig(stagnation_window=3)
        samples = [
            GenerationSample(generation=g, best_fitness=5.0)
            for g in range(8)
        ]
        events = _named(_events(samples, config), "fitness.stagnation")
        assert [e.severity for e in events] == ["warning", "critical"]
        assert events[0].site == "gen=3"
        assert events[1].site == "gen=6"
        assert events[0].evidence["stagnant_generations"] == 3

    def test_improvement_resets(self):
        config = HealthConfig(stagnation_window=3)
        samples = [
            GenerationSample(generation=g, best_fitness=float(g // 2))
            for g in range(10)
        ]
        assert not _named(_events(samples, config), "fitness.stagnation")

    def test_skips_missing_fitness(self):
        samples = [GenerationSample(generation=g) for g in range(30)]
        assert not _named(_events(samples), "fitness.stagnation")


class TestFitnessRegression:
    def test_fires_once_per_excursion(self):
        config = HealthConfig(regression_tolerance=0.25)
        bests = [100.0, 100.0, 60.0, 55.0, 100.0, 60.0]
        samples = [
            GenerationSample(generation=g, best_fitness=b)
            for g, b in enumerate(bests)
        ]
        events = _named(_events(samples, config), "fitness.regression")
        assert [e.site for e in events] == ["gen=2", "gen=5"]
        assert all(e.severity == "warning" for e in events)

    def test_critical_on_deep_drop(self):
        samples = [
            GenerationSample(generation=0, best_fitness=100.0),
            GenerationSample(generation=1, best_fitness=10.0),
        ]
        events = _named(_events(samples), "fitness.regression")
        assert [e.severity for e in events] == ["critical"]
        assert events[0].evidence["drop_fraction"] == pytest.approx(0.9)

    def test_tolerated_wobble_is_quiet(self):
        samples = [
            GenerationSample(generation=0, best_fitness=100.0),
            GenerationSample(generation=1, best_fitness=80.0),
        ]
        assert not _named(_events(samples), "fitness.regression")


class TestSpeciesCollapse:
    def test_fires_on_transition_below_floor(self):
        counts = [3, 4, 1, 1, 3, 1]
        samples = [
            GenerationSample(generation=g, num_species=c)
            for g, c in enumerate(counts)
        ]
        events = _named(_events(samples), "species.collapse")
        assert [e.site for e in events] == ["gen=2", "gen=5"]
        assert events[0].evidence["peak"] == 4

    def test_quiet_when_never_diverse(self):
        samples = [
            GenerationSample(generation=g, num_species=1) for g in range(5)
        ]
        assert not _named(_events(samples), "species.collapse")


class TestCacheCollapse:
    def test_compile_collapse_after_warmup(self):
        config = HealthConfig(
            cache_warmup_generations=2, cache_min_lookups=10
        )
        # healthy hit rates, then a collapse at gen 3
        samples = [
            GenerationSample(
                generation=0, compile_hits=0.0, compile_misses=20.0
            ),
            GenerationSample(
                generation=1, compile_hits=18.0, compile_misses=22.0
            ),
            GenerationSample(
                generation=2, compile_hits=36.0, compile_misses=24.0
            ),
            GenerationSample(
                generation=3, compile_hits=37.0, compile_misses=43.0
            ),
        ]
        events = _named(_events(samples, config), "cache.hit_rate")
        assert len(events) == 1
        assert events[0].site == "gen=3|cache=compile"
        assert events[0].evidence["hit_rate"] == pytest.approx(0.05)

    def test_warmup_generations_ignored(self):
        config = HealthConfig(cache_warmup_generations=5)
        samples = [
            GenerationSample(
                generation=g,
                compile_hits=0.0,
                compile_misses=float(20 * (g + 1)),
            )
            for g in range(4)
        ]
        assert not _named(_events(samples, config), "cache.hit_rate")

    def test_compile_cache_tracked_separately(self):
        """Traces recorded with the former decode-cache counters still
        replay: the unknown keys drop and only the compile cache is
        judged."""
        config = HealthConfig(
            cache_warmup_generations=0, cache_min_lookups=10
        )
        samples = [
            GenerationSample.from_attrs(
                {
                    "generation": 0,
                    "cache_hits": 0.0,
                    "cache_misses": 60.0,
                    "compile_hits": 0.0,
                    "compile_misses": 40.0,
                }
            ),
        ]
        events = _named(_events(samples, config), "cache.hit_rate")
        assert [e.site for e in events] == ["gen=0|cache=compile"]


class TestQuarantineStorm:
    def test_warning_and_critical_fractions(self):
        samples = [
            GenerationSample(
                generation=0, population_size=20, quarantined=2.0
            ),
            GenerationSample(
                generation=1, population_size=20, quarantined=9.0
            ),
        ]
        events = _named(_events(samples), "quarantine.storm")
        assert [e.severity for e in events] == ["warning", "critical"]
        assert events[1].evidence["quarantined"] == 7.0

    def test_below_threshold_quiet(self):
        config = HealthConfig(quarantine_warning_fraction=0.25)
        samples = [
            GenerationSample(
                generation=0, population_size=100, quarantined=2.0
            ),
        ]
        assert not _named(_events(samples, config), "quarantine.storm")


class TestFallbackStorm:
    def test_total_fallback_is_critical(self):
        samples = [
            GenerationSample(generation=0, fallback_waves=3.0, waves=3),
        ]
        events = _named(_events(samples), "fallback.storm")
        assert [e.severity for e in events] == ["critical"]

    def test_partial_fallback_warns(self):
        samples = [
            GenerationSample(generation=0, fallback_waves=2.0, waves=4),
        ]
        events = _named(_events(samples), "fallback.storm")
        assert [e.severity for e in events] == ["warning"]
        assert events[0].evidence["fraction"] == pytest.approx(0.5)

    def test_lone_fallback_is_info(self):
        samples = [
            GenerationSample(generation=0, fallback_waves=1.0, waves=10),
        ]
        events = _named(_events(samples), "fallback.storm")
        assert [e.severity for e in events] == ["info"]

    def test_cumulative_counter_deltas(self):
        samples = [
            GenerationSample(generation=0, fallback_waves=2.0, waves=4),
            GenerationSample(generation=1, fallback_waves=2.0, waves=4),
        ]
        events = _named(_events(samples), "fallback.storm")
        assert [e.site for e in events] == ["gen=0"]  # no new waves fell


class TestShardInstability:
    def test_retry_burst_warns_degraded_critical(self):
        samples = [
            GenerationSample(
                generation=0, shard_retries=2.0, shard_degraded=0.0
            ),
            GenerationSample(
                generation=1, shard_retries=2.0, shard_degraded=1.0
            ),
        ]
        events = _named(_events(samples), "shard.instability")
        assert [(e.severity, e.site) for e in events] == [
            ("warning", "gen=0"),
            ("critical", "gen=1"),
        ]

    def test_single_retry_quiet(self):
        samples = [
            GenerationSample(
                generation=0, shard_retries=1.0, shard_degraded=0.0
            ),
        ]
        assert not _named(_events(samples), "shard.instability")


class TestInaxOccupancy:
    def test_fires_on_transition(self):
        values = [0.5, 0.1, 0.08, 0.5, 0.1]
        samples = [
            GenerationSample(generation=g, pack_eff=v)
            for g, v in enumerate(values)
        ]
        events = _named(_events(samples), "inax.occupancy")
        assert [e.site for e in events] == ["gen=1", "gen=4"]


class TestInaxPrefetch:
    def test_low_hiding_fraction_warns(self):
        samples = [
            GenerationSample(
                generation=0,
                prefetch_enabled=True,
                waves=4,
                setup_cycles=90.0,
                prefetch_hidden_cycles=10.0,
            ),
        ]
        events = _named(_events(samples), "inax.prefetch")
        assert [e.severity for e in events] == ["warning"]
        assert events[0].evidence["hidden_fraction"] == pytest.approx(0.1)

    def test_disabled_prefetch_quiet(self):
        samples = [
            GenerationSample(
                generation=0,
                prefetch_enabled=False,
                waves=4,
                setup_cycles=90.0,
                prefetch_hidden_cycles=0.0,
            ),
        ]
        assert not _named(_events(samples), "inax.prefetch")

    def test_single_wave_exempt(self):
        samples = [
            GenerationSample(
                generation=0,
                prefetch_enabled=True,
                waves=1,
                setup_cycles=90.0,
                prefetch_hidden_cycles=0.0,
            ),
        ]
        assert not _named(_events(samples), "inax.prefetch")


class TestSampleRoundTrip:
    def test_to_attrs_skips_none(self):
        sample = GenerationSample(generation=3, best_fitness=1.5)
        attrs = sample.to_attrs()
        assert attrs == {"generation": 3, "best_fitness": 1.5}

    def test_from_attrs_ignores_unknown(self):
        sample = GenerationSample.from_attrs(
            {"generation": 2, "pack_eff": 0.5, "bogus": 1}
        )
        assert sample.generation == 2
        assert sample.pack_eff == 0.5

    def test_round_trip_identity(self):
        sample = GenerationSample(
            generation=7,
            best_fitness=10.0,
            quarantined=3.0,
            waves=2,
            prefetch_enabled=True,
        )
        assert GenerationSample.from_attrs(sample.to_attrs()) == sample


class TestDeterminismAndReport:
    def _stream(self):
        return [
            GenerationSample(
                generation=g,
                best_fitness=100.0,
                num_species=max(1, 4 - g),
                population_size=20,
                quarantined=float(g * 3),
                pack_eff=0.5 if g < 3 else 0.1,
            )
            for g in range(6)
        ]

    def test_same_stream_same_events(self):
        first = _events(self._stream())
        second = _events(self._stream())
        assert first == second

    def test_report_json_is_canonical_and_valid(self):
        events, names, count = evaluate_samples(self._stream())
        report = HealthReport.build(
            events, count, names, HealthConfig().to_dict()
        )
        text = report.to_json()
        assert text == report.to_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert validate_health_report(payload) == []
        rebuilt = HealthReport.from_dict(payload)
        assert rebuilt.to_json() == text

    def test_verdict_thresholds(self):
        healthy = HealthReport.build([], 3, [])
        assert healthy.verdict == "healthy"
        info = HealthReport.build(
            [HealthEvent("d", "info", "gen=0", "m")], 3, []
        )
        assert info.verdict == "healthy"
        warn = HealthReport.build(
            [HealthEvent("d", "warning", "gen=0", "m")], 3, []
        )
        assert warn.verdict == "degraded"
        crit = HealthReport.build(
            [HealthEvent("d", "critical", "gen=0", "m")], 3, []
        )
        assert crit.verdict == "critical"

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            HealthEvent("d", "fatal", "gen=0", "m")

    def test_validator_flags_mismatched_counts(self):
        report = HealthReport.build(
            [HealthEvent("d", "warning", "gen=0", "m")], 1, []
        )
        payload = json.loads(report.to_json())
        payload["severities"]["warning"] = 5
        assert any(
            "disagree" in problem
            for problem in validate_health_report(payload)
        )
