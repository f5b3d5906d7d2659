"""Unit tests for timing profiles."""

import pytest

from repro.analysis.timing_profile import (
    neat_profile,
    normalized_platform_breakdown,
    rl_profile,
)
from repro.hw.cpu_model import PhaseTimes
from repro.rl.base import TimeBreakdown


class TestProfiles:
    def test_neat_profile_groups_env_into_evaluate(self):
        times = PhaseTimes(evaluate=8.0, env=2.0, createnet=0.5, evolve=0.5)
        profile = neat_profile(times)
        assert profile["evaluate"] == pytest.approx(10.0 / 11.0)
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_rl_profile(self):
        times = TimeBreakdown(forward=3.0, env=1.0, training=6.0)
        profile = rl_profile(times)
        assert profile["training"] == pytest.approx(0.6)
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_normalized_breakdown_baseline_sums_to_one(self):
        platforms = {
            "cpu": PhaseTimes(evaluate=9.0, env=0.5, createnet=0.25, evolve=0.25),
            "inax": PhaseTimes(evaluate=0.1, env=0.5, createnet=0.25, evolve=0.25),
        }
        norm = normalized_platform_breakdown(platforms, baseline="cpu")
        assert sum(norm["cpu"].values()) == pytest.approx(1.0)
        # the accelerated platform's bars sum to 1/speedup
        speedup = 10.0 / 1.1
        assert sum(norm["inax"].values()) == pytest.approx(1 / speedup)

    def test_unknown_baseline(self):
        with pytest.raises(KeyError):
            normalized_platform_breakdown({"cpu": PhaseTimes()}, baseline="gpu")

    def test_zero_time_profiles(self):
        assert sum(neat_profile(PhaseTimes()).values()) == 0.0
        assert sum(rl_profile(TimeBreakdown()).values()) == 0.0
