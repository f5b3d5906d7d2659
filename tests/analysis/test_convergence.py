"""Unit tests for convergence analysis (the Fig 2 machinery)."""

import pytest

from repro.analysis.convergence import normalize_fitness, random_policy_baseline


class TestRandomBaseline:
    def test_deterministic(self):
        a = random_policy_baseline("cartpole", seed=1)
        b = random_policy_baseline("cartpole", seed=1)
        assert a == b

    def test_cartpole_random_is_weak(self):
        baseline = random_policy_baseline("cartpole")
        assert baseline < 100  # far from the 475 requirement

    def test_pendulum_random_is_negative(self):
        assert random_policy_baseline("pendulum") < -200


class TestNormalizeFitness:
    def test_endpoints(self):
        assert normalize_fitness(0.0, 0.0, 100.0) == 0.0
        assert normalize_fitness(100.0, 0.0, 100.0) == 1.0
        assert normalize_fitness(50.0, 0.0, 100.0) == 0.5

    def test_clipping(self):
        assert normalize_fitness(200.0, 0.0, 100.0) == 1.0
        assert normalize_fitness(-50.0, 0.0, 100.0) == 0.0

    def test_negative_scale(self):
        # pendulum-style: baseline -1200, required -200
        assert normalize_fitness(-700.0, -1200.0, -200.0) == 0.5

    def test_degenerate_scale(self):
        assert normalize_fitness(5.0, 1.0, 1.0) == 1.0
        assert normalize_fitness(0.5, 1.0, 1.0) == 0.0
