"""Unit tests for the activation/aggregation registries."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.neat.activations import activations, aggregations

FINITE = st.floats(
    min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
)


class TestActivations:
    def test_known_names(self):
        for name in ("sigmoid", "tanh", "relu", "identity", "clamped"):
            assert name in activations

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown activation"):
            activations.get("swishish")

    def test_sigmoid_range_and_midpoint(self):
        f = activations.get("sigmoid")
        assert f(0.0) == pytest.approx(0.5)
        assert 0.0 < f(-100.0) < f(100.0) <= 1.0

    def test_relu(self):
        f = activations.get("relu")
        assert f(-3.0) == 0.0
        assert f(3.0) == 3.0

    def test_clamped(self):
        f = activations.get("clamped")
        assert f(5.0) == 1.0 and f(-5.0) == -1.0 and f(0.25) == 0.25

    def test_step(self):
        f = activations.get("step")
        assert f(0.1) == 1.0 and f(-0.1) == 0.0 and f(0.0) == 0.0

    def test_register_custom(self):
        activations.add("double", lambda x: 2 * x)
        assert activations.get("double")(3.0) == 6.0

    def test_register_non_callable(self):
        with pytest.raises(TypeError):
            activations.add("bad", 42)

    @given(FINITE)
    def test_all_activations_finite_everywhere(self, x):
        for name in activations.names():
            y = activations.get(name)(x)
            assert math.isfinite(y), f"{name}({x}) = {y}"

    @given(FINITE)
    def test_monotone_activations(self, x):
        for name in ("sigmoid", "tanh", "relu", "identity"):
            f = activations.get(name)
            assert f(x) <= f(x + 1.0) + 1e-12


class TestAggregations:
    def test_sum(self):
        assert aggregations.get("sum")([1.0, 2.0, 3.0]) == 6.0
        assert aggregations.get("sum")([]) == 0.0

    def test_sum_keeps_the_first_nan(self):
        # inf - inf makes the platform's default NaN, which may differ
        # from a sensor's nan in sign; the sum must keep the first one
        # every time, before and after the interpreter specializes the
        # add inside it
        first = float("inf") + float("-inf")
        total = aggregations.get("sum")
        for _ in range(20):
            out = total([float("inf"), float("-inf"), float("nan")])
            assert struct.pack("<d", out) == struct.pack("<d", first)
            out = total([first, float("nan"), 1.0])
            assert struct.pack("<d", out) == struct.pack("<d", first)

    def test_mean(self):
        assert aggregations.get("mean")([2.0, 4.0]) == 3.0
        assert aggregations.get("mean")([]) == 0.0

    def test_max_min_defaults(self):
        assert aggregations.get("max")([]) == 0.0
        assert aggregations.get("min")([]) == 0.0
        assert aggregations.get("max")([-1.0, 2.0]) == 2.0

    def test_product(self):
        assert aggregations.get("product")([2.0, 3.0, 0.5]) == 3.0
        assert aggregations.get("product")([]) == 1.0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown aggregation"):
            aggregations.get("median")
