"""The float and RNG identities the evolve phase's fast path relies on.

Gene mutation (``repro.neat.genes``) draws a normal deviate as
``0.0 + s * rng.standard_normal()`` instead of ``rng.normal(0.0, s)``
and clamps with :func:`~repro.neat.genes.clamp` instead of ``np.clip``.
Both spellings must consume the same draws and give the same bits, or
every evolved genome changes.  This module pins, bit for bit on
generated grids, that they do on this platform.  A failure here is not
a tolerance question: the rule (DESIGN.md, determinism contract) is to
go back to the NumPy spelling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.neat.config import NEATConfig
from repro.neat.genes import NodeGene, clamp, node_mutation, weight_mutation

TINY = 5e-324  # smallest subnormal

#: (lo, hi) pairs: config defaults, tight bounds, zero and infinite bounds
BOUNDS = [
    (-30.0, 30.0),
    (-1.0, 1.0),
    (0.0, 1.0),
    (-1.0, -0.0),
    (-0.0, 2.0),
    (TINY, 1.0),
    (-np.inf, np.inf),
    (-np.inf, 0.0),
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _clamp_grid(lo: float, hi: float, seed: int) -> list[float]:
    """Values around and beyond ``[lo, hi]``: the bounds themselves,
    both zeros, subnormals, infinities, NaN and seeded draws."""
    finite = [b for b in (lo, hi) if np.isfinite(b)]
    span = max([abs(b) for b in finite] + [1.0])
    special = [0.0, -0.0, TINY, -TINY, 2.2e-308, -2.2e-308, np.inf, -np.inf]
    special += [np.nan, lo, hi]
    special += [np.nextafter(b, d) for b in finite for d in (-np.inf, np.inf)]
    drawn = np.random.default_rng(seed).uniform(-2 * span, 2 * span, 20_000)
    return [float(v) for v in special] + drawn.tolist()


def _signed_zero_tie(value: float, lo: float, hi: float) -> bool:
    """``value`` is a zero and a bound the zero of the other sign."""
    return value == 0.0 and any(
        b == 0.0 and math.copysign(1.0, b) != math.copysign(1.0, value)
        for b in (lo, hi)
    )


@pytest.mark.parametrize("lo,hi", BOUNDS)
def test_clamp_is_np_clip_bit_for_bit(lo, hi):
    values = _clamp_grid(lo, hi, seed=BOUNDS.index((lo, hi)))
    values = [v for v in values if not _signed_zero_tie(v, lo, hi)]
    got = [clamp(v, lo, hi) for v in values]
    want = [float(np.clip(v, lo, hi)) for v in values]
    differ = np.flatnonzero(_bits(got) != _bits(want))
    assert differ.size == 0, [(values[i], got[i], want[i]) for i in differ[:3]]
    assert all(type(v) is float for v in got)


def test_clamp_keeps_the_value_on_a_tie():
    """On a tie with a bound, :func:`clamp` returns the value, as
    Python's ``min(max(v, lo), hi)`` does.  Only signed zeros make a tie
    visible, and there NumPy releases may differ (a clip loop built on
    C's ``a > b ? a : b`` returns the bound), so the grid test above
    leaves those ties to this one.  Gene mutation can reach such a tie
    only through a ``-0.0`` bound in the config: a value it clamps is a
    sum with a ``0.0 + ...`` term, never ``-0.0``.
    """
    for value, lo, hi in [(-0.0, 0.0, 1.0), (0.0, -0.0, 2.0), (0.0, -1.0, -0.0)]:
        assert clamp(value, lo, hi).hex() == value.hex()
        assert min(max(value, lo), hi).hex() == value.hex()


def _scales(seed: int) -> list[float]:
    drawn = np.random.default_rng(seed).uniform(0.0, 3.0, 4).tolist()
    return [0.0, TINY, 0.5, 1.0, 30.0, 1e300] + drawn


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2021, 99_991])
def test_scaled_standard_normal_is_normal(seed):
    """``0.0 + s * standard_normal()`` is ``normal(0.0, s)``: same bits,
    same generator state after every draw."""
    g = np.random.default_rng(seed)
    h = np.random.default_rng(seed)
    for s in _scales(seed):
        for _ in range(500):
            got = 0.0 + s * g.standard_normal()
            want = float(h.normal(0.0, s))
            assert type(got) is float
            assert got.hex() == want.hex(), (seed, s)
            assert g.bit_generator.state == h.bit_generator.state


def _numpy_rule(value, rate, replace_rate, init_stdev, power, lo, hi, rng):
    """The float mutation rule in its NumPy spelling."""
    if rng.random() < rate:
        if rng.random() < replace_rate:
            value = float(rng.normal(0.0, init_stdev))
        else:
            value += float(rng.normal(0.0, power))
        value = float(np.clip(value, lo, hi))
    return value


RULE_CONFIGS = [
    {},
    dict(weight_min=-1.0, weight_max=1.0, weight_mutate_power=2.0),
    dict(weight_min=0.0, weight_max=0.5, weight_replace_rate=0.5),
    dict(weight_mutate_rate=1.0, weight_replace_rate=0.0, weight_mutate_power=0.0),
    dict(weight_min=-3, weight_max=3, weight_init_stdev=4),
]


@pytest.mark.parametrize("index", range(len(RULE_CONFIGS)))
def test_weight_rule_matches_numpy_spelling(index):
    config = NEATConfig(**RULE_CONFIGS[index])
    g = np.random.default_rng(index)
    h = np.random.default_rng(index)
    mutate = weight_mutation(config, g)
    values = [0.0, -0.0, float(config.weight_min), float(config.weight_max)]
    values += np.random.default_rng(100 + index).normal(0.0, 5.0, 3000).tolist()
    for value in values + [TINY]:
        got = mutate(value)
        want = _numpy_rule(
            value,
            config.weight_mutate_rate,
            config.weight_replace_rate,
            config.weight_init_stdev,
            config.weight_mutate_power,
            config.weight_min,
            config.weight_max,
            h,
        )
        assert type(got) is float
        assert got.hex() == want.hex(), value
        assert g.bit_generator.state == h.bit_generator.state


def test_node_rule_matches_numpy_spelling():
    config = NEATConfig(
        bias_min=-1.0,
        bias_max=1.0,
        activation_options=("tanh", "relu", "sigmoid"),
        activation_mutate_rate=0.3,
        aggregation_options=("sum", "max"),
        aggregation_mutate_rate=0.3,
    )
    g = np.random.default_rng(5)
    h = np.random.default_rng(5)
    mutate = node_mutation(config, g)
    for bias in np.random.default_rng(6).normal(0.0, 2.0, 2000).tolist():
        node = NodeGene(0, bias, "tanh", "sum")
        mutate(node)
        want = _numpy_rule(
            bias,
            config.bias_mutate_rate,
            config.bias_replace_rate,
            config.bias_init_stdev,
            config.bias_mutate_power,
            config.bias_min,
            config.bias_max,
            h,
        )
        activation = aggregation = None
        if h.random() < config.activation_mutate_rate:
            activation = str(h.choice(config.activation_options))
        if h.random() < config.aggregation_mutate_rate:
            aggregation = str(h.choice(config.aggregation_options))
        assert node.bias.hex() == want.hex()
        assert node.activation == (activation or "tanh")
        assert node.aggregation == (aggregation or "sum")
        assert g.bit_generator.state == h.bit_generator.state
