"""The float contract of the structure-of-arrays env kernels.

A kernel row must carry the same bits as the scalar ``_step`` it
repeats.  Elementwise ``+ - * /`` and comparisons are IEEE-exact in
both, so the only places the two can part are the transcendental and
library calls.  The kernels use the NumPy functions below in place of
the scalar path's ``math`` calls and Python operators, and this module
pins, bit for bit on a generated grid over each kernel's input range,
that they agree on this platform.  A failure here is not a tolerance
question: the rule (DESIGN.md, determinism contract) is to compute that
term with ``math`` per row in the kernel instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest


def _grid(lo: float, hi: float, seed: int) -> np.ndarray:
    """An even grid plus seeded uniform draws over ``[lo, hi]``."""
    even = np.linspace(lo, hi, 100_001)
    drawn = np.random.default_rng(seed).uniform(lo, hi, 100_000)
    return np.concatenate([even, drawn, [lo, hi, 0.0, -0.0]])


TWO_PI = 2 * math.pi

#: name -> (kernel term, scalar term, input range)
CONTRACT = {
    # LunarLander angles before and after wrapping; CartPole theta
    "sin": (np.sin, math.sin, (-4.0, 4.0)),
    "cos": (np.cos, math.cos, (-4.0, 4.0)),
    "sin_small": (np.sin, math.sin, (-0.3, 0.3)),
    "cos_small": (np.cos, math.cos, (-0.3, 0.3)),
    # LunarLander distance and speed, squared
    "sqrt": (np.sqrt, math.sqrt, (0.0, 100.0)),
    # LunarLander angle wrap: (angle + pi) % (2 pi), Python float and
    # np.float64 operands (the scalar path's angle is a NumPy scalar)
    "remainder": (
        lambda a: np.remainder(a, TWO_PI),
        lambda a: a % TWO_PI,
        (-1.0, 8.0),
    ),
    "remainder_np_scalar": (
        lambda a: np.remainder(a, TWO_PI),
        lambda a: np.float64(a) % TWO_PI,
        (-1.0, 8.0),
    ),
    # CartPole theta_dot**2 and cos_theta**2: libm pow, which is *not*
    # always v * v, so the kernel must not square by multiplying
    "pow2": (lambda a: np.float_power(a, 2), lambda a: a**2, (-20.0, 20.0)),
    "pow2_unit": (lambda a: np.float_power(a, 2), lambda a: a**2, (-1.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_kernel_term_matches_scalar_term_bit_for_bit(name):
    kernel, scalar, (lo, hi) = CONTRACT[name]
    values = _grid(lo, hi, seed=sorted(CONTRACT).index(name))
    got = np.asarray(kernel(values), dtype=np.float64)
    want = np.array([scalar(v) for v in values.tolist()], dtype=np.float64)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (
        f"{differ.size} of {values.size} differ, first at "
        f"{[(values[i], got[i].hex(), want[i].hex()) for i in differ[:3]]}"
    )


def test_squaring_by_multiplying_would_break_the_contract():
    """Why ``pow2`` above matters: ``v * v`` and ``v**2`` differ."""
    values = _grid(-20.0, 20.0, seed=99)
    squared = values * values
    powered = np.array([v**2 for v in values.tolist()])
    if np.array_equal(squared, powered):
        pytest.skip("this libm pow squares exactly; nothing to show")
    assert not np.array_equal(np.float_power(values, 2), squared)
