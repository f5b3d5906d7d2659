"""Activation and aggregation function registries for NEAT.

Every node gene carries an activation name and an aggregation name
(Table II: "Node gene: node bias value, node activation").  Keeping the
functions behind string-keyed registries keeps genomes serializable and
lets the INAX simulator's PE activation unit resolve exactly the same
functions the software forward pass uses, so hardware and software
results can be compared bit-for-bit.

Two representation choices exist solely to keep the interpreted
reference, the INAX PE simulator, and the vectorized batch evaluator
(:mod:`repro.neat.vectorized`) bit-identical:

* transcendental functions (``exp``/``tanh``/``sin``) go through NumPy's
  scalar ufuncs rather than :mod:`math` — NumPy's SIMD kernels produce
  slightly different last-ulp results than libm, and they are value-pure
  (the same input gives the same bits whether evaluated as a scalar or
  as an element of any array), so scalar and batched paths agree exactly;
* the ``sum`` aggregation accumulates left-to-right in ingress order —
  the same order a MAC-accumulator PE sums in hardware and the order the
  batched evaluator replays — instead of an order-insensitive
  ``math.fsum``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ActivationRegistry",
    "AggregationRegistry",
    "activations",
    "aggregations",
]

ScalarFn = Callable[[float], float]
AggregateFn = Callable[[Iterable[float]], float]


def _sigmoid(x: float) -> float:
    # NEAT's steepened sigmoid (Stanley & Miikkulainen use 4.9x); clamp the
    # argument so exp never overflows for extreme evolved weights.
    z = max(-60.0, min(60.0, 4.9 * x))
    return float(1.0 / (1.0 + np.exp(-z)))


def _tanh(x: float) -> float:
    z = max(-60.0, min(60.0, 2.5 * x))
    return float(np.tanh(z))


def _relu(x: float) -> float:
    return x if x > 0.0 else 0.0


def _leaky_relu(x: float) -> float:
    return x if x > 0.0 else 0.005 * x


def _identity(x: float) -> float:
    return x


def _mlp_tanh(x: float) -> float:
    """Plain tanh, no NEAT steepening — matches :class:`repro.rl.nn.MLP`
    so dense policies lowered via ``compile_mlp`` run bit-compatibly."""
    return float(np.tanh(x))


def _clamped(x: float) -> float:
    return max(-1.0, min(1.0, x))


def _gauss(x: float) -> float:
    z = max(-3.4, min(3.4, x))
    return float(np.exp(-5.0 * z * z))


def _sin(x: float) -> float:
    z = max(-60.0, min(60.0, 5.0 * x))
    return float(np.sin(z))


def _abs(x: float) -> float:
    return abs(x)


def _step(x: float) -> float:
    return 1.0 if x > 0.0 else 0.0


class _Registry:
    """Name -> function registry with validation."""

    def __init__(self, kind: str, initial: dict[str, Callable]):
        self._kind = kind
        self._functions: dict[str, Callable] = dict(initial)

    def get(self, name: str) -> Callable:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions))
            raise KeyError(
                f"unknown {self._kind} function {name!r}; known: {known}"
            ) from None

    def add(self, name: str, fn: Callable) -> None:
        """Register a custom function (used by tests and extensions)."""
        if not callable(fn):
            raise TypeError(f"{self._kind} function {name!r} is not callable")
        self._functions[name] = fn

    def names(self) -> list[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions


class ActivationRegistry(_Registry):
    """Registry of scalar activation functions."""


class AggregationRegistry(_Registry):
    """Registry of ingress-aggregation functions (how a node combines
    its weighted inputs before activation)."""


activations = ActivationRegistry(
    "activation",
    {
        "sigmoid": _sigmoid,
        "tanh": _tanh,
        "relu": _relu,
        "leaky_relu": _leaky_relu,
        "identity": _identity,
        "mlp_tanh": _mlp_tanh,
        "clamped": _clamped,
        "gauss": _gauss,
        "sin": _sin,
        "abs": _abs,
        "step": _step,
    },
)

def _sum(values: Sequence[float]) -> float:
    # Left-to-right accumulation, matching both a hardware MAC
    # accumulator and the batched evaluator's term-by-term replay.
    total = 0.0
    for v in values:
        total = total + v
    if total != total:
        # Python does not pin which NaN ``a + b`` returns when both are
        # NaN (CPython 3.11's generic and specialized float adds keep
        # different operands), so keep the first NaN the sum produced
        total = 0.0
        for v in values:
            total = total + v
            if total != total:
                break
    return total


aggregations = AggregationRegistry(
    "aggregation",
    {
        "sum": _sum,
        "mean": lambda values: _mean(values),
        "max": lambda values: max(values, default=0.0),
        "min": lambda values: min(values, default=0.0),
        "product": lambda values: _product(values),
    },
)


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals) if vals else 0.0


def _product(values: Iterable[float]) -> float:
    out = 1.0
    for v in values:
        out *= v
    return out
