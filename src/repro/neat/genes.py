"""Node and connection genes (paper Table II).

A *node gene* carries a bias, an activation name, and an aggregation
name.  A *connection gene* carries the linkage (input key, output key),
a weight, an enabled flag, and the historical innovation number NEAT
uses to align genes during crossover and distance computation.

Mutation runs once per gene per child, so each rule lives here once as
a closure over its config values and the population's draws
(:func:`weight_mutation`, :func:`node_mutation`).
:class:`~repro.neat.reproduction.Reproduction` builds both once per
draw stream (:func:`mutation_rules`), and the per-gene ``mutate``
methods build one per call.  They consume the same draws and give the
same bits as the NumPy spelling, ``rng.normal`` and ``np.clip``
(DESIGN.md, determinism contract):

* ``0.0 + s * rng.standard_normal()`` is ``rng.normal(0.0, s)``: one
  ziggurat draw, and NumPy computes ``loc + scale * draw`` in C;
* :func:`clamp` is ``np.clip`` for bounds ``lo < hi``, NaN included;
  on a tie between zeros of opposite sign it keeps the value, where
  NumPy releases may differ, and which a clamped value (a sum with a
  ``0.0 + ...`` term, never ``-0.0``) reaches only at a ``-0.0`` bound.

``tests/neat/test_rng_contract.py`` pins both on generated grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.neat.config import NEATConfig
from repro.neat.draws import Draws

__all__ = ["NodeGene", "ConnectionGene"]

#: a genome's per-gene mutation rules: ``(node rule, weight rule)``
MutationRules = tuple[Callable[["NodeGene"], None], Callable[[float], float]]


def clamp(value: float, lo: float, hi: float) -> float:
    """``float(np.clip(value, lo, hi))`` without the NumPy round trip.

    It passes a NaN ``value`` through and keeps ``value`` when it equals
    a bound, as ``min(max(value, lo), hi)`` does, so a signed zero keeps
    its sign; ``lo < hi`` is a :class:`NEATConfig` invariant.
    """
    return lo if value < lo else hi if value > hi else value


def _float_mutation(
    rate: float,
    replace_rate: float,
    init_stdev: float,
    power: float,
    lo: float,
    hi: float,
    rng: Draws,
) -> Callable[[float], float]:
    """The perturb-or-replace rule of a bounded float gene attribute.

    ``lo`` and ``hi`` must be floats, so that a clamped gene holds a
    float as it would after ``float(np.clip(...))``.
    """
    random = rng.random
    standard_normal = rng.standard_normal

    def mutate(value: float) -> float:
        if random() < rate:
            if random() < replace_rate:
                value = 0.0 + init_stdev * standard_normal()
            else:
                value += 0.0 + power * standard_normal()
            value = clamp(value, lo, hi)
        return value

    return mutate


def weight_mutation(
    config: NEATConfig, rng: Draws
) -> Callable[[float], float]:
    """A connection weight's mutation: perturb or replace, then clamp."""
    return _float_mutation(
        config.weight_mutate_rate,
        config.weight_replace_rate,
        config.weight_init_stdev,
        config.weight_mutate_power,
        float(config.weight_min),
        float(config.weight_max),
        rng,
    )


def node_mutation(
    config: NEATConfig, rng: Draws
) -> Callable[["NodeGene"], None]:
    """A node's mutation: the bias rule, then optionally a new
    activation and aggregation drawn from the configured options."""
    mutate_bias = _float_mutation(
        config.bias_mutate_rate,
        config.bias_replace_rate,
        config.bias_init_stdev,
        config.bias_mutate_power,
        float(config.bias_min),
        float(config.bias_max),
        rng,
    )
    random = rng.random
    activations = config.activation_options
    activation_rate = config.activation_mutate_rate
    swap_activation = activation_rate > 0 and len(activations) > 1
    aggregations = config.aggregation_options
    aggregation_rate = config.aggregation_mutate_rate
    swap_aggregation = aggregation_rate > 0 and len(aggregations) > 1

    def mutate(node: NodeGene) -> None:
        node.bias = mutate_bias(node.bias)
        if swap_activation and random() < activation_rate:
            node.activation = str(rng.choice(activations))
        if swap_aggregation and random() < aggregation_rate:
            node.aggregation = str(rng.choice(aggregations))

    return mutate


def mutation_rules(config: NEATConfig, rng: Draws) -> MutationRules:
    """The node and weight rules :meth:`Genome.mutate
    <repro.neat.genome.Genome.mutate>` applies to every gene."""
    return node_mutation(config, rng), weight_mutation(config, rng)


@dataclass(slots=True)
class NodeGene:
    """One neuron: bias + activation + aggregation."""

    key: int
    bias: float
    activation: str
    aggregation: str

    def copy(self) -> "NodeGene":
        return NodeGene(self.key, self.bias, self.activation, self.aggregation)

    def distance(self, other: "NodeGene") -> float:
        """Attribute distance used in genome compatibility (c3 term)."""
        d = abs(self.bias - other.bias)
        if self.activation != other.activation:
            d += 1.0
        if self.aggregation != other.aggregation:
            d += 1.0
        return d

    def mutate(self, config: NEATConfig, rng: Draws) -> None:
        """Perturb or replace the bias; optionally swap activation."""
        node_mutation(config, rng)(self)

    @classmethod
    def random(
        cls, key: int, config: NEATConfig, rng: Draws
    ) -> "NodeGene":
        return cls(
            key=key,
            bias=float(rng.normal(0.0, config.bias_init_stdev)),
            activation=config.default_activation,
            aggregation=config.default_aggregation,
        )


@dataclass(slots=True)
class ConnectionGene:
    """One weighted link between two nodes.

    ``key`` is the ``(in_node, out_node)`` pair; ``innovation`` is the
    global historical marking assigned when this structural gene first
    appeared anywhere in the population.
    """

    key: tuple[int, int]
    weight: float
    enabled: bool
    innovation: int

    @property
    def in_node(self) -> int:
        return self.key[0]

    @property
    def out_node(self) -> int:
        return self.key[1]

    def copy(self) -> "ConnectionGene":
        return ConnectionGene(self.key, self.weight, self.enabled, self.innovation)

    def distance(self, other: "ConnectionGene") -> float:
        """Attribute distance used in genome compatibility (c3 term)."""
        d = abs(self.weight - other.weight)
        if self.enabled != other.enabled:
            d += 1.0
        return d

    def mutate(self, config: NEATConfig, rng: Draws) -> None:
        """Perturb or replace the weight."""
        self.weight = weight_mutation(config, rng)(self.weight)

    @classmethod
    def random(
        cls,
        key: tuple[int, int],
        innovation: int,
        config: NEATConfig,
        rng: Draws,
    ) -> "ConnectionGene":
        return cls(
            key=key,
            weight=float(rng.normal(0.0, config.weight_init_stdev)),
            enabled=True,
            innovation=innovation,
        )
