"""NEAT hyperparameter configuration.

One dataclass holds every knob the algorithm uses.  Defaults follow the
paper's evaluation setup (§VI-C): population 200, mutation and crossover
rates 0.5, networks start with no hidden nodes; the remaining defaults
follow Stanley & Miikkulainen's NEAT paper and the neat-python
implementation the authors profiled [25].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.neat.activations import activations, aggregations

__all__ = ["NEATConfig"]


@dataclass
class NEATConfig:
    """All NEAT hyperparameters, validated on construction."""

    # ----------------------------------------------------------- topology
    num_inputs: int = 4
    num_outputs: int = 2
    #: Fraction of input->output connections present in generation 0.
    #: 1.0 = fully connected start (the NEAT-paper default).
    initial_connection_fraction: float = 1.0

    # --------------------------------------------------------- population
    population_size: int = 200
    #: Individuals copied unchanged into the next generation, per species.
    elitism: int = 2
    #: Fraction of each species allowed to reproduce.
    survival_threshold: float = 0.3
    #: Generations without species improvement before it is culled.
    max_stagnation: int = 15
    #: Species protected from stagnation (the best N are always kept).
    species_elitism: int = 2

    # ------------------------------------------------------ reproduction
    #: Probability a child comes from crossover (vs. mutation-only clone).
    #: Paper §VI-C: "mutation and crossover rate=0.5".
    crossover_rate: float = 0.5
    #: Probability a crossover's second parent comes from *another*
    #: species (the classic NEAT interspecies-mating rate, 0.001).
    interspecies_crossover_rate: float = 0.001

    # --------------------------------------------------------- mutation
    #: Probability of perturbing each connection weight.
    weight_mutate_rate: float = 0.8
    #: Std-dev of the weight perturbation.
    weight_mutate_power: float = 0.5
    #: Probability a mutated weight is replaced outright instead.
    weight_replace_rate: float = 0.1
    weight_init_stdev: float = 1.0
    weight_min: float = -30.0
    weight_max: float = 30.0

    bias_mutate_rate: float = 0.7
    bias_mutate_power: float = 0.5
    bias_replace_rate: float = 0.1
    bias_init_stdev: float = 1.0
    bias_min: float = -30.0
    bias_max: float = 30.0

    #: Structural mutation probabilities (per child).
    conn_add_rate: float = 0.5
    conn_delete_rate: float = 0.2
    node_add_rate: float = 0.2
    node_delete_rate: float = 0.1
    #: Probability of re-enabling a disabled connection.
    enable_mutate_rate: float = 0.05

    # -------------------------------------------------------- speciation
    compatibility_threshold: float = 3.0
    #: c1/c2/c3 from the NEAT compatibility distance.
    excess_coefficient: float = 1.0
    disjoint_coefficient: float = 1.0
    weight_coefficient: float = 0.5

    # -------------------------------------------------------- activation
    default_activation: str = "tanh"
    #: Pool of activations "mutate activation" can pick from; a single
    #: entry disables activation mutation in practice.
    activation_options: tuple[str, ...] = ("tanh",)
    activation_mutate_rate: float = 0.0
    default_aggregation: str = "sum"
    aggregation_options: tuple[str, ...] = ("sum",)
    aggregation_mutate_rate: float = 0.0

    # ------------------------------------------------------- termination
    #: Stop when the best fitness reaches this value (None = never).
    fitness_threshold: float | None = None
    max_generations: int = 200

    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_inputs < 1:
            raise ValueError("num_inputs must be >= 1")
        if self.num_outputs < 1:
            raise ValueError("num_outputs must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= self.initial_connection_fraction <= 1.0:
            raise ValueError("initial_connection_fraction must be in [0, 1]")
        if not 0.0 < self.survival_threshold <= 1.0:
            raise ValueError("survival_threshold must be in (0, 1]")
        if self.elitism < 0:
            raise ValueError("elitism must be >= 0")
        # written so NaN fails too: mutation clamps and scales draws
        # with these (repro.neat.genes)
        if not self.weight_min < self.weight_max:
            raise ValueError("weight_min must be < weight_max")
        if not self.bias_min < self.bias_max:
            raise ValueError("bias_min must be < bias_max")
        for scale_name in (
            "weight_mutate_power",
            "weight_init_stdev",
            "bias_mutate_power",
            "bias_init_stdev",
        ):
            # -0.0 fails too: rng.normal(0.0, -0.0) raises
            scale = getattr(self, scale_name)
            if not scale >= 0.0 or math.copysign(1.0, scale) < 0:
                raise ValueError(f"{scale_name} must be >= 0, got {scale}")
        for rate_name in (
            "crossover_rate",
            "interspecies_crossover_rate",
            "weight_mutate_rate",
            "weight_replace_rate",
            "bias_mutate_rate",
            "bias_replace_rate",
            "conn_add_rate",
            "conn_delete_rate",
            "node_add_rate",
            "node_delete_rate",
            "enable_mutate_rate",
            "activation_mutate_rate",
            "aggregation_mutate_rate",
        ):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        # NaN fails too; negative coefficients would make the distance
        # negative (repro.neat.species bounds it relative to itself)
        if not self.compatibility_threshold > 0:
            raise ValueError("compatibility_threshold must be > 0")
        for coefficient_name in (
            "excess_coefficient",
            "disjoint_coefficient",
            "weight_coefficient",
        ):
            coefficient = getattr(self, coefficient_name)
            if not coefficient >= 0:
                raise ValueError(
                    f"{coefficient_name} must be >= 0, got {coefficient}"
                )
        if self.default_activation not in activations:
            raise ValueError(
                f"unknown default_activation {self.default_activation!r}"
            )
        for name in self.activation_options:
            if name not in activations:
                raise ValueError(f"unknown activation option {name!r}")
        if self.default_aggregation not in aggregations:
            raise ValueError(
                f"unknown default_aggregation {self.default_aggregation!r}"
            )
        for name in self.aggregation_options:
            if name not in aggregations:
                raise ValueError(f"unknown aggregation option {name!r}")

    # ------------------------------------------------------------ helpers
    def for_env(self, env) -> "NEATConfig":
        """Return a copy sized for an environment's I/O interface."""
        return replace(
            self,
            num_inputs=env.num_inputs,
            num_outputs=env.num_outputs,
            fitness_threshold=env.reward_threshold,
        )

    @property
    def input_keys(self) -> tuple[int, ...]:
        """Input node keys: -1, -2, ..., -num_inputs (neat-python style)."""
        return tuple(range(-1, -self.num_inputs - 1, -1))

    @property
    def output_keys(self) -> tuple[int, ...]:
        """Output node keys: 0, 1, ..., num_outputs - 1."""
        return tuple(range(self.num_outputs))
