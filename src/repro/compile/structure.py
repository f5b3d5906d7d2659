"""One topology signature, compiled once; parameters read per member.

A :class:`CompiledStructure` is everything about a decoded network that
the topology signature determines, built from one topology solve
(:func:`repro.neat.network.solve_topology`) with no weighted decode:
the *recipes* (each node's key, activation, aggregation and ingress
sources, layer by layer), the keys its :meth:`CompiledStructure.parameters`
reads, and the engine's flat per-level row templates
(:class:`~repro.neat.vectorized._ShapePlan`).  The contract is pinned by
:meth:`repro.neat.genome.Genome.shape_signature`: two genomes with
equal signatures decode to identical structure, so they may share one
compiled structure and differ only in their parameter vectors.

Its :class:`ShapeCost` is what the shape costs, whatever its weights:
the sizes a workload records, the buffer words the device gates on and
the static per-inference timing, so pricing and recording a generation
read one descriptor per shape instead of walking every genome's
configuration.  What a member adds to its shape is its
:meth:`CompiledStructure.parameters`, from which
:meth:`ShapeCost.hw_config` lowers it.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.inax.accelerator import INAXConfig
from repro.inax.compiler import ConfigWords, HWNetConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import NodeEval, solve_topology

# the engine's own row templates: one arithmetic implementation means one
# bit-identity proof obligation
from repro.neat.vectorized import _ShapePlan

__all__ = ["CompiledStructure", "ShapeCost", "hw_configs"]

_BIAS = attrgetter("bias")
_WEIGHT = attrgetter("weight")


class _RowRecipe(NamedTuple):
    """One node of a shape, whatever its weights."""

    key: int
    activation: str
    aggregation: str
    #: ingress source keys in term order (sorted; weight-independent)
    sources: tuple[int, ...]

    @property
    def fan_in(self) -> int:
        return len(self.sources)


class ShapeCost(ConfigWords):
    """What one shape costs on INAX and in a workload, whatever its weights.

    Built once per shape from its recipes, which list each node's
    fan-in in the order the HW configuration does.  It holds the sizes
    :class:`~repro.hw.workload.IndividualWork` records, under the names
    :class:`~repro.inax.compiler.HWNetConfig` gives them, and the buffer
    words the device's oversize gate reads (:class:`ConfigWords`), and
    :meth:`timing` memoizes :meth:`ConfigWords.timing`, the device's own
    static per-inference timing.
    It holds no weights and no execution plan, so a generation record
    may keep it, with its members' parameters, after the compile cache
    evicts its structure.
    """

    __slots__ = (
        "input_keys",
        "output_keys",
        "layers",
        "num_inputs",
        "num_outputs",
        "num_nodes",
        "num_connections",
        "num_layers",
        "_timed_for",
        "_timing",
    )

    def __init__(
        self,
        input_keys: tuple[int, ...],
        output_keys: tuple[int, ...],
        layers: tuple[tuple[_RowRecipe, ...], ...],
    ):
        self.input_keys = input_keys
        self.output_keys = output_keys
        self.layers = layers
        self.num_inputs = len(input_keys)
        self.num_outputs = len(output_keys)
        self.num_nodes = sum(len(layer) for layer in layers)
        self.num_connections = sum(
            recipe.fan_in for layer in layers for recipe in layer
        )
        self.num_layers = len(layers)
        self._timed_for: INAXConfig | None = None
        self._timing = (0, 0)

    def timing(self, hw: INAXConfig) -> tuple[int, int]:
        """``(cycles, PE-active cycles)`` of one inference under ``hw``.

        Memoized for the last configuration asked: a backend asks with
        its one INAX configuration for every genome of the shape.
        """
        if hw is not self._timed_for:
            self._timing = super().timing(hw)
            self._timed_for = hw
        return self._timing

    def hw_config(self, parameters: Sequence[float]) -> HWNetConfig:
        """The HW configuration of the member with these ``parameters``
        (:meth:`CompiledStructure.parameters`: biases, then weights)."""
        biases = iter(parameters)
        weights = iter(parameters[self.num_nodes :])
        layers = tuple(
            tuple(
                NodeEval(
                    key=recipe.key,
                    bias=next(biases),
                    activation=recipe.activation,
                    aggregation=recipe.aggregation,
                    ingress=tuple(
                        (src, next(weights)) for src in recipe.sources
                    ),
                )
                for recipe in layer
            )
            for layer in self.layers
        )
        return HWNetConfig(
            input_keys=self.input_keys,
            output_keys=self.output_keys,
            layers=layers,
        )


def hw_configs(
    shapes: list[ShapeCost], parameters: np.ndarray
) -> list[HWNetConfig]:
    """The HW configurations of a generation stored compactly: each
    individual's shape, and every individual's
    :meth:`CompiledStructure.parameters` back to back in one array."""
    values = parameters.tolist()
    configs = []
    start = 0
    for shape in shapes:
        end = start + shape.num_nodes + shape.num_connections
        configs.append(shape.hw_config(values[start:end]))
        start = end
    return configs


class CompiledStructure:
    """Recipes, parameter keys and engine row templates for one shape.

    ``plan`` is the shape's :class:`~repro.neat.vectorized._ShapePlan`,
    or ``None`` when the shape does not vectorize (exotic
    aggregation/activation); the recipes still work, so the HW config
    lowering stays cheap and the backend can fall back to the
    interpreted path for those genomes.  ``cost`` is the shape's
    :class:`ShapeCost`.
    """

    __slots__ = (
        "shape_key",
        "input_keys",
        "output_keys",
        "rows",
        "plan",
        "cost",
        "_bias_keys",
        "_conn_keys",
        "__weakref__",
    )

    def __init__(
        self,
        shape_key: str,
        input_keys: tuple[int, ...],
        output_keys: tuple[int, ...],
        rows: tuple[tuple[_RowRecipe, ...], ...],
    ):
        self.shape_key = shape_key
        self.input_keys = input_keys
        self.output_keys = output_keys
        self.rows = rows
        try:
            self.plan = _ShapePlan(input_keys, output_keys, rows)
        except ValueError:
            self.plan = None
        self.cost = ShapeCost(input_keys, output_keys, rows)
        # recipe keys in row order: node biases, then ingress weights
        self._bias_keys = [recipe.key for layer in rows for recipe in layer]
        self._conn_keys = [
            (src, recipe.key)
            for layer in rows
            for recipe in layer
            for src in recipe.sources
        ]

    @classmethod
    def from_genome(
        cls, genome: Genome, config: NEATConfig, shape_key: str | None = None
    ) -> "CompiledStructure":
        """Compile ``genome``'s shape from one topology solve.

        ``shape_key`` is ``genome.shape_key()``, from a caller that has
        already hashed the genome.
        """
        layers, sources = solve_topology(genome, config)
        nodes = genome.nodes
        rows = tuple(
            tuple(
                [
                    _RowRecipe(
                        key,
                        nodes[key].activation,
                        nodes[key].aggregation,
                        sources[key],
                    )
                    for key in layer
                ]
            )
            for layer in layers
        )
        if shape_key is None:
            shape_key = genome.shape_key()
        return cls(shape_key, config.input_keys, config.output_keys, rows)

    # -------------------------------------------------------- parameters
    def parameters(self, genome: Genome) -> list[float]:
        """``genome``'s biases, then its weights, in recipe order: all a
        same-shape genome adds to the shape."""
        values = list(
            map(_BIAS, map(genome.nodes.__getitem__, self._bias_keys))
        )
        values += map(
            _WEIGHT, map(genome.connections.__getitem__, self._conn_keys)
        )
        return values

    # --------------------------------------------------------- HW config
    def hw_config(self, genome: Genome) -> HWNetConfig:
        """Lower ``genome`` to its HW configuration via the recipes.

        Equal, field for field, to
        :func:`repro.inax.compiler.compile_genome` — ingress order is
        sorted by source key, which the recipes preserve — but skips
        the per-genome ``CreateNet`` decode entirely.
        """
        return self.cost.hw_config(self.parameters(genome))
