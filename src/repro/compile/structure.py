"""One topology signature, compiled once; parameters filled per shape.

A :class:`CompiledStructure` is everything about a decoded network that
the shape key determines: the pruned/layered topology, the padded
``_NetPlan`` index matrices, activation grouping, and the *recipes*
(node keys and ingress connection keys in plan order) needed to fill
same-shape genomes' weights and biases into that layout, stacked one
block per plan layer, without re-running ``CreateNet``.  The contract
is pinned by :meth:`repro.neat.genome.Genome.shape_key`: two genomes
with equal shape keys decode to identical structure, so they may share
one compiled plan and differ only in the parameter tensors.

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
from dataclasses import dataclass

import numpy as np

from repro.inax.accelerator import INAXConfig
from repro.inax.compiler import ConfigWords, HWNetConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork, NodeEval

# the compiled plan reuses the vectorized engine's private lowering: one
# arithmetic implementation means one bit-identity proof obligation
from repro.neat.vectorized import _NetPlan

__all__ = ["CompiledStructure", "ShapeCost", "hw_configs"]


@dataclass(frozen=True)
class _RowRecipe:
    """How to fill one plan row from any same-shape genome."""

    key: int
    activation: str
    aggregation: str
    #: ingress source keys in plan term order (sorted; weight-independent)
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
    """Shared execution plan + parameter fill recipes for one shape.

    ``plan`` is ``None`` when the shape does not vectorize (exotic
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
        "_fill_plan",
        "__weakref__",
    )

    def __init__(
        self,
        shape_key: str,
        input_keys: tuple[int, ...],
        output_keys: tuple[int, ...],
        rows: tuple[tuple[_RowRecipe, ...], ...],
        plan: _NetPlan | None,
    ):
        self.shape_key = shape_key
        self.input_keys = input_keys
        self.output_keys = output_keys
        self.rows = rows
        self.plan = plan
        self.cost = ShapeCost(input_keys, output_keys, rows)
        # recipe keys in plan order: node biases, then ingress weights
        self._bias_keys = tuple(
            recipe.key for layer in rows for recipe in layer
        )
        self._conn_keys = tuple(
            (src, recipe.key)
            for layer in rows
            for recipe in layer
            for src in recipe.sources
        )
        self._fill_plan = None

    @classmethod
    def from_genome(
        cls, genome: Genome, config: NEATConfig, shape_key: str | None = None
    ) -> "CompiledStructure":
        """Decode once (CreateNet + plan lowering) for this shape.

        ``shape_key`` is ``genome.shape_key()``, from a caller that has
        already hashed the genome.
        """
        net = FeedForwardNetwork.create(genome, config)
        rows = tuple(
            tuple(
                _RowRecipe(
                    key=key,
                    activation=net.node_evals[key].activation,
                    aggregation=net.node_evals[key].aggregation,
                    sources=tuple(
                        src for src, _ in net.node_evals[key].ingress
                    ),
                )
                for key in layer
            )
            for layer in net.layers
        )
        try:
            plan = _NetPlan(net)
        except ValueError:
            plan = None
        if shape_key is None:
            shape_key = genome.shape_key()
        return cls(
            shape_key=shape_key,
            input_keys=tuple(net.input_keys),
            output_keys=tuple(net.output_keys),
            rows=rows,
            plan=plan,
        )

    # -------------------------------------------------------- parameters
    def parameters(self, genome: Genome) -> list[float]:
        """``genome``'s biases, then its weights, in recipe order: all a
        same-shape genome adds to the shape."""
        nodes = genome.nodes
        connections = genome.connections
        values = [nodes[key].bias for key in self._bias_keys]
        values += [connections[key].weight for key in self._conn_keys]
        return values

    def parameter_blocks(
        self, genomes: list[Genome]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Same-shape ``genomes``' parameters, stacked in plan layout.

        Returns one ``(B, rows, terms)`` weight block and one
        ``(B, rows)`` bias block per plan layer, row ``b`` holding
        ``genomes[b]``.  Padded terms stay weight ``0.0``, just like
        ``_NetPlan`` builds them, so evaluating a row is bit-identical
        to decoding its genome.  :meth:`parameters` reads each distinct
        genome once; a genome listed several times (one per episode
        slot) has its rows copied.
        """
        plan = self.plan
        if plan is None:
            raise ValueError(
                f"shape {self.shape_key[:12]} is not vectorizable"
            )
        if self._fill_plan is None:
            self._fill_plan = self._make_fill_plan()
        distinct: dict[int, int] = {}
        rows: list[list[float]] = []
        member_rows: list[int] = []
        for genome in genomes:
            row = distinct.get(id(genome))
            if row is None:
                row = distinct[id(genome)] = len(rows)
                rows.append(self.parameters(genome))
            member_rows.append(row)
        values = np.array(rows, dtype=np.float64)
        if len(rows) < len(genomes):
            values = values[member_rows]
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        for base, (bias_span, conn_span, row_index, term_index) in zip(
            plan.layers, self._fill_plan
        ):
            block = np.zeros((len(genomes),) + base.weights.shape)
            block[:, row_index, term_index] = values[:, conn_span]
            weights.append(block)
            biases.append(values[:, bias_span])
        return weights, biases

    def _make_fill_plan(self):
        """Each layer's spans into :meth:`parameters` and the
        ``(row, term)`` plan position of each of its connections."""
        layers = []
        bias_start, conn_start = 0, len(self._bias_keys)
        for layer_rows in self.rows:
            rows, terms = [], []
            for row, recipe in enumerate(layer_rows):
                for term in range(recipe.fan_in):
                    rows.append(row)
                    terms.append(term)
            bias_end = bias_start + len(layer_rows)
            conn_end = conn_start + len(rows)
            layers.append(
                (
                    slice(bias_start, bias_end),
                    slice(conn_start, conn_end),
                    np.array(rows, dtype=np.intp),
                    np.array(terms, dtype=np.intp),
                )
            )
            bias_start, conn_start = bias_end, conn_end
        return layers

    # --------------------------------------------------------- HW config
    def hw_config(self, genome: Genome) -> HWNetConfig:
        """Lower ``genome`` to its HW configuration via the recipes.

        Equal, field for field, to
        :func:`repro.inax.compiler.compile_genome` — ingress order is
        sorted by source key, which the recipes preserve — but skips
        the per-genome ``CreateNet`` decode entirely.
        """
        return self.cost.hw_config(self.parameters(genome))
