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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inax.compiler import HWNetConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork, NodeEval

# the compiled plan reuses the vectorized engine's private lowering: one
# arithmetic implementation means one bit-identity proof obligation
from repro.neat.vectorized import _NetPlan

__all__ = ["CompiledStructure"]


@dataclass(frozen=True)
class _RowRecipe:
    """How to fill one plan row from any same-shape genome."""

    key: int
    activation: str
    aggregation: str
    #: ingress source keys in plan term order (sorted; weight-independent)
    sources: tuple[int, ...]


class CompiledStructure:
    """Shared execution plan + parameter fill recipes for one shape.

    ``plan`` is ``None`` when the shape does not vectorize (exotic
    aggregation/activation); the recipes still work, so the HW config
    lowering stays cheap and the backend can fall back to the
    interpreted path for those genomes.
    """

    __slots__ = (
        "shape_key",
        "input_keys",
        "output_keys",
        "rows",
        "plan",
        "_fill_plan",
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
        self._fill_plan = None

    @classmethod
    def from_genome(
        cls, genome: Genome, config: NEATConfig
    ) -> "CompiledStructure":
        """Decode once (CreateNet + plan lowering) for this shape."""
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
        return cls(
            shape_key=genome.shape_key(),
            input_keys=tuple(net.input_keys),
            output_keys=tuple(net.output_keys),
            rows=rows,
            plan=plan,
        )

    # -------------------------------------------------------- parameters
    def parameter_blocks(
        self, genomes: list[Genome]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Same-shape ``genomes``' parameters, stacked in plan layout.

        Returns one ``(B, rows, terms)`` weight block and one
        ``(B, rows)`` bias block per plan layer, row ``b`` holding
        ``genomes[b]``.  Padded terms stay weight ``0.0``, just like
        ``_NetPlan`` builds them, so evaluating a row is bit-identical
        to decoding its genome.  The recipes are walked once per
        distinct genome; a genome listed several times (one per episode
        slot) has its rows copied.
        """
        plan = self.plan
        if plan is None:
            raise ValueError(
                f"shape {self.shape_key[:12]} is not vectorizable"
            )
        if self._fill_plan is None:
            self._fill_plan = self._make_fill_plan()
        bias_keys, conn_keys, layers = self._fill_plan
        distinct: dict[int, int] = {}
        bias_rows: list[list[float]] = []
        weight_rows: list[list[float]] = []
        member_rows: list[int] = []
        for genome in genomes:
            row = distinct.get(id(genome))
            if row is None:
                row = distinct[id(genome)] = len(bias_rows)
                nodes = genome.nodes
                connections = genome.connections
                bias_rows.append([nodes[key].bias for key in bias_keys])
                weight_rows.append(
                    [connections[key].weight for key in conn_keys]
                )
            member_rows.append(row)
        bias_values = np.array(bias_rows, dtype=np.float64)
        weight_values = np.array(weight_rows, dtype=np.float64)
        if len(bias_rows) < len(genomes):
            bias_values = bias_values[member_rows]
            weight_values = weight_values[member_rows]
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        for base, (bias_span, conn_span, row_index, term_index) in zip(
            plan.layers, layers
        ):
            block = np.zeros((len(genomes),) + base.weights.shape)
            block[:, row_index, term_index] = weight_values[:, conn_span]
            weights.append(block)
            biases.append(bias_values[:, bias_span])
        return weights, biases

    def _make_fill_plan(self):
        """Recipe keys in plan order, with each layer's index plan.

        Bias and connection keys run over every layer in one list each,
        so a genome's parameters read out in two comprehensions; per
        layer, the spans into those lists and the ``(row, term)`` plan
        position of each connection.
        """
        bias_keys: list[int] = []
        conn_keys: list[tuple[int, int]] = []
        layers = []
        for layer_rows in self.rows:
            bias_start, conn_start = len(bias_keys), len(conn_keys)
            rows, terms = [], []
            for row, recipe in enumerate(layer_rows):
                bias_keys.append(recipe.key)
                for term, src in enumerate(recipe.sources):
                    conn_keys.append((src, recipe.key))
                    rows.append(row)
                    terms.append(term)
            layers.append(
                (
                    slice(bias_start, len(bias_keys)),
                    slice(conn_start, len(conn_keys)),
                    np.array(rows, dtype=np.intp),
                    np.array(terms, dtype=np.intp),
                )
            )
        return tuple(bias_keys), tuple(conn_keys), layers

    # --------------------------------------------------------- HW config
    def hw_config(self, genome: Genome) -> HWNetConfig:
        """Lower ``genome`` to its HW configuration via the recipes.

        Equal, field for field, to
        :func:`repro.inax.compiler.compile_genome` — ingress order is
        sorted by source key, which the recipes preserve — but skips
        the per-genome ``CreateNet`` decode entirely.
        """
        nodes = genome.nodes
        connections = genome.connections
        layers = tuple(
            tuple(
                NodeEval(
                    key=recipe.key,
                    bias=nodes[recipe.key].bias,
                    activation=recipe.activation,
                    aggregation=recipe.aggregation,
                    ingress=tuple(
                        (src, connections[(src, recipe.key)].weight)
                        for src in recipe.sources
                    ),
                )
                for recipe in layer_rows
            )
            for layer_rows in self.rows
        )
        return HWNetConfig(
            input_keys=self.input_keys,
            output_keys=self.output_keys,
            layers=layers,
        )
