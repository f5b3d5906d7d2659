"""CreateNet: decode a genome into an executable feed-forward network.

Table III: "Decode the genes to nodes and connections, solve the
dependency among nodes, and formulate them into NN topology."

The decoder

1. prunes genes that cannot influence any output (dead branches evolve
   constantly and evaluating them would waste both CPU and PE cycles);
2. solves dependencies by assigning every node its ASAP *layer* — inputs
   at layer 0, every other node one past its deepest ingress source;
3. produces per-node evaluation plans (bias, activation, aggregation,
   weighted ingress list).

Steps 1 and 2 read no weight or bias: they are one topology solve,
:func:`solve_topology`, which the oracle's :meth:`FeedForwardNetwork.create`
and the structural-batching compiler
(:meth:`repro.compile.CompiledStructure.from_genome`) share.  The same
layering drives the software forward pass
(:meth:`FeedForwardNetwork.activate`), the INAX compiler
(:mod:`repro.inax.compiler`) and the compiled engine, which is what lets
the tests require them to agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.neat.activations import activations, aggregations
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome

__all__ = [
    "FeedForwardNetwork",
    "NodeEval",
    "required_nodes",
    "solve_topology",
]


def required_nodes(genome: Genome, config: NEATConfig) -> set[int]:
    """Nodes that can influence an output (outputs always included).

    Computed as backward reachability from the output set over enabled
    connections.  Input keys are never included (they carry no genes).
    """
    return _required(_enabled_ingress(genome), config.output_keys)


def _enabled_ingress(genome: Genome) -> dict[int, list[int]]:
    """Each destination's enabled ingress source keys."""
    ingress: dict[int, list[int]] = {}
    for conn in genome.connections.values():
        if conn.enabled:
            src, dst = conn.key
            sources = ingress.get(dst)
            if sources is None:
                ingress[dst] = [src]
            else:
                sources.append(src)
    return ingress


def _required(
    ingress: dict[int, list[int]], output_keys: tuple[int, ...]
) -> set[int]:
    required = set(output_keys)
    frontier = list(output_keys)
    while frontier:
        node = frontier.pop()
        for src in ingress.get(node, ()):
            if src >= 0 and src not in required:
                required.add(src)
                frontier.append(src)
    return required


def solve_topology(
    genome: Genome, config: NEATConfig
) -> tuple[list[list[int]], dict[int, tuple[int, ...]]]:
    """CreateNet's dependency solve: everything no weight or bias moves.

    Returns ``(layers, sources)``: the nodes that can influence an
    output (:func:`required_nodes`) grouped by ASAP depth, sorted by key
    within a depth, and each such node's ingress source keys, sorted —
    the inputs and required nodes among its enabled connections'
    sources.  :meth:`FeedForwardNetwork.create` and the compiler
    (:meth:`repro.compile.CompiledStructure.from_genome`) both decode
    from it.  Raises ``ValueError`` when the required nodes hold a
    cycle.
    """
    input_keys = config.input_keys
    ingress = _enabled_ingress(genome)
    required = _required(ingress, config.output_keys)
    order = sorted(required)
    # a required node's sources at or above 0 are required themselves,
    # so the filter only drops sources below 0 that are not inputs
    inputs = set(input_keys)
    sources: dict[int, tuple[int, ...]] = {}
    for node in order:
        node_sources = ingress.get(node)
        if node_sources is None:
            sources[node] = ()
            continue
        node_sources.sort()
        sources[node] = tuple(
            [src for src in node_sources if src >= 0 or src in inputs]
        )

    # --- ASAP layering: passes in key order until every node is placed ---
    depth: dict[int, int] = dict.fromkeys(input_keys, 0)
    depth_of = depth.get
    pending = order
    while pending:
        waiting = []
        for node in pending:
            deepest = 0
            for src in sources[node]:
                src_depth = depth_of(src)
                if src_depth is None:
                    waiting.append(node)
                    break
                if src_depth > deepest:
                    deepest = src_depth
            else:
                depth[node] = deepest + 1
        if len(waiting) == len(pending):
            raise ValueError(
                f"genome {genome.key} is not feed-forward: cycle among "
                f"nodes {waiting}"
            )
        pending = waiting

    layers: list[list[int]] = [
        [] for _ in range(max(depth.values(), default=0))
    ]
    for node in order:
        layers[depth[node] - 1].append(node)
    return layers, sources


@dataclass(frozen=True)
class NodeEval:
    """Evaluation plan for one node."""

    key: int
    bias: float
    activation: str
    aggregation: str
    #: (source key, weight) pairs; sources may be inputs or earlier nodes.
    ingress: tuple[tuple[int, float], ...]

    @property
    def fan_in(self) -> int:
        return len(self.ingress)


class FeedForwardNetwork:
    """A decoded irregular feed-forward network.

    Attributes
    ----------
    layers:
        Hidden/output node keys grouped by ASAP depth, in evaluation
        order.  ``layers[0]`` are the nodes depending only on inputs.
    node_evals:
        ``key -> NodeEval`` for every evaluated node.
    """

    def __init__(
        self,
        input_keys: tuple[int, ...],
        output_keys: tuple[int, ...],
        layers: list[list[int]],
        node_evals: dict[int, NodeEval],
    ):
        self.input_keys = input_keys
        self.output_keys = output_keys
        self.layers = layers
        self.node_evals = node_evals
        self._values: dict[int, float] = {}

    # ------------------------------------------------------------ create
    @classmethod
    def create(cls, genome: Genome, config: NEATConfig) -> "FeedForwardNetwork":
        """Decode ``genome`` (the paper's CreateNet)."""
        layers, sources = solve_topology(genome, config)
        nodes = genome.nodes
        connections = genome.connections
        node_evals = {}
        for node, node_sources in sources.items():
            gene = nodes[node]
            node_evals[node] = NodeEval(
                key=node,
                bias=gene.bias,
                activation=gene.activation,
                aggregation=gene.aggregation,
                ingress=tuple(
                    (src, connections[src, node].weight)
                    for src in node_sources
                ),
            )
        return cls(config.input_keys, config.output_keys, layers, node_evals)

    # ---------------------------------------------------------- activate
    def activate(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass: inputs vector -> outputs vector."""
        x = np.asarray(inputs, dtype=np.float64).reshape(-1)
        if x.shape[0] != len(self.input_keys):
            raise ValueError(
                f"expected {len(self.input_keys)} inputs, got {x.shape[0]}"
            )
        values = self._values
        values.clear()
        for key, value in zip(self.input_keys, x):
            values[key] = float(value)

        for layer in self.layers:
            for node in layer:
                plan = self.node_evals[node]
                weighted = [values[src] * w for src, w in plan.ingress]
                agg = aggregations.get(plan.aggregation)(weighted)
                act = activations.get(plan.activation)
                values[node] = act(agg + plan.bias)

        return np.array(
            [values.get(k, 0.0) for k in self.output_keys], dtype=np.float64
        )

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.activate(inputs)

    # -------------------------------------------------------- statistics
    @property
    def num_evaluated_nodes(self) -> int:
        return len(self.node_evals)

    @property
    def num_macs(self) -> int:
        """Multiply-accumulate count of one forward pass."""
        return sum(plan.fan_in for plan in self.node_evals.values())

    @property
    def layer_sizes(self) -> list[int]:
        """Node count per layer, input layer included (Fig 4(f) stat)."""
        return [len(self.input_keys)] + [len(layer) for layer in self.layers]

    @property
    def max_fan_in(self) -> int:
        return max(
            (plan.fan_in for plan in self.node_evals.values()), default=0
        )

    def dense_counterpart_connections(self) -> int:
        """Connections of the dense MLP counterpart (Fig 4 footnote).

        The counterpart has the same layer sizes with every adjacent pair
        fully connected; the evolved network's density is its enabled
        connection count divided by this (and can exceed 1.0 when many
        links skip layers, as in Fig 4(c))."""
        sizes = self.layer_sizes
        return sum(a * b for a, b in zip(sizes, sizes[1:]))

    def density(self) -> float:
        """(# evolved connections) / (# dense-counterpart connections)."""
        dense = self.dense_counterpart_connections()
        if dense == 0:
            return 0.0
        return self.num_macs / dense
