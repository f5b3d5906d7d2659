"""The per-node decode: the oracle for the shared topology solve.

:func:`create` is ``FeedForwardNetwork.create`` as it was before
CreateNet became one topology solve shared with the compiler, kept
verbatim: :func:`required_nodes` pruning, the ingress filter, the
pass-by-pass ASAP layering, and a :class:`NodeEval` per node, weights
included.  :class:`Plan` is the engine's per-network lowering of that
time, per-element stores included, and :func:`build` the compiler's
miss build on top of both (recipes plus plan).  The tests hold
:func:`repro.neat.network.solve_topology`, ``CompiledStructure`` and
the engine's row templates to them.

Run as a script, it checks the misses of a mid-run population: cartpole
on ``cpu-compiled`` at population 1000, where the compile cache's hit
rate falls towards one half.  Every new shape is built both ways; the
recipes and the engine's rows must be equal, and the script prints the
per-miss build time of both and fails below a total speed-up of
``--min-ratio``::

    PYTHONPATH=src python tests/compile/topology_reference.py \\
        --population 1000 --seed 100 --generations 16 --min-ratio 1.5
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.compile import CompiledPopulationEvaluator, CompiledStructure
from repro.compile.cache import CompileCache
from repro.compile.structure import _RowRecipe
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, signature_digest
from repro.neat.network import FeedForwardNetwork, NodeEval
from repro.neat.vectorized import (
    _ACTIVATION_CODES,
    _VECTOR_ACTIVATIONS,
    _act_groups,
)


def required_nodes(genome: Genome, config: NEATConfig) -> set[int]:
    """Nodes that can influence an output (outputs always included)."""
    reverse: dict[int, list[int]] = {}
    for conn in genome.connections.values():
        if conn.enabled:
            reverse.setdefault(conn.out_node, []).append(conn.in_node)
    required = set(config.output_keys)
    frontier = list(config.output_keys)
    while frontier:
        node = frontier.pop()
        for src in reverse.get(node, ()):
            if src >= 0 and src not in required:
                required.add(src)
                frontier.append(src)
    return required


def create(genome: Genome, config: NEATConfig) -> FeedForwardNetwork:
    """Decode ``genome`` (the paper's CreateNet), node by node."""
    required = required_nodes(genome, config)
    input_keys = config.input_keys
    input_set = set(input_keys)

    ingress: dict[int, list[tuple[int, float]]] = {k: [] for k in required}
    for conn in genome.connections.values():
        if not conn.enabled or conn.out_node not in required:
            continue
        if conn.in_node in input_set or conn.in_node in required:
            ingress[conn.out_node].append((conn.in_node, conn.weight))

    # --- ASAP layering over the acyclic dependency graph ---
    depth: dict[int, int] = {k: 0 for k in input_keys}
    unassigned = set(required)
    while unassigned:
        progressed = False
        for node in sorted(unassigned):
            sources = [src for src, _ in ingress[node]]
            if all(src in depth for src in sources):
                depth[node] = (
                    1 + max((depth[src] for src in sources), default=0)
                )
                unassigned.discard(node)
                progressed = True
        if not progressed:
            raise ValueError(
                f"genome {genome.key} is not feed-forward: cycle among "
                f"nodes {sorted(unassigned)}"
            )

    max_depth = max((depth[k] for k in required), default=0)
    layers: list[list[int]] = [[] for _ in range(max_depth)]
    for node in sorted(required):
        layers[depth[node] - 1].append(node)

    node_evals = {}
    for node in required:
        gene = genome.nodes[node]
        node_evals[node] = NodeEval(
            key=node,
            bias=gene.bias,
            activation=gene.activation,
            aggregation=gene.aggregation,
            ingress=tuple(sorted(ingress[node])),
        )
    return FeedForwardNetwork(
        input_keys, config.output_keys, layers, node_evals
    )


class Layer:
    """One layer's padded rows: ``(rows, fan_in)`` sources and weights,
    and the rows of each activation."""

    def __init__(self, sources, weights, biases, codes, slots):
        self.sources = sources
        self.weights = weights
        self.biases = biases
        self.codes = codes
        self.act_groups = _act_groups(codes)
        self.slots = slots


class Plan:
    """A decoded network lowered to padded per-layer matrices, element
    by element: the engine's rows for one member."""

    def __init__(self, net: FeedForwardNetwork):
        for plan in net.node_evals.values():
            if plan.aggregation != "sum":
                raise ValueError(
                    f"vectorization supports 'sum' aggregation only; node "
                    f"{plan.key} uses {plan.aggregation!r}"
                )
            if plan.activation not in _VECTOR_ACTIVATIONS:
                raise ValueError(
                    f"no vectorized activation {plan.activation!r}"
                )
        self.num_inputs = len(net.input_keys)
        self.num_outputs = len(net.output_keys)

        # value-buffer slot index for every key, inputs first; the slot
        # after the last node is never written, so it stays 0.0
        index: dict[int, int] = {
            key: i for i, key in enumerate(net.input_keys)
        }
        zero_slot = self.num_inputs + sum(len(layer) for layer in net.layers)
        self.layers: list[Layer] = []
        for layer in net.layers:
            rows = len(layer)
            fan_in = max(
                (net.node_evals[key].fan_in for key in layer), default=0
            )
            sources = np.full((rows, fan_in), zero_slot, dtype=np.intp)
            weights = np.zeros((rows, fan_in))
            biases = np.empty(rows)
            codes = np.empty(rows, dtype=np.intp)
            for row, key in enumerate(layer):
                plan = net.node_evals[key]
                biases[row] = plan.bias
                codes[row] = _ACTIVATION_CODES[plan.activation]
                for term, (src, w) in enumerate(plan.ingress):
                    sources[row, term] = index[src]
                    weights[row, term] = w
            slots = np.empty(rows, dtype=np.intp)
            for row, key in enumerate(layer):
                index[key] = len(index)
                slots[row] = index[key]
            self.layers.append(Layer(sources, weights, biases, codes, slots))
        self.num_slots = zero_slot + 1
        self.output_slots = np.array(
            [index.get(k, -1) for k in net.output_keys], dtype=np.intp
        )


def build(genome: Genome, config: NEATConfig):
    """The compiler's miss build from the weighted decode: ``(rows,
    plan)``, ``plan`` None for a shape the engine cannot run."""
    net = create(genome, config)
    rows = tuple(
        tuple(
            _RowRecipe(
                key,
                net.node_evals[key].activation,
                net.node_evals[key].aggregation,
                tuple(src for src, _ in net.node_evals[key].ingress),
            )
            for key in layer
        )
        for layer in net.layers
    )
    try:
        plan = Plan(net)
    except ValueError:
        plan = None
    return rows, plan


def engine_rows(structure: CompiledStructure, genome: Genome) -> list[tuple]:
    """``genome``'s rows as the engine lays them out from ``structure``:
    per depth ``(sources, weights, biases, codes, slots)``."""
    evaluator = CompiledPopulationEvaluator([(structure, genome)])
    return [
        (table.sources, table.weights, table.biases, table.codes, table.slots)
        for table in evaluator._flat._tables
    ]


def plan_rows(plan: Plan) -> list[tuple]:
    """:func:`engine_rows`' layout of a reference :class:`Plan`."""
    return [
        (layer.sources, layer.weights, layer.biases, layer.codes, layer.slots)
        for layer in plan.layers
    ]


def same_rows(ours: list[tuple], reference: list[tuple]) -> bool:
    """Equal shapes, slots and codes, and parameters bit for bit."""
    return len(ours) == len(reference) and all(
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.tobytes() == b.tobytes()
        for mine, theirs in zip(ours, reference)
        for a, b in zip(mine, theirs)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--env", default="cartpole")
    parser.add_argument("--backend", default="cpu-compiled")
    parser.add_argument("--population", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument(
        "--generations", type=int, default=16,
        help="generations whose misses are checked",
    )
    parser.add_argument("--min-ratio", type=float, default=1.5)
    args = parser.parse_args(argv)

    from repro.core.platform import E3

    built = CompileCache._build
    totals = [0.0, 0.0]
    misses = [0]

    def checked(self, signature, genome, config, warm=False):
        t0 = time.perf_counter()
        key = signature_digest(signature)
        structure = CompiledStructure.from_genome(genome, config, key)
        t1 = time.perf_counter()
        rows, plan = build(genome, config)
        t2 = time.perf_counter()
        if structure.rows != rows or (structure.plan is None) != (
            plan is None
        ):
            raise AssertionError(f"shape {key[:12]}: recipes differ")
        if plan is not None and not same_rows(
            engine_rows(structure, genome), plan_rows(plan)
        ):
            raise AssertionError(f"shape {key[:12]}: engine rows differ")
        totals[0] += t2 - t1
        totals[1] += t1 - t0
        misses[0] += 1
        return built(self, signature, genome, config, warm)

    CompileCache._build = checked
    try:
        e3 = E3(
            args.env,
            backend=args.backend,
            neat_config=NEATConfig(population_size=args.population),
            seed=args.seed,
            workers=0,
        )
        population = e3.population
        for _ in range(args.generations):
            before = misses[0], totals[0], totals[1]
            population.advance(e3.backend.evaluate)
            count = misses[0] - before[0]
            reference, ours = totals[0] - before[1], totals[1] - before[2]
            print(
                f"generation {population.generation - 1:3d}: {count:4d} "
                f"misses, reference {1e6 * reference / max(count, 1):6.1f} "
                f"us/miss, solve {1e6 * ours / max(count, 1):6.1f} us/miss",
                flush=True,
            )
    finally:
        CompileCache._build = built
    ratio = totals[0] / totals[1]
    print(
        f"all {misses[0]} shapes equal; reference "
        f"{1e6 * totals[0] / misses[0]:.1f} us/miss, solve "
        f"{1e6 * totals[1] / misses[0]:.1f} us/miss, {ratio:.2f}x "
        f"(bar {args.min_ratio}x)"
    )
    return 0 if ratio >= args.min_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
