"""The shared topology solve and the signature key, against the oracle.

``FeedForwardNetwork.create`` and ``CompiledStructure.from_genome`` both
decode from :func:`repro.neat.network.solve_topology`.  On genomes built
by hand (random DAGs over hidden nodes, disabled connections, dead
branches, hidden nodes without ingress, sources outside the config's
inputs, mixed activations, non-``sum`` aggregations, an activation the
engine has no vector twin for, and one cycle), both must agree with the
per-node decode kept in :mod:`tests.compile.topology_reference`: the
same layers, ingress sources and node attributes, the same recipes and
vectorizability, engine rows and outputs equal to the interpreted
forward pass bit for bit, and ``ValueError`` on a cycle.

The compile cache keys on :meth:`Genome.shape_signature`; equal
signatures must hold exactly when the ``shape_key()`` digests are equal,
and the digests of three fixed genomes are pinned.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import CompiledPopulationEvaluator, CompiledStructure
from repro.neat.activations import activations
from repro.neat.config import NEATConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome, signature_digest
from repro.neat.network import FeedForwardNetwork, solve_topology
from repro.neat.vectorized import _VECTOR_ACTIVATIONS

from tests.compile import topology_reference as reference

#: a scalar activation the engine has no vector twin for
NO_TWIN = "cube"
ACTIVATIONS = (*sorted(_VECTOR_ACTIVATIONS), NO_TWIN)
AGGREGATIONS = ("sum", "product", "max")


@contextmanager
def _no_twin_registered():
    activations.add(NO_TWIN, lambda x: x * x * x)
    try:
        yield
    finally:
        del activations._functions[NO_TWIN]


def _node(draw, key: int, exotic: bool) -> NodeGene:
    """A node the engine runs, or with ``exotic`` any node."""
    return NodeGene(
        key,
        draw(st.floats(-3.0, 3.0)),
        draw(st.sampled_from(ACTIVATIONS if exotic else ACTIVATIONS[:-1])),
        draw(st.sampled_from(AGGREGATIONS)) if exotic else "sum",
    )


@st.composite
def hand_genomes(draw, cycle: bool = False):
    """``(config, genome)``: nodes in a random order, every connection
    running forward in it (or from an input), any of them disabled;
    about half the genomes hold only nodes the engine runs.  With
    ``cycle`` one output also feeds a node that feeds it."""
    num_inputs = draw(st.integers(1, 4))
    num_outputs = draw(st.integers(1, 3))
    config = NEATConfig(num_inputs=num_inputs, num_outputs=num_outputs)
    hidden = draw(
        st.lists(
            st.integers(num_outputs, num_outputs + 60), unique=True,
            max_size=7,
        )
    )
    order = draw(st.permutations([*config.output_keys, *hidden]))
    genome = Genome(key=draw(st.integers(0, 99)))
    exotic = draw(st.booleans())
    for key in draw(st.permutations(order)):
        genome.nodes[key] = _node(draw, key, exotic)
    # an input key the config does not have is filtered out of ingress
    sources = [*config.input_keys, -(num_inputs + 1)]
    pairs = [(src, dst) for src in sources for dst in order] + [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    if cycle:
        output = draw(st.sampled_from(config.output_keys))
        others = [key for key in order if key != output]
        back = draw(st.sampled_from(others)) if others else output
        loop = [(output, back), (back, output)]
        chosen = [pair for pair in chosen if pair not in loop] + loop
    for innovation, pair in enumerate(chosen):
        genome.connections[pair] = ConnectionGene(
            pair,
            draw(st.floats(-3.0, 3.0)),
            True if cycle and pair in chosen[-2:] else draw(st.booleans()),
            innovation,
        )
    return config, genome


def _observations(rng, rows, columns):
    obs = rng.standard_normal((rows, columns)) * 3.0
    obs[rng.integers(rows), rng.integers(columns)] = rng.choice(
        [np.nan, np.inf, -np.inf]
    )
    return obs


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(setup=hand_genomes(), seed=st.integers(0, 2**31 - 1))
def test_solve_decodes_as_the_per_node_reference(setup, seed):
    config, genome = setup
    with _no_twin_registered():
        net = FeedForwardNetwork.create(genome, config)
        oracle = reference.create(genome, config)
        layers, sources = solve_topology(genome, config)
        assert layers == net.layers == oracle.layers
        assert net.node_evals == oracle.node_evals
        assert sources == {
            key: tuple(src for src, _ in node.ingress)
            for key, node in oracle.node_evals.items()
        }

        structure = CompiledStructure.from_genome(genome, config)
        rows, plan = reference.build(genome, config)
        assert structure.rows == rows
        assert (structure.plan is None) == (plan is None)
        assert structure.shape_key == genome.shape_key()
        if plan is None:
            return
        assert reference.same_rows(
            reference.engine_rows(structure, genome), reference.plan_rows(plan)
        )
        evaluator = CompiledPopulationEvaluator(
            [(structure, genome), (structure, genome)]
        )
        obs = _observations(
            np.random.default_rng(seed), 2, config.num_inputs
        )
        outputs = evaluator.infer([0, 1], obs)
        for row in range(2):
            assert outputs[row].tobytes() == net.activate(obs[row]).tobytes()


@settings(max_examples=60, deadline=None)
@given(setup=hand_genomes(cycle=True))
def test_a_cycle_raises_on_both_paths(setup):
    config, genome = setup
    with _no_twin_registered():
        with pytest.raises(ValueError, match="not feed-forward") as ours:
            FeedForwardNetwork.create(genome, config)
        with pytest.raises(ValueError, match="not feed-forward") as theirs:
            reference.create(genome, config)
        assert str(ours.value) == str(theirs.value)
        with pytest.raises(ValueError, match="not feed-forward"):
            CompiledStructure.from_genome(genome, config)


def _edited(draw, genome: Genome) -> Genome:
    """A copy with one random edit, which may or may not move its shape."""
    copy = genome.copy()
    edit = draw(
        st.sampled_from(
            ["none", "weights", "toggle", "activation", "aggregation",
             "node", "drop"]
        )
    )
    nodes = sorted(copy.nodes)
    conns = sorted(copy.connections)
    if edit == "weights":
        for gene in copy.connections.values():
            gene.weight += 0.5
        for gene in copy.nodes.values():
            gene.bias -= 0.5
    elif edit == "toggle" and conns:
        gene = copy.connections[draw(st.sampled_from(conns))]
        gene.enabled = not gene.enabled
    elif edit == "activation":
        copy.nodes[draw(st.sampled_from(nodes))].activation = draw(
            st.sampled_from(ACTIVATIONS)
        )
    elif edit == "aggregation":
        copy.nodes[draw(st.sampled_from(nodes))].aggregation = draw(
            st.sampled_from(AGGREGATIONS)
        )
    elif edit == "node":
        key = max(nodes) + 1
        copy.nodes[key] = NodeGene(key, 0.0, "tanh", "sum")
    elif edit == "drop" and conns:
        del copy.connections[draw(st.sampled_from(conns))]
    return copy


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equal_signatures_exactly_when_shape_keys_are_equal(data):
    _, genome = data.draw(hand_genomes())
    other = _edited(data.draw, genome)
    signature = genome.shape_signature()
    assert signature_digest(signature) == genome.shape_key()
    assert (signature == other.shape_signature()) == (
        genome.shape_key() == other.shape_key()
    )


def _build(nodes, connections):
    genome = Genome(key=7)
    for key, bias, activation, aggregation in nodes:
        genome.nodes[key] = NodeGene(key, bias, activation, aggregation)
    for innovation, (src, dst, weight, enabled) in enumerate(connections):
        genome.connections[(src, dst)] = ConnectionGene(
            (src, dst), weight, enabled, innovation
        )
    return genome


#: fixed genomes and their shape keys, as every earlier version gave them
PINNED = [
    (
        _build(
            [(0, 0.5, "tanh", "sum"), (1, -0.25, "tanh", "sum")],
            [(-1, 0, 1.5, True), (-2, 0, -0.5, True), (-3, 1, 0.25, False),
             (-4, 1, 2.0, True)],
        ),
        "429a194473146f48f7f52980951b9ca6e6a11d94b26286b50ff20e7ea50cac8a",
    ),
    (
        _build(
            [(1, 0.0, "sigmoid", "sum"), (0, 0.1, "relu", "sum"),
             (5, 1.0, "gauss", "max"), (3, -1.0, "sin", "sum"),
             (9, 0.3, "abs", "sum")],
            [(-2, 5, 0.7, True), (5, 0, -1.1, True), (-1, 3, 0.2, True),
             (3, 1, 0.9, True), (3, 0, 0.4, False), (-3, 9, 1.0, True)],
        ),
        "9443d0639c520a5ad117701fe6ff072004eb83c27cf1c301398dd11b1ab8070d",
    ),
    (
        _build(
            [(0, 0.0, "identity", "mean"), (2, 0.0, "clamped", "sum")], []
        ),
        "105d886db4ddf15a55e370aabd86a059cf6bcd19cbb685b28e440f2927c9765e",
    ),
]


@pytest.mark.parametrize(
    "genome, key", PINNED, ids=["direct", "hidden", "bare"]
)
def test_pinned_shape_keys(genome, key):
    assert genome.shape_key() == key
    assert signature_digest(genome.shape_signature()) == key
