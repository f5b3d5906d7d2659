"""``SpeciesSet.speciate`` against the exact loop on generated populations.

The filtered pass must partition every population as the exact loop in
``speciation_reference`` does: the same species keys, representatives
and member lists, in order, and the same next key.  Each example runs
two passes, so that the second re-anchors representatives that are not
in its population.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.neat import species as species_module
from repro.neat.config import NEATConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome
from repro.neat.population import Population
from repro.neat.species import SpeciesSet

from tests.neat import speciation_reference as reference

#: weights and biases: the clamp bounds, values one ulp apart, zeros
#: of both signs and steps of 2**-53 that only some summation orders see
VALUES = [
    0.0,
    -0.0,
    2.0**-53,
    0.5,
    1.0,
    math.nextafter(1.0, 2.0),
    -1.5,
    30.0,
    -30.0,
    math.nextafter(30.0, 0.0),
    math.nextafter(-30.0, 0.0),
]
values = st.one_of(
    st.sampled_from(VALUES),
    st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False),
)
#: 1, 9, 17 and 25 share a hash slot in a small set, so a dict union
#: iterates them in each operand's insertion order; a checkpoint can
#: carry negative ones, which are disjoint against an empty genome
INNOVATIONS = [-3, -1, 0, 1, 2, 3, 9, 17, 25, 40]
ACTIVATIONS = ("tanh", "sigmoid", "relu")
AGGREGATIONS = ("sum", "product")


@st.composite
def genomes(draw, key: int) -> Genome:
    """A genome with any subset of the node keys and innovation numbers,
    in any insertion order, connections disabled or not."""
    genome = Genome(key=key)
    for node_key in draw(st.lists(st.integers(0, 4), unique=True, max_size=5)):
        genome.nodes[node_key] = NodeGene(
            node_key,
            draw(values),
            draw(st.sampled_from(ACTIVATIONS)),
            draw(st.sampled_from(AGGREGATIONS)),
        )
    innovations = st.sampled_from(INNOVATIONS)
    for innovation in draw(st.lists(innovations, unique=True, max_size=8)):
        conn = (-(innovation + 1), 0)
        genome.connections[conn] = ConnectionGene(
            conn, draw(values), draw(st.booleans()), innovation
        )
    return genome


def _nudged(genome: Genome, key: int) -> Genome:
    """A copy one ulp away in its first weight or bias."""
    copy = genome.copy(new_key=key)
    for gene in copy.connections.values():
        gene.weight = math.nextafter(gene.weight, math.inf)
        return copy
    for node in copy.nodes.values():
        node.bias = math.nextafter(node.bias, -math.inf)
        return copy
    return copy


@st.composite
def populations(draw, first_key: int, parents: list[Genome] = ()):
    """Generated genomes, ulp-nudged copies of ``parents`` and, now and
    then, genes a checkpoint can carry: a NaN weight, a repeated
    innovation number, an innovation number far from the rest or past
    int64."""
    size = draw(st.integers(0 if parents else 1, 10))
    population = [draw(genomes(first_key + i)) for i in range(size)]
    for parent in parents:
        if draw(st.booleans()):
            population.insert(
                draw(st.integers(0, len(population))),
                _nudged(parent, first_key + len(population)),
            )
    with_connections = [g for g in population if g.connections]
    if with_connections and draw(st.integers(0, 5)) == 0:
        genome = draw(st.sampled_from(with_connections))
        next(iter(genome.connections.values())).weight = math.nan
    if with_connections and draw(st.integers(0, 7)) == 0:
        genome = draw(st.sampled_from(with_connections))
        repeated = next(iter(genome.connections.values())).innovation
        genome.connections[(-99, 0)] = ConnectionGene(
            (-99, 0), draw(values), True, repeated
        )
    if with_connections and draw(st.integers(0, 15)) == 0:
        genome = draw(st.sampled_from(with_connections))
        far = draw(st.sampled_from([2**40, 2**64]))
        genome.connections[(-98, 0)] = ConnectionGene(
            (-98, 0), draw(values), True, far
        )
    return population


def _config(draw, population: list[Genome]) -> NEATConfig:
    """A threshold drawn freely or set to one pair's exact distance in
    one operand order, with drawn distance coefficients."""
    coefficients = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    config = NEATConfig(
        num_inputs=41,
        num_outputs=1,
        excess_coefficient=draw(coefficients),
        disjoint_coefficient=draw(coefficients),
        weight_coefficient=draw(coefficients),
    )
    threshold = draw(st.floats(0.05, 4.0))
    if population and draw(st.booleans()):
        a = draw(st.sampled_from(population))
        b = draw(st.sampled_from(population))
        exact = a.distance(b, config)
        if exact > 0:
            threshold = exact
    config.compatibility_threshold = threshold
    return config


def _check_pass(species_set: SpeciesSet, population, generation) -> None:
    oracle = reference.twin(species_set)
    reference.speciate(oracle, population, generation)
    species_set.speciate(population, generation, rng=None)
    assert reference.partition(species_set) == reference.partition(oracle)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_two_passes_partition_as_the_exact_loop(data):
    first = data.draw(populations(0))
    config = _config(data.draw, first)
    species_set = SpeciesSet(config)
    _check_pass(species_set, first, generation=0)
    second = data.draw(populations(100, parents=first))
    _check_pass(species_set, second, generation=1)


def test_asymmetric_pair_thresholds_in_both_orders():
    """A threshold between the two operand orders' distances, with
    more genomes than the pair, still partitions as the exact loop."""
    from tests.neat.test_species import _asymmetric_pair

    a, b = _asymmetric_pair()
    base = NEATConfig(num_inputs=17, num_outputs=1)
    for threshold in (a.distance(b, base), b.distance(a, base)):
        config = NEATConfig(
            num_inputs=17, num_outputs=1, compatibility_threshold=threshold
        )
        for first, second in [([a], [b, a.copy(3)]), ([b], [a, b.copy(4)])]:
            species_set = SpeciesSet(config)
            _check_pass(species_set, first, generation=0)
            _check_pass(species_set, second, generation=1)


def test_first_exact_minimum_wins_over_the_lowest_filtered_value():
    """Re-anchoring picks the first genome at the exact minimum even
    when the filtered sum, in innovation order, ranks a later genome
    strictly lower: X's terms sum to 1.0 in innovation order but to
    ``1 + 2**-52`` in the representative's insertion order, Y's to
    ``1 + 2**-52`` in both."""

    def genome(key, weights):
        g = Genome(key=key)
        g.nodes[0] = NodeGene(0, 0.0, "tanh", "sum")
        for innovation, weight in weights.items():
            conn = (-innovation, 0)
            g.connections[conn] = ConnectionGene(conn, weight, True, innovation)
        return g

    rep = genome(0, {9: 0.0, 17: 0.0, 1: 0.0})
    x = genome(1, {1: 1.0, 9: 2.0**-53, 17: 2.0**-53})
    y = genome(2, {1: 1.0, 9: 0.0, 17: 2.0**-52})
    config = NEATConfig(num_inputs=17, num_outputs=1)
    assert rep.distance(x, config) == rep.distance(y, config)
    species_set = SpeciesSet(config)
    _check_pass(species_set, [rep], generation=0)
    _check_pass(species_set, [y, x], generation=1)
    assert species_set.species[0].representative is y


def test_innovations_at_or_below_an_empty_genomes_largest():
    """An empty genome's index reports -1 as its largest innovation, so
    innovation numbers up to the smaller of -1 and the other genome's
    largest, which a checkpoint can carry, are disjoint, not excess."""

    def genome(key, innovations):
        g = Genome(key=key)
        for innovation in innovations:
            conn = (-innovation - 10, 0)
            g.connections[conn] = ConnectionGene(conn, 0.0, True, innovation)
        return g

    config = NEATConfig(
        num_inputs=20,
        num_outputs=1,
        excess_coefficient=0.0,
        disjoint_coefficient=1.0,
        compatibility_threshold=0.5,
    )
    for innovations in ([-3, -2], [-3, -1], [-1, 4], [2, 4]):
        first, second = genome(0, []), genome(1, [])
        other = genome(2, innovations)
        for population in ([first, other, second], [first, second, other]):
            _check_pass(SpeciesSet(config), population, generation=0)


def _fitness(genomes: list[Genome]) -> None:
    """A cheap stand-in for an episode: rewards larger positive weights."""
    for genome in genomes:
        genome.fitness = float(
            sum(c.weight for c in genome.connections.values() if c.enabled)
        )


def test_far_fewer_exact_distances_than_the_exact_loop(monkeypatch):
    """On a default-config population a few generations in, the
    filter calls the exact distance about once per species, where the
    exact loop calls it for every genome and species it compares."""
    population = Population(
        NEATConfig(num_inputs=4, num_outputs=2, population_size=300), seed=3
    )
    for _ in range(6):
        population.advance(_fitness)
    calls = {"filtered": 0, "reference": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    monkeypatch.setattr(
        species_module,
        "compatibility",
        counting("filtered", species_module.compatibility),
    )
    monkeypatch.setattr(
        reference,
        "compatibility",
        counting("reference", reference.compatibility),
    )
    species_set = population.species_set
    before = len(species_set)
    _check_pass(species_set, population.population, population.generation)
    assert before >= 2
    assert calls["reference"] >= len(population.population)
    assert calls["filtered"] * 100 <= calls["reference"]


def test_decided_reanchoring_makes_no_exact_distance(monkeypatch):
    """When each species' one closest candidate has filtered bounds on
    one side of the threshold, re-anchoring takes the filter's word:
    the pass makes no exact distance call at all, where re-anchoring
    used to call one per species."""

    def genome(key, innovations, weight):
        g = Genome(key=key)
        g.nodes[0] = NodeGene(0, 0.0, "tanh", "sum")
        for innovation in innovations:
            conn = (-innovation - 1, 0)
            g.connections[conn] = ConnectionGene(conn, weight, True, innovation)
        return g

    config = NEATConfig(
        num_inputs=40, num_outputs=1, compatibility_threshold=0.6
    )
    groups = [range(0, 3), range(10, 13), range(20, 23)]
    first = [genome(k, group, 0.0) for k, group in enumerate(groups)]
    # each species' own kind, nudged, then one far from every species
    second = [genome(10 + k, group, 0.25) for k, group in enumerate(groups)]
    second.append(genome(20, range(30, 36), 0.0))
    threshold = config.compatibility_threshold
    for rep in first:
        distances = [rep.distance(g, config) for g in second]
        assert sorted(distances)[0] <= threshold / 2
        assert sorted(distances)[1] >= 2 * threshold
    calls = []

    def counting(*args):
        calls.append(args)
        return compatibility(*args)

    compatibility = species_module.compatibility
    species_set = SpeciesSet(config)
    _check_pass(species_set, first, generation=0)
    monkeypatch.setattr(species_module, "compatibility", counting)
    _check_pass(species_set, second, generation=1)
    assert len(species_set) == 4
    assert calls == []


def test_empty_population_drops_every_species():
    rng = np.random.default_rng(0)
    config = NEATConfig(num_inputs=2, num_outputs=1)
    first = [Genome(key=0), Genome(key=1)]
    for genome in first:
        genome.nodes[0] = NodeGene(0, float(rng.normal()), "tanh", "sum")
    species_set = SpeciesSet(config)
    _check_pass(species_set, first, generation=0)
    _check_pass(species_set, [], generation=1)
    assert len(species_set) == 0
