"""Unit tests for speciation and stagnation."""

import numpy as np

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.species import SpeciesSet

from tests.conftest import evolved_genome


def _population(cfg, tracker, rng, n=12, mutations=0):
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(n)
    ]


def test_speciate_partitions_population(small_config, tracker, rng):
    pop = _population(small_config, tracker, rng, n=15, mutations=3)
    ss = SpeciesSet(small_config)
    ss.speciate(pop, generation=0, rng=rng)
    members = [g for s in ss.species.values() for g in s.members]
    assert sorted(g.key for g in members) == sorted(g.key for g in pop)


def test_similar_genomes_share_species(small_config, tracker, rng):
    base = Genome.initial(0, small_config, tracker, rng)
    clones = [base.copy(new_key=i) for i in range(8)]
    ss = SpeciesSet(small_config)
    ss.speciate(clones, generation=0, rng=rng)
    assert len(ss) == 1


def test_distinct_topologies_split_species(rng):
    cfg = NEATConfig(
        num_inputs=3, num_outputs=2, compatibility_threshold=0.5
    )
    tracker = InnovationTracker(2)
    a = Genome.initial(0, cfg, tracker, rng)
    b = a.copy(new_key=1)
    for _ in range(8):
        b.mutate_add_node(cfg, tracker, rng)
        tracker.reset_generation()
    ss = SpeciesSet(cfg)
    ss.speciate([a, b], generation=0, rng=rng)
    assert len(ss) == 2


def test_empty_species_dropped(small_config, tracker, rng):
    pop = _population(small_config, tracker, rng, n=6)
    ss = SpeciesSet(small_config)
    ss.speciate(pop, generation=0, rng=rng)
    # respeciate with a fresh, different population: old species either
    # attract members or disappear
    pop2 = _population(small_config, tracker, rng, n=6, mutations=6)
    ss.speciate(pop2, generation=1, rng=rng)
    for species in ss.species.values():
        assert species.members


def test_update_fitness_tracks_best_and_sharing(small_config, tracker, rng):
    pop = _population(small_config, tracker, rng, n=4)
    for i, g in enumerate(pop):
        g.fitness = float(i)
    ss = SpeciesSet(small_config)
    ss.speciate(pop, generation=0, rng=rng)
    ss.update_fitnesses(generation=0)
    species = list(ss.species.values())
    total_members = sum(s.size for s in species)
    assert total_members == 4
    best = max(s.best_fitness for s in species)
    assert best == 3.0
    # fitness sharing: adjusted sum == sum(fitness)/size per species
    for s in species:
        expected = sum(g.fitness for g in s.members) / s.size
        assert abs(s.adjusted_fitness_sum - expected) < 1e-9


def test_stagnant_species_removed_but_elites_protected(
    small_config, tracker, rng
):
    cfg = NEATConfig(
        num_inputs=3,
        num_outputs=2,
        compatibility_threshold=0.5,
        max_stagnation=2,
        species_elitism=1,
    )
    tracker = InnovationTracker(2)
    a = Genome.initial(0, cfg, tracker, rng)
    b = a.copy(new_key=1)
    for _ in range(8):
        b.mutate_add_node(cfg, tracker, rng)
        tracker.reset_generation()
    a.fitness, b.fitness = 5.0, 1.0
    ss = SpeciesSet(cfg)
    ss.speciate([a, b], generation=0, rng=rng)
    assert len(ss) == 2
    ss.update_fitnesses(0)
    # no improvement for many generations
    for gen in range(1, 6):
        ss.update_fitnesses(gen)
        removed = ss.remove_stagnant(gen)
    assert len(ss) == 1  # the weaker species was culled
    survivor = next(iter(ss.species.values()))
    assert survivor.best_fitness == 5.0  # the elite species survived
    assert removed or True


def test_stagnation_counter_resets_on_improvement(small_config, tracker, rng):
    pop = _population(small_config, tracker, rng, n=3)
    for g in pop:
        g.fitness = 1.0
    ss = SpeciesSet(small_config)
    ss.speciate(pop, generation=0, rng=rng)
    ss.update_fitnesses(0)
    species = next(iter(ss.species.values()))
    assert species.stagnant_for(0) == 0
    # improvement at generation 3 resets the clock
    for g in species.members:
        g.fitness = 2.0
    ss.update_fitnesses(3)
    assert species.last_improved_generation == 3


def _asymmetric_pair():
    """Two genomes whose distance depends on the operand order.

    Innovations 1, 9 and 17 share a hash slot in a small set, so the
    union of the two innovation maps iterates them in each dict's own
    insertion order, and the matching weight differences (1.0, 2**-53,
    2**-53) sum to different floats in the two orders.
    """
    from repro.neat.genes import ConnectionGene, NodeGene

    def genome(key, order, weights):
        g = Genome(key=key)
        g.nodes[0] = NodeGene(0, 0.0, "tanh", "sum")
        for innovation in order:
            conn = (-innovation, 0)
            g.connections[conn] = ConnectionGene(
                conn, weights[innovation], True, innovation
            )
        return g

    a = genome(1, [1, 9, 17], {1: 0.0, 9: 0.0, 17: 0.0})
    b = genome(2, [9, 17, 1], {1: 1.0, 9: 2.0**-53, 17: 2.0**-53})
    return a, b


def test_speciate_keeps_each_distance_operand_order(rng):
    """Re-anchoring measures ``representative.distance(genome)``; placing
    measures ``genome.distance(representative)``.  With a threshold
    between the two orders' results, each order picks a different
    outcome, so swapping either call's operands changes species."""
    a, b = _asymmetric_pair()
    cfg = NEATConfig(num_inputs=17, num_outputs=1)
    assert a.distance(b, cfg) != b.distance(a, cfg)
    threshold = min(a.distance(b, cfg), b.distance(a, cfg))
    cfg = NEATConfig(
        num_inputs=17, num_outputs=1, compatibility_threshold=threshold
    )
    for rep, genome in [(a, b), (b, a)]:
        ss = SpeciesSet(cfg)
        ss.speciate([rep], generation=0, rng=rng)
        ss.speciate([genome], generation=1, rng=rng)
        if rep.distance(genome, cfg) <= threshold:
            # re-anchored on the newcomer
            assert list(ss.species) == [0]
            assert ss.species[0].representative is genome
        else:
            # joined the old representative's species
            assert genome.distance(rep, cfg) <= threshold
            assert list(ss.species) == [0]
            assert ss.species[0].representative is rep
            assert ss.species[0].members == [genome]
