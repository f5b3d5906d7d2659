"""Unit tests for the NEAT population loop."""

import numpy as np
import pytest

from repro.neat.config import NEATConfig
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import Population


def _xor_fitness(config):
    """Classic XOR task: fitness = 4 - sum of squared errors."""
    cases = [
        (np.array([0.0, 0.0]), 0.0),
        (np.array([0.0, 1.0]), 1.0),
        (np.array([1.0, 0.0]), 1.0),
        (np.array([1.0, 1.0]), 0.0),
    ]

    def evaluate(genomes):
        for genome in genomes:
            net = FeedForwardNetwork.create(genome, config)
            error = 0.0
            for x, target in cases:
                out = net.activate(x)[0]
                error += (out - target) ** 2
            genome.fitness = 4.0 - error

    return evaluate


def test_population_initializes_with_species():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=10)
    pop = Population(cfg, seed=0)
    assert len(pop.population) == 10
    assert len(pop.species_set) >= 1


def test_missing_fitness_detected():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=10)
    pop = Population(cfg, seed=0)

    def bad_evaluate(genomes):
        genomes[0].fitness = 1.0  # rest left unset

    with pytest.raises(RuntimeError, match="without fitness"):
        pop.advance(bad_evaluate)


def test_run_improves_xor_fitness():
    cfg = NEATConfig(
        num_inputs=2,
        num_outputs=1,
        population_size=60,
        default_activation="sigmoid",
        activation_options=("sigmoid",),
    )
    pop = Population(cfg, seed=3)
    result = pop.run(_xor_fitness(cfg), max_generations=25)
    first = result.history[0].best_fitness
    last = result.history[-1].best_fitness
    assert last >= first
    assert result.best_genome.fitness >= last - 1e-9
    assert result.generations <= 25


def test_run_stops_at_threshold():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=20)

    def easy(genomes):
        for g in genomes:
            g.fitness = 10.0

    pop = Population(cfg, seed=0)
    result = pop.run(easy, max_generations=50, fitness_threshold=5.0)
    assert result.solved
    # solved after the first evaluate/evolve cycle
    assert result.generations == 1


def test_history_records_sizes():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=15)

    def constant(genomes):
        for g in genomes:
            g.fitness = 1.0

    pop = Population(cfg, seed=0)
    pop.run(constant, max_generations=3)
    assert len(pop.history) >= 3
    for stats in pop.history:
        assert stats.population_size == 15
        assert stats.mean_nodes >= 3  # 2 inputs + 1 output minimum
        assert stats.num_species >= 1


def test_phase_table_receives_phases():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=15)

    def constant(genomes):
        for g in genomes:
            g.fitness = 1.0

    pop = Population(cfg, seed=0)
    pop.run(constant, max_generations=2)
    assert pop.phases.keys() == {
        "evaluate", "reproduce", "speciate", "stagnation"
    }
    assert all(seconds >= 0.0 for seconds in pop.phases.values())


def test_populations_can_share_a_phase_table():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=15)
    table: dict[str, float] = {}

    def constant(genomes):
        for g in genomes:
            g.fitness = 1.0

    first = Population(cfg, seed=0, phases=table)
    second = Population(cfg, seed=1, phases=table)
    assert first.phases is table and second.phases is table
    first.advance(constant)
    after_first = dict(table)
    second.advance(constant)
    assert table.keys() == after_first.keys()
    assert all(table[k] >= after_first[k] for k in table)


def test_best_genome_is_monotone():
    cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=20)
    rng = np.random.default_rng(0)

    def noisy(genomes):
        for g in genomes:
            g.fitness = float(rng.normal())

    pop = Population(cfg, seed=1)
    best_values = []
    for _ in range(5):
        pop.advance(noisy)
        best_values.append(pop.best_genome.fitness)
    assert best_values == sorted(best_values)
