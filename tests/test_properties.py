"""Cross-module property-based tests.

These pin down the system-level invariants DESIGN.md promises, over
randomly evolved genomes and random hardware configurations:

* the functional INAX device agrees with the software forward pass for
  whole waves, end to end;
* LPT scheduling never loses to in-order for any network/PE count;
* the analytic scheduler is monotone in episode length and population;
* checkpoints round-trip losslessly through JSON;
* the full mutate/crossover/decode pipeline never produces a cycle,
  a dangling connection, or a non-finite output.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.inax.accelerator import INAX, INAXConfig, schedule_generation
from repro.inax.compiler import compile_genome
from repro.inax.pu import ProcessingUnit, PUCosts
from repro.neat.checkpoint import checkpoint_to_dict, population_from_dict
from repro.neat.config import NEATConfig
from repro.neat.crossover import crossover
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import Population

from tests.conftest import evolved_genome
from tests.neat.test_genome import _has_cycle


@st.composite
def evolved_setup(draw, max_mutations=20):
    """(config, tracker, rng, genome) with a randomly evolved genome."""
    num_inputs = draw(st.integers(1, 5))
    num_outputs = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    mutations = draw(st.integers(0, max_mutations))
    config = NEATConfig(num_inputs=num_inputs, num_outputs=num_outputs)
    tracker = InnovationTracker(num_outputs)
    rng = np.random.default_rng(seed)
    genome = evolved_genome(config, tracker, rng, mutations=mutations)
    return config, tracker, rng, genome


@settings(max_examples=30, deadline=None)
@given(setup=evolved_setup(), num_pes=st.integers(1, 6))
def test_device_wave_matches_software(setup, num_pes):
    """A whole wave through the stepwise device equals per-net software."""
    config, tracker, rng, genome = setup
    genomes = [genome]
    for key in (101, 102):
        genomes.append(evolved_genome(config, tracker, rng, mutations=5, key=key))
    hw_configs = [compile_genome(g, config) for g in genomes]
    nets = [FeedForwardNetwork.create(g, config) for g in genomes]

    device = INAX(num_pus=len(genomes), num_pes_per_pu=num_pes)
    device.begin_wave(hw_configs)
    for _ in range(3):
        x = rng.standard_normal(config.num_inputs)
        outputs = device.step(
            list(range(len(genomes))), np.tile(x, (len(genomes), 1))
        )
        for i, net in enumerate(nets):
            assert np.array_equal(outputs[i], net.activate(x))
    device.end_wave()


@settings(max_examples=30, deadline=None)
@given(setup=evolved_setup(), num_pes=st.integers(1, 6))
def test_lpt_never_slower_property(setup, num_pes):
    config, _, _, genome = setup
    hw = compile_genome(genome, config)
    inorder = ProcessingUnit(num_pes, pu_costs=PUCosts(schedule="inorder"))
    lpt = ProcessingUnit(num_pes, pu_costs=PUCosts(schedule="lpt"))
    inorder.load(hw)
    lpt.load(hw)
    assert lpt.step_cycles() <= inorder.step_cycles()


@settings(max_examples=20, deadline=None)
@given(
    setup=evolved_setup(max_mutations=10),
    steps=st.integers(1, 10),
    extra=st.integers(1, 10),
)
def test_schedule_monotone_in_steps(setup, steps, extra):
    """More env steps can never cost fewer cycles."""
    config, tracker, rng, genome = setup
    hw = compile_genome(genome, config)
    cfg = INAXConfig(num_pus=2, num_pes_per_pu=2)
    short = schedule_generation(cfg, [hw], [steps])
    long = schedule_generation(cfg, [hw], [steps + extra])
    assert long.total_cycles > short.total_cycles
    assert long.steps == short.steps + extra


@settings(max_examples=20, deadline=None)
@given(setup=evolved_setup(max_mutations=8), copies=st.integers(1, 5))
def test_schedule_monotone_in_population(setup, copies):
    """More individuals can never cost fewer cycles."""
    config, _, _, genome = setup
    hw = compile_genome(genome, config)
    cfg = INAXConfig(num_pus=2, num_pes_per_pu=1)
    small = schedule_generation(cfg, [hw], [5])
    large = schedule_generation(cfg, [hw] * (copies + 1), [5] * (copies + 1))
    assert large.total_cycles >= small.total_cycles
    assert large.individuals == copies + 1


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    generations=st.integers(0, 3),
    pop_size=st.integers(5, 15),
)
def test_checkpoint_roundtrip_property(seed, generations, pop_size):
    """checkpoint -> restore -> checkpoint is the identity on the payload."""
    config = NEATConfig(num_inputs=2, num_outputs=2, population_size=pop_size)
    population = Population(config, seed=seed)
    rng = np.random.default_rng(seed)

    def evaluate(genomes):
        for g in genomes:
            g.fitness = float(rng.normal())

    for _ in range(generations):
        population.advance(evaluate)

    first = checkpoint_to_dict(population)
    second = checkpoint_to_dict(population_from_dict(first))
    assert first == second


@settings(max_examples=25, deadline=None)
@given(setup=evolved_setup(), seed=st.integers(0, 10_000))
def test_crossover_decode_pipeline_is_sound(setup, seed):
    """Crossover of two evolved parents always decodes and evaluates."""
    config, tracker, rng, parent_a = setup
    parent_b = evolved_genome(config, tracker, rng, mutations=8, key=500)
    parent_a.fitness, parent_b.fitness = 1.0, 1.0
    child = crossover(parent_a, parent_b, 999, config, np.random.default_rng(seed))

    assert not _has_cycle(child.connections.keys())
    for in_node, out_node in child.connections:
        assert out_node in child.nodes
        if in_node >= 0:
            assert in_node in child.nodes

    net = FeedForwardNetwork.create(child, config)
    out = net.activate(np.zeros(config.num_inputs))
    assert out.shape == (config.num_outputs,)
    assert np.isfinite(out).all()


@settings(max_examples=20, deadline=None)
@given(setup=evolved_setup())
def test_compiled_config_words_consistent(setup):
    """DMA word accounting always matches the decoded structure."""
    config, _, _, genome = setup
    hw = compile_genome(genome, config)
    net = FeedForwardNetwork.create(genome, config)
    assert hw.num_connections == net.num_macs
    assert hw.config_words == net.num_macs + 2 * net.num_evaluated_nodes
    assert hw.value_buffer_words == len(net.input_keys) + net.num_evaluated_nodes
