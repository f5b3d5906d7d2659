"""Fast software path — speedup of ``cpu-fast`` over the interpreted path.

The ``cpu-fast`` backend exists so software-only experimentation (and
the Fig 9/10 functional runs) doesn't pay the interpreted per-node
forward pass the paper profiles in Fig 1(b).  This bench measures one
full-generation ``evaluate()`` of an identical CartPole population on
both software backends and records:

* the wall-clock speedup (required: at least 2x on this population);
* that the fitness values and episode lengths agree bit-for-bit — the
  speedup is free, not an approximation.

The population is a *mid-run* one: NEAT evolves CartPole for a few
generations first, so episode lengths look like a real run (waves of
long-surviving individuals) rather than generation-0 noise where most
episodes die within ~15 steps and per-step costs are dominated by the
environment itself.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_output
from repro.core.backends import CompiledCPUBackend, CPUBackend
from repro.core.results import format_table
from repro.neat.config import NEATConfig
from repro.neat.population import Population

NUM_GENOMES = 100
BOOT_GENERATIONS = 6
EPISODES = 2
BASE_SEED = 11


def _midrun_population(config: NEATConfig):
    """Evolve CartPole briefly and return the live population."""
    boot = CompiledCPUBackend(
        "cartpole", config, episodes_per_genome=1, base_seed=3
    )
    population = Population(config, seed=3)
    population.run(boot.evaluate, max_generations=BOOT_GENERATIONS)
    boot.close()
    return list(population.population)


def _timed_evaluate(backend, genomes, repeats=2):
    """Best-of-N wall time for one full-generation evaluate()."""
    best = float("inf")
    for _ in range(repeats):
        for genome in genomes:
            genome.fitness = None
        start = time.perf_counter()
        backend.evaluate(genomes)
        best = min(best, time.perf_counter() - start)
    return best


def test_fastpath_speedup():
    config = NEATConfig(
        num_inputs=4, num_outputs=2, population_size=NUM_GENOMES
    )
    genomes = _midrun_population(config)
    assert len(genomes) >= 50

    cpu = CPUBackend(
        "cartpole", config, episodes_per_genome=EPISODES, base_seed=BASE_SEED
    )
    fast = CompiledCPUBackend(
        "cartpole", config, episodes_per_genome=EPISODES, base_seed=BASE_SEED
    )
    slow_pop = [g.copy() for g in genomes]
    fast_pop = [g.copy() for g in genomes]
    slow_seconds = _timed_evaluate(cpu, slow_pop)
    fast_seconds = _timed_evaluate(fast, fast_pop)
    speedup = slow_seconds / fast_seconds

    # the speedup must be exact-result: same floats, same episode lengths
    assert [g.fitness for g in slow_pop] == [g.fitness for g in fast_pop]
    assert (
        cpu.records[-1].episode_lengths == fast.records[-1].episode_lengths
    )

    steps = sum(cpu.records[-1].episode_lengths)
    rows = [
        ["interpreted (cpu)", f"{slow_seconds * 1e3:.1f}",
         f"{slow_seconds / steps * 1e6:.1f}", "1.0x"],
        ["vectorized (cpu-fast)", f"{fast_seconds * 1e3:.1f}",
         f"{fast_seconds / steps * 1e6:.1f}", f"{speedup:.2f}x"],
    ]
    table = format_table(
        ["software path", "generation (ms)", "per env step (us)", "speedup"],
        rows,
        title=(
            f"cpu-fast speedup: {len(genomes)} mid-run CartPole genomes x "
            f"{EPISODES} episodes, {steps} env steps"
        ),
    )
    write_output("fastpath_speedup", table)
    fast.close()

    assert speedup >= 2.0, f"cpu-fast only {speedup:.2f}x over interpreted"
