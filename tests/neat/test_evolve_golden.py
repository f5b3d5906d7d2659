"""Golden evolve trajectory: the evolve phase pinned to recorded values.

Every case below advances a :class:`Population` a fixed number of
generations with a cheap deterministic fitness (derived from
``structural_hash()``, so it needs no environment) and, for the initial
population and after every evolve, digests

* every genome's ``to_dict()`` in population order, with genes in their
  stored order and floats as ``float.hex``;
* the species partition, in the species set's stored order;
* compatibility distances between neighbouring genomes, both argument
  orders, as ``float.hex``;
* ``rng.bit_generator.state``.

The digests in ``evolve_golden.json`` were recorded from the evolve
phase (mutation, crossover, reproduction, speciation) in its plain
NumPy spelling (``rng.normal``, ``np.clip``, per-gene methods, pools
rebuilt per child), so this module is the determinism contract's check
that the fast evolve phase makes the same draws in the same order and
the same float bits.  The cases are chosen to reach every branch of
that code: weight and bias clamps, interspecies mating, the
single-survivor clone, activation and aggregation mutation, stagnant
species culled, sparse initial wiring and a warm start.

Re-record (only for an intended change of the evolve phase, which
breaks every earlier trajectory)::

    PYTHONPATH=src python tests/neat/test_evolve_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.population import Population

FIXTURE = Path(__file__).with_name("evolve_golden.json")

GENERATIONS = 7
SEEDS = (3, 11)

#: case name -> NEATConfig overrides; "warm_start" also seeds the
#: population from :func:`_seed_genome`
CASES: dict[str, dict] = {
    "default": {},
    "tight_bounds": dict(
        num_inputs=3,
        population_size=80,
        weight_min=-1.0,
        weight_max=1.0,
        bias_min=-1.0,
        bias_max=1.0,
        weight_mutate_power=1.0,
        bias_mutate_power=1.0,
    ),
    "interspecies": dict(
        num_inputs=5,
        num_outputs=3,
        population_size=90,
        compatibility_threshold=1.2,
        crossover_rate=0.8,
        interspecies_crossover_rate=1.0,
        elitism=1,
        max_stagnation=2,
    ),
    "single_survivor": dict(
        num_inputs=4,
        population_size=70,
        compatibility_threshold=1.5,
        survival_threshold=0.01,
        crossover_rate=1.0,
        interspecies_crossover_rate=0.0,
        elitism=1,
    ),
    "activation_aggregation": dict(
        num_inputs=3,
        num_outputs=2,
        population_size=60,
        node_add_rate=0.6,
        activation_options=("tanh", "sigmoid", "relu", "gauss", "abs"),
        activation_mutate_rate=0.4,
        aggregation_options=("sum", "product", "max", "mean"),
        aggregation_mutate_rate=0.4,
    ),
    "sparse_start": dict(
        num_inputs=8,
        num_outputs=4,
        population_size=60,
        initial_connection_fraction=0.4,
    ),
    "warm_start": dict(num_inputs=3, num_outputs=2, population_size=60),
}


def _fitness(genome: Genome) -> float:
    """A cheap fitness with many ties (exercises equal-parent crossover
    and the stable sorts) and negative values (offspring allocation)."""
    return (int(genome.structural_hash()[:6], 16) % 64) / 8.0 - 3.0


def _evaluate(population: list[Genome]) -> None:
    for genome in population:
        genome.fitness = _fitness(genome)


def _seed_genome(config: NEATConfig) -> Genome:
    """A deterministic champion with hidden structure to warm-start from."""
    rng = np.random.default_rng(2024)
    tracker = InnovationTracker(config.num_outputs)
    genome = Genome.initial(0, config, tracker, rng)
    for _ in range(12):
        genome.mutate(config, tracker, rng)
    genome.fitness = _fitness(genome)
    return genome


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _digest(payload: object) -> str:
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _genome_record(genome: Genome) -> dict:
    data = genome.to_dict()
    data["fitness"] = _hex(data["fitness"])
    for node in data["nodes"]:
        node["bias"] = _hex(node["bias"])
    for conn in data["connections"]:
        conn["weight"] = _hex(conn["weight"])
    return data


def _snapshot(population: Population) -> dict[str, str]:
    config = population.config
    genomes = population.population
    species = [
        [
            key,
            s.representative.key,
            [m.key for m in s.members],
            s.created_generation,
            _hex(s.best_fitness),
            s.last_improved_generation,
            _hex(s.adjusted_fitness_sum),
        ]
        for key, s in population.species_set.species.items()
    ]
    distances = [
        [
            _hex(genome.distance(genomes[i - 1], config)),
            _hex(genomes[i - 1].distance(genome, config)),
        ]
        for i, genome in enumerate(genomes)
    ]
    return {
        "genomes": _digest([_genome_record(g) for g in genomes]),
        "species": _digest(species),
        "distances": _digest(distances),
        "rng": _digest(population.rng.bit_generator.state),
    }


def _population(name: str, seed: int) -> Population:
    config = NEATConfig(**CASES[name])
    seed_genome = _seed_genome(config) if name == "warm_start" else None
    return Population(config, seed=seed, seed_genome=seed_genome)


def trajectory(name: str, seed: int) -> list[dict[str, str]]:
    """Snapshots of the initial population and after every evolve."""
    population = _population(name, seed)
    snapshots = [_snapshot(population)]
    for _ in range(GENERATIONS):
        population.advance(_evaluate)
        snapshots.append(_snapshot(population))
    return snapshots


def _case_id(name: str, seed: int) -> str:
    return f"{name}/{seed}"


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_evolve_matches_recorded_trajectory(recorded, name, seed):
    assert recorded["generations"] == GENERATIONS
    want = recorded["trajectories"][_case_id(name, seed)]
    got = trajectory(name, seed)
    for generation, (g, w) in enumerate(zip(got, want)):
        differ = sorted(k for k in w if g[k] != w[k])
        assert not differ, f"generation {generation} differs in {differ}"
    assert len(got) == len(want)


def _record() -> None:
    payload = {
        "generations": GENERATIONS,
        "trajectories": {
            _case_id(name, seed): trajectory(name, seed)
            for name in sorted(CASES)
            for seed in SEEDS
        },
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['trajectories'])} trajectories to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    _record()
