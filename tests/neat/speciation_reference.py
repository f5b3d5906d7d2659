"""The exact speciation loop: the oracle for ``SpeciesSet.speciate``.

:func:`speciate` is the loop ``SpeciesSet.speciate`` ran before its
decisions came from filtered distances, kept verbatim: every comparison
calls :func:`~repro.neat.genome.compatibility`.  The parity tests run it
on a :func:`twin` of a species set and compare :func:`partition`\\ s.

Run as a script, it checks a mid-run population: cartpole on
``cpu-compiled`` at population 1000, where speciation is about half
of a generation.  Before every pass it runs this loop on a twin of the
species set, asserts the same partition, prints both times, and fails
below a total speed-up of ``--min-ratio``::

    PYTHONPATH=src python tests/neat/speciation_reference.py \\
        --population 1000 --seed 100 --generations 16 --min-ratio 2
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from repro.neat.genome import Genome, compatibility
from repro.neat.species import Species, SpeciesSet


def speciate(
    self: SpeciesSet,
    population: list[Genome],
    generation: int,
    rng: np.random.Generator | None = None,
) -> None:
    """Assign every genome in ``population`` to a species.

    Each existing species first picks the member closest to last
    generation's representative as its new representative; remaining
    genomes join the first species within the compatibility
    threshold, or found a new one.
    """
    config = self._config
    threshold = config.compatibility_threshold
    unassigned = list(population)
    # each genome's innovation index, built once and shared by every
    # distance this pass measures to or from it
    indexes = {id(g): g.innovation_index() for g in unassigned}

    for species in self._species.values():
        species.members = []
        rep = species.representative
        if id(rep) not in indexes:
            indexes[id(rep)] = rep.innovation_index()

    # re-anchor each surviving species on its closest new member
    for species in self._species.values():
        if not unassigned:
            break
        rep = species.representative
        rep_index = indexes[id(rep)]
        distances = [
            compatibility(rep, rep_index, g, indexes[id(g)], config)
            for g in unassigned
        ]
        idx = int(np.argmin(distances))
        if distances[idx] <= threshold:
            species.representative = unassigned[idx]
            species.members.append(unassigned.pop(idx))

    for genome in unassigned:
        index = indexes[id(genome)]
        placed = False
        for species in self._species.values():
            rep = species.representative
            if (
                compatibility(genome, index, rep, indexes[id(rep)], config)
                <= threshold
            ):
                species.members.append(genome)
                placed = True
                break
        if not placed:
            key = self._next_key
            self._next_key += 1
            self._species[key] = Species(
                key=key,
                created_generation=generation,
                representative=genome,
                members=[genome],
            )

    # drop species that attracted no members
    self._species = {
        k: s for k, s in self._species.items() if s.members
    }


def twin(species_set: SpeciesSet) -> SpeciesSet:
    """A copy of ``species_set`` that shares its genomes, so that two
    passes over one population can be compared by identity."""
    copy = SpeciesSet(species_set._config)
    copy._next_key = species_set._next_key
    copy._species = {
        key: replace(s, members=list(s.members))
        for key, s in species_set.species.items()
    }
    return copy


def partition(species_set: SpeciesSet) -> tuple:
    """Species keys, representatives and member lists in order (by
    identity), creation generations and the next key."""
    return species_set._next_key, [
        (
            key,
            s.created_generation,
            id(s.representative),
            [id(g) for g in s.members],
        )
        for key, s in species_set.species.items()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--env", default="cartpole")
    parser.add_argument("--backend", default="cpu-compiled")
    parser.add_argument("--population", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument(
        "--generations", type=int, default=16,
        help="last generation whose pass is checked",
    )
    parser.add_argument("--min-ratio", type=float, default=2.0)
    args = parser.parse_args(argv)

    from repro.core.platform import E3
    from repro.neat.config import NEATConfig

    filtered = SpeciesSet.speciate
    totals = [0.0, 0.0]

    def checked(self, population, generation, rng):
        oracle = twin(self)
        t0 = time.perf_counter()
        speciate(oracle, population, generation, rng)
        t1 = time.perf_counter()
        filtered(self, population, generation, rng)
        t2 = time.perf_counter()
        if partition(self) != partition(oracle):
            raise AssertionError(f"generation {generation}: partitions differ")
        totals[0] += t1 - t0
        totals[1] += t2 - t1
        print(
            f"generation {generation:3d}: {len(self):3d} species, "
            f"reference {1e3 * (t1 - t0):8.1f} ms, "
            f"filtered {1e3 * (t2 - t1):7.1f} ms, "
            f"{(t1 - t0) / (t2 - t1):5.1f}x",
            flush=True,
        )

    SpeciesSet.speciate = checked
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
            population.advance(e3.backend.evaluate)
    finally:
        SpeciesSet.speciate = filtered
    ratio = totals[0] / totals[1]
    print(
        f"all passes equal; reference {totals[0]:.2f} s, filtered "
        f"{totals[1]:.2f} s, {ratio:.2f}x (bar {args.min_ratio}x)"
    )
    return 0 if ratio >= args.min_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
