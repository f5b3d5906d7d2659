"""Speciation ("Speciate" in Table III).

Individuals are grouped by topological similarity (the compatibility
distance) so that "diverse evolved traits survive through generations,
even if their genomes do not perform well initially" — young structural
innovations compete only within their own species, via fitness sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, compatibility

__all__ = ["Species", "SpeciesSet"]


@dataclass
class Species:
    """One species: a representative genome plus its current members."""

    key: int
    created_generation: int
    representative: Genome
    members: list[Genome] = field(default_factory=list)
    #: Best raw fitness the species has ever reached (stagnation tracking).
    best_fitness: float = float("-inf")
    last_improved_generation: int = 0
    #: Sum of members' adjusted (shared) fitnesses this generation.
    adjusted_fitness_sum: float = 0.0

    def update_fitness(self, generation: int) -> None:
        """Refresh best-fitness/stagnation counters from current members."""
        best = max(
            (g.fitness for g in self.members if g.fitness is not None),
            default=float("-inf"),
        )
        if best > self.best_fitness:
            self.best_fitness = best
            self.last_improved_generation = generation
        shared = [
            (g.fitness if g.fitness is not None else 0.0) / max(len(self.members), 1)
            for g in self.members
        ]
        self.adjusted_fitness_sum = float(sum(shared))

    def stagnant_for(self, generation: int) -> int:
        return generation - self.last_improved_generation

    @property
    def size(self) -> int:
        return len(self.members)


class SpeciesSet:
    """Partitions a population into species each generation."""

    def __init__(self, config: NEATConfig):
        self._config = config
        self._species: dict[int, Species] = {}
        self._next_key = 0

    # -------------------------------------------------------------- views
    @property
    def species(self) -> dict[int, Species]:
        return self._species

    def __len__(self) -> int:
        return len(self._species)

    # ----------------------------------------------------------- speciate
    def speciate(
        self,
        population: list[Genome],
        generation: int,
        rng: np.random.Generator,
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

    # ---------------------------------------------------------- stagnation
    def remove_stagnant(self, generation: int) -> list[int]:
        """Cull species stagnant beyond ``max_stagnation``.

        The top ``species_elitism`` species by best fitness are always
        protected so the population can never go extinct.  Returns the
        keys of the removed species.
        """
        config = self._config
        ranked = sorted(
            self._species.values(), key=lambda s: s.best_fitness, reverse=True
        )
        protected = {s.key for s in ranked[: config.species_elitism]}
        removed = []
        for species in list(self._species.values()):
            if species.key in protected:
                continue
            if species.stagnant_for(generation) > config.max_stagnation:
                removed.append(species.key)
                del self._species[species.key]
        return removed

    def update_fitnesses(self, generation: int) -> None:
        for species in self._species.values():
            species.update_fitness(generation)

    def total_adjusted_fitness(self) -> float:
        return float(
            sum(s.adjusted_fitness_sum for s in self._species.values())
        )
