"""Reproduction: elitism + offspring allocation ("Evolve" in Table III).

Each species receives a share of the next generation proportional to its
fitness-shared (adjusted) fitness.  Within a species, elites are copied
unchanged, the bottom of the ranking is culled by the survival
threshold, and the remainder of the quota is filled with children made
by crossover (probability ``crossover_rate``) or mutation-only cloning.

Every entry point draws through one
:class:`~repro.neat.draws.DrawStream` over the population generator and
commits it on the way out, so the generator ends where the same draws
on it would have left it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.neat.config import NEATConfig
from repro.neat.crossover import crossover
from repro.neat.draws import DrawStream
from repro.neat.genes import MutationRules, mutation_rules
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.species import SpeciesSet

__all__ = ["Reproduction", "allocate_offspring"]


def allocate_offspring(
    adjusted_fitnesses: list[float],
    min_sizes: list[int],
    total: int,
) -> list[int]:
    """Split ``total`` offspring across species.

    Allocation is proportional to each species' adjusted fitness (shifted
    to be non-negative), then clamped below by ``min_sizes`` and adjusted
    to sum exactly to ``total``.  Pure bookkeeping — kept separate so the
    arithmetic is property-testable.
    """
    if len(adjusted_fitnesses) != len(min_sizes):
        raise ValueError("adjusted_fitnesses and min_sizes must align")
    if not adjusted_fitnesses:
        return []
    if total < sum(min_sizes):
        raise ValueError(
            f"cannot allocate {total} offspring with minimum sizes {min_sizes}"
        )
    lo = min(adjusted_fitnesses)
    shifted = [f - lo + 1e-9 for f in adjusted_fitnesses]
    norm = sum(shifted)
    raw = [total * s / norm for s in shifted]
    sizes = [max(m, int(round(r))) for m, r in zip(min_sizes, raw)]

    # repair rounding drift while respecting the minimums
    diff = total - sum(sizes)
    order = sorted(range(len(sizes)), key=lambda i: raw[i], reverse=True)
    idx = 0
    while diff != 0:
        i = order[idx % len(order)]
        if diff > 0:
            sizes[i] += 1
            diff -= 1
        elif sizes[i] > min_sizes[i]:
            sizes[i] -= 1
            diff += 1
        idx += 1
        if idx > 10 * total + 100:  # pragma: no cover - defensive
            raise RuntimeError("offspring allocation failed to converge")
    return sizes


class Reproduction:
    """Produces the next generation from the current species partition."""

    def __init__(self, config: NEATConfig, tracker: InnovationTracker):
        self._config = config
        self._tracker = tracker
        self._next_genome_key = 0

    def fresh_key(self) -> int:
        key = self._next_genome_key
        self._next_genome_key += 1
        return key

    # --------------------------------------------------------- initial pop
    def create_initial_population(
        self, rng: np.random.Generator
    ) -> list[Genome]:
        with DrawStream(rng) as draws:
            return [
                Genome.initial(
                    self.fresh_key(), self._config, self._tracker, draws
                )
                for _ in range(self._config.population_size)
            ]

    def create_population_from_seed(
        self, seed_genome: Genome, rng: np.random.Generator
    ) -> list[Genome]:
        """Warm-start population for the model-tuning scenario (§I).

        The deployed champion enters unchanged; the rest of the
        population are mutated copies, so adaptation to the new
        environment starts from the trained structure instead of from
        scratch (the paper's "adequate model trained on a generic
        environment, continuously trained on the target environment").
        """
        config = self._config
        population = [seed_genome.copy(new_key=self.fresh_key())]
        population[0].fitness = None
        with DrawStream(rng) as draws:
            rules = mutation_rules(config, draws)
            for _ in range(config.population_size - 1):
                clone = seed_genome.copy(new_key=self.fresh_key())
                clone.fitness = None
                clone.mutate(config, self._tracker, draws, rules)
                population.append(clone)
        return population

    # ---------------------------------------------------------- reproduce
    def reproduce(
        self,
        species_set: SpeciesSet,
        generation: int,
        rng: np.random.Generator,
    ) -> list[Genome]:
        """Build the next generation's population."""
        config = self._config
        species_list = sorted(species_set.species.values(), key=lambda s: s.key)
        if not species_list:
            # total extinction: restart from scratch (NEAT's reset rule)
            return self.create_initial_population(rng)

        min_size = max(config.elitism, 1)
        sizes = allocate_offspring(
            [s.adjusted_fitness_sum for s in species_list],
            [min_size] * len(species_list),
            max(config.population_size, min_size * len(species_list)),
        )

        # survivors per species, plus the cross-species parent pool for
        # interspecies mating (the classic NEAT 0.1% event)
        ranked_members: list[list[Genome]] = []
        survivor_pools: list[list[Genome]] = []
        for species in species_list:
            ranked = sorted(
                species.members,
                key=lambda g: g.fitness if g.fitness is not None else float("-inf"),
                reverse=True,
            )
            cutoff = max(1, math.ceil(config.survival_threshold * len(ranked)))
            ranked_members.append(ranked)
            survivor_pools.append(ranked[:cutoff])
        all_survivors = [g for pool in survivor_pools for g in pool]

        next_population: list[Genome] = []
        offset = 0
        with DrawStream(rng) as draws:
            rules = mutation_rules(config, draws)
            for ranked, quota, parents in zip(
                ranked_members, sizes, survivor_pools
            ):
                elites = min(config.elitism, quota)
                # elites survive unchanged
                for elite in ranked[:elites]:
                    next_population.append(elite.copy(self.fresh_key()))
                for _ in range(quota - elites):
                    child = self._make_child(
                        parents, offset, all_survivors, draws, rules
                    )
                    next_population.append(child)
                offset += len(parents)
        return next_population

    def _make_child(
        self,
        parents: list[Genome],
        offset: int,
        all_survivors: list[Genome],
        draws: DrawStream,
        rules: MutationRules,
    ) -> Genome:
        """One offspring of ``parents``, which is
        ``all_survivors[offset : offset + len(parents)]``.

        The second parent is drawn from the pool without the first one;
        the pool is never built: entry ``j`` of a pool that leaves out
        position ``i`` is entry ``j + (j >= i)`` of the full list (every
        genome appears once, as speciation assigns each exactly once).
        """
        config = self._config
        can_cross = len(parents) >= 2 or (
            len(parents) >= 1 and len(all_survivors) >= 2
        )
        if can_cross and draws.random() < config.crossover_rate:
            first_at = draws.integers(len(parents))
            first = parents[first_at]
            if (
                len(all_survivors) > len(parents)
                and draws.random() < config.interspecies_crossover_rate
            ):
                # interspecies mating: second parent from anywhere
                pool, skip = all_survivors, offset + first_at
            else:
                pool, skip = parents, first_at
            if len(pool) > 1:
                at = draws.integers(len(pool) - 1)
                second = pool[at + (at >= skip)]
                child = crossover(
                    first, second, self.fresh_key(), config, draws
                )
            else:
                child = first.copy(new_key=self.fresh_key())
        else:
            parent = parents[draws.integers(len(parents))]
            child = parent.copy(new_key=self.fresh_key())
        child.fitness = None
        child.mutate(config, self._tracker, draws, rules)
        return child
