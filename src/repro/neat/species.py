"""Speciation ("Speciate" in Table III).

Individuals are grouped by topological similarity (the compatibility
distance) so that "diverse evolved traits survive through generations,
even if their genomes do not perform well initially" — young structural
innovations compete only within their own species, via fitness sharing.

Every speciation decision is the one the exact
:func:`~repro.neat.genome.compatibility` makes.  A pass lays the
population's genes out as flat arrays once (:class:`_DistanceFilter`),
NumPy gives every genome's distance to one representative at once, and
the exact distance runs only where that filtered value, which sums the
same per-gene terms in another order, cannot decide (DESIGN.md,
determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, InnovationIndex, compatibility

__all__ = ["Species", "SpeciesSet"]

#: the filter leaves a distance, or a sum of its per-gene terms, at or
#: above this undecided, so that no order of the exact sum can overflow
_LIMIT = 2.0**900
#: the reorder bound's slack per summed gene: ``2**12`` times the worst
#: case of two summation orders plus the formula's own roundings
_SLACK = 2.0**-40
#: a pass whose innovation numbers or node keys span more values than
#: this leaves every distance to the exact path
_MAX_SPAN = 2**22


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


def _slots(keys: np.ndarray, include: int) -> tuple[np.ndarray, int, int]:
    """Each key's offset from the smallest of ``keys`` and ``include``,
    how many values they span, and ``include``'s offset."""
    low = int(keys.min(initial=include))
    span = int(keys.max(initial=include)) - low + 1
    return keys - low, span, include - low


class _DistanceFilter:
    """One speciation pass's compatibility decisions.

    The pass's genomes (the population, then any representative
    outside it) are laid out once as flat gene arrays: every connection
    gene, sorted by (genome, innovation), then every node gene.  Each
    gene has a slot (its innovation number or node key), a value (weight
    or bias) and two codes (enabled; activation and aggregation), so
    that for one representative NumPy forms every per-gene term
    :func:`~repro.neat.genome.compatibility` sums,
    ``abs(value - rep_value)`` plus 1.0 for each code that differs.
    :meth:`closest` and :meth:`joins` call the exact distance only where
    that filtered value cannot decide.
    """

    def __init__(
        self,
        population: list[Genome],
        representatives: list[Genome],
        config: NEATConfig,
    ):
        self._population = population
        self._config = config
        self._threshold = config.compatibility_threshold
        self._indexes: dict[int, InnovationIndex] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._position = {id(g): i for i, g in enumerate(population)}
        genomes = list(population)
        for rep in representatives:
            if id(rep) not in self._position:
                self._position[id(rep)] = len(genomes)
                genomes.append(rep)
        size = len(genomes)
        conns = [c for g in genomes for c in g.connections.values()]
        nodes = [n for g in genomes for n in g.nodes.values()]
        self._count = count = np.fromiter(
            [len(g.connections) for g in genomes], np.int64, size
        )
        self._node_count = node_count = np.fromiter(
            [len(g.nodes) for g in genomes], np.int64, size
        )
        try:
            innovations = np.fromiter(
                [c.innovation for c in conns], np.int64, len(conns)
            )
            node_keys = np.fromiter(
                [k for g in genomes for k in g.nodes], np.int64, len(nodes)
            )
        except OverflowError:
            # a checkpoint can carry keys past int64
            self._off = True
            return
        # -1, the largest innovation an empty genome's index reports,
        # has a slot too: innovations up to it count as disjoint
        conn_slot, conn_span, empty = _slots(innovations, -1)
        # output node keys start at 0
        node_slot, node_span, _ = _slots(node_keys, 0)
        self._span = conn_span + node_span
        self._off = max(conn_span, node_span) > _MAX_SPAN
        if self._off:
            return
        largest = max(count.max(initial=0), node_count.max(initial=0))
        self._slack = (int(largest) + 4) * _SLACK

        owners = np.arange(size)
        self._base = base = owners * conn_span
        key = np.repeat(base, count) + conn_slot
        order = np.argsort(key, kind="stable")
        self._key = key = key[order]
        conn_slot = conn_slot[order]
        conn_owner = np.repeat(owners, count)
        self._start = np.cumsum(count) - count
        self._node_start = len(conns) + np.cumsum(node_count) - node_count
        # each genome's largest slot, innovation -1's without connections
        self._largest = np.full(size, empty)
        has = count > 0
        self._largest[has] = conn_slot[self._start[has] + count[has] - 1]
        # a genome whose innovation numbers repeat keeps only the last of
        # each in its innovation index: the exact path decides for it
        self._exact_only = np.zeros(size, dtype=bool)
        self._exact_only[conn_owner[1:][key[1:] == key[:-1]]] = True

        codes: dict[str, int] = {}
        activations = [
            codes.setdefault(n.activation, len(codes)) for n in nodes
        ]
        aggregations = [
            codes.setdefault(n.aggregation, len(codes)) for n in nodes
        ]
        self._slot = np.concatenate([conn_slot, conn_span + node_slot])
        self._value = np.concatenate([
            np.fromiter([c.weight for c in conns], float, len(conns))[order],
            np.fromiter([n.bias for n in nodes], float, len(nodes)),
        ])
        self._code = np.concatenate([
            np.fromiter([c.enabled for c in conns], np.int32, len(conns))[
                order
            ],
            np.fromiter(activations, np.int32, len(nodes)),
        ])
        self._second_code = np.concatenate([
            np.zeros(len(conns), np.int32),
            np.fromiter(aggregations, np.int32, len(nodes)),
        ])
        # bincount cells: 2 * genome for connections, 2 * genome + 1 for
        # nodes
        self._cell = np.concatenate(
            [2 * conn_owner, 2 * np.repeat(owners, node_count) + 1]
        )

    # ------------------------------------------------------- decisions
    def closest(self, rep: Genome, positions: np.ndarray) -> int | None:
        """The position ``np.argmin`` picks over the exact distances
        ``rep.distance(genome)`` of the genomes at ``positions``, if
        that distance is within the threshold; otherwise None."""
        threshold = self._threshold
        lo, hi = self._bounds(rep, positions)
        decided = ~np.isnan(lo)
        if decided.all() and lo.min() > threshold:
            return None
        # only these can hold the first minimum, or a NaN, which
        # np.argmin would pick first
        near = ~decided
        if decided.any():
            near |= lo <= hi[decided].min()
        (at,) = np.nonzero(near)
        if len(at) == 1 and decided[at[0]]:
            # the one candidate is the first minimum; its bounds may
            # already place it on one side of the threshold
            if hi[at[0]] <= threshold:
                return int(positions[at[0]])
            if lo[at[0]] > threshold:
                return None
        candidates = positions[near].tolist()
        population = self._population
        exact = [self.distance(rep, population[p]) for p in candidates]
        best = int(np.argmin(exact))
        return candidates[best] if exact[best] <= threshold else None

    def joins(self, rep: Genome, positions: np.ndarray) -> np.ndarray:
        """Which genomes at ``positions`` have
        ``genome.distance(rep) <= threshold``."""
        threshold = self._threshold
        lo, hi = self._bounds(rep, positions)
        joins = hi <= threshold
        population = self._population
        for i in np.flatnonzero(~joins & ~(lo > threshold)).tolist():
            genome = population[positions[i]]
            joins[i] = self.distance(genome, rep) <= threshold
        return joins

    def distance(self, a: Genome, b: Genome) -> float:
        """The exact ``a.distance(b)``, each innovation index built once
        per pass and only for the genomes that need one."""
        return compatibility(
            a, self._index(a), b, self._index(b), self._config
        )

    def _index(self, genome: Genome) -> InnovationIndex:
        index = self._indexes.get(id(genome))
        if index is None:
            index = self._indexes[id(genome)] = genome.innovation_index()
        return index

    # -------------------------------------------------------- filtering
    def _bounds(
        self, rep: Genome, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` around the exact distance between ``rep`` and
        each genome at ``positions``, in either operand order; NaN where
        the filter cannot decide."""
        r = self._position[id(rep)]
        row = self._rows.get(r)
        if row is None:
            # a NaN or infinite gene, or an overflow, is expected here:
            # it leaves the filtered value undecided
            with np.errstate(over="ignore", invalid="ignore"):
                row = self._rows[r] = self._row(r)
        lo, hi = row
        return lo[positions], hi[positions]

    def _row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        size = len(self._count)
        if self._off or self._exact_only[r]:
            undecided = np.full(size, np.nan)
            return undecided, undecided
        config = self._config
        count, node_count = self._count, self._node_count
        conns = np.arange(self._start[r], self._start[r] + count[r])
        nodes = np.arange(
            self._node_start[r], self._node_start[r] + node_count[r]
        )
        genes = np.concatenate([conns, nodes])
        # the representative's genes as tables over the pass's slots
        slot = self._slot[genes]
        has = np.zeros(self._span, dtype=bool)
        has[slot] = True
        value = np.zeros(self._span)
        value[slot] = self._value[genes]
        code = np.zeros(self._span, np.int32)
        code[slot] = self._code[genes]
        second_code = np.zeros(self._span, np.int32)
        second_code[slot] = self._second_code[genes]

        # every matching gene's term, summed per genome and gene kind
        hits = np.flatnonzero(has[self._slot])
        slot = self._slot[hits]
        terms = np.abs(self._value[hits] - value[slot])
        terms += self._code[hits] != code[slot]
        terms += self._second_code[hits] != second_code[slot]
        cell = self._cell[hits]
        sums = np.bincount(cell, terms, 2 * size).reshape(size, 2)
        matching = np.bincount(cell, minlength=2 * size).reshape(size, 2)

        # connections up to the other genome's largest innovation are
        # disjoint when unmatched, the rest excess
        mine = (
            np.searchsorted(self._key, self._base + self._largest[r], "right")
            - self._start
        )
        theirs = np.searchsorted(self._slot[conns], self._largest, "right")
        matched = matching[:, 0]
        excess = (count - mine) + (count[r] - theirs)
        disjoint = (mine - matched) + (theirs - matched)
        n = np.maximum(np.maximum(count, count[r]), 1)
        distance = (
            config.excess_coefficient * excess / n
            + config.disjoint_coefficient * disjoint / n
            + config.weight_coefficient * sums[:, 0] / np.maximum(matched, 1)
        )
        matched = matching[:, 1]
        disjoint = node_count + node_count[r] - 2 * matched
        n = np.maximum(np.maximum(node_count, node_count[r]), 1)
        distance += (
            config.disjoint_coefficient * disjoint / n
            + config.weight_coefficient * sums[:, 1] / np.maximum(matched, 1)
        )

        decided = (
            (distance < _LIMIT)
            & (sums.max(axis=1) < _LIMIT)
            & ~self._exact_only
        )
        margin = (1.0 + distance) * self._slack
        lo = np.where(decided, distance - margin, np.nan)
        hi = np.where(decided, distance + margin, np.nan)
        return lo, hi


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
        threshold, or found a new one.  Each decision is the one
        ``representative.distance(genome)`` (re-anchoring) or
        ``genome.distance(representative)`` (placing) makes; the
        species are filled one at a time, which gives every genome the
        first species a genome-by-genome pass would give it.
        """
        measure = _DistanceFilter(
            population,
            [s.representative for s in self._species.values()],
            self._config,
        )
        free = np.ones(len(population), dtype=bool)
        for species in self._species.values():
            species.members = []

        # re-anchor each surviving species on its closest new member
        for species in self._species.values():
            waiting = np.flatnonzero(free)
            if not waiting.size:
                break
            closest = measure.closest(species.representative, waiting)
            if closest is not None:
                free[closest] = False
                species.representative = population[closest]
                species.members.append(population[closest])

        # the rest join the first species within the threshold, or the
        # first of them founds one that the genomes after it may join
        waiting = np.flatnonzero(free)
        existing = iter(list(self._species.values()))
        while waiting.size:
            species = next(existing, None)
            if species is None:
                founder = population[waiting[0]]
                key = self._next_key
                self._next_key += 1
                species = self._species[key] = Species(
                    key=key,
                    created_generation=generation,
                    representative=founder,
                    members=[founder],
                )
                waiting = waiting[1:]
                if not waiting.size:
                    break
            joins = measure.joins(species.representative, waiting)
            species.members += [population[p] for p in waiting[joins].tolist()]
            waiting = waiting[~joins]

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
