"""The NEAT generation loop (Fig 1(a)).

``Population.run`` alternates the paper's two phases:

* **Evaluate** — delegated to a caller-supplied function over the whole
  population at once.  This is deliberate: E3 offloads exactly this
  call to the INAX backend, while the SW-only baseline evaluates on the
  CPU.  The population itself never knows which backend ran.
* **Evolve** — speciate, cull stagnation, reproduce (elitism, crossover,
  mutation); all on the "CPU" side of the co-design split.

Each phase is timed by :func:`repro.telemetry.spans.phase` into
:attr:`Population.phases`, the per-phase wall-clock table that
regenerates Fig 1(b) and Fig 9(d); the same seconds feed the
``phase.*`` spans and counters when telemetry is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.reproduction import Reproduction
from repro.neat.species import SpeciesSet
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import phase

__all__ = ["Population", "GenerationStats"]

EvaluateFn = Callable[[list[Genome]], None]


@dataclass
class GenerationStats:
    """Summary of one completed generation.

    ``extras`` carries backend-contributed columns (quarantine counts,
    shard retries, oversize totals, ...) gathered from
    :attr:`Population.stat_sources` — reporters render them after the
    fixed fields.
    """

    generation: int
    best_fitness: float
    mean_fitness: float
    num_species: int
    best_genome_key: int
    mean_nodes: float
    mean_connections: float
    population_size: int
    extras: dict[str, float] = field(default_factory=dict)

    def publish(self) -> None:
        """Count this generation and set the ``neat.*`` gauges from it.

        The run's driver publishes the row it reports: one island's
        own row under :meth:`Population.advance`, the row
        :class:`~repro.core.platform.E3` hands its reporters (pooled
        over the islands for K > 1) under ``E3``.
        """
        registry = get_metrics()
        if registry is not None:
            registry.counter("neat.generations").inc()
            registry.gauge("neat.best_fitness").set(self.best_fitness)
            registry.gauge("neat.mean_fitness").set(self.mean_fitness)
            registry.gauge("neat.num_species").set(self.num_species)
            registry.gauge("neat.population_size").set(self.population_size)


@dataclass
class RunResult:
    """Outcome of a :meth:`Population.run` call."""

    best_genome: Genome
    generations: int
    solved: bool
    history: list[GenerationStats] = field(default_factory=list)


class Population:
    """A NEAT population evolving against a fitness function."""

    def __init__(
        self,
        config: NEATConfig,
        seed: int | None = None,
        phases: dict[str, float] | None = None,
        seed_genome: Genome | None = None,
        key_offset: int = 0,
    ):
        """``phases`` is the table the evaluate and evolve phases add
        their seconds to (:attr:`phases`); by default the population
        keeps its own.

        ``seed_genome`` warm-starts the population from a deployed
        champion (the model-tuning use-case, §I) instead of from the
        minimal two-layer topology.

        ``key_offset`` shifts this population's genome key space — the
        island model gives each island a disjoint stride so genome keys
        (and therefore per-(genome, episode) evaluation seeds) never
        collide across islands."""
        self.config = config
        self.rng = np.random.default_rng(seed)
        #: the run seed a restored checkpoint recorded (``None`` for a
        #: new population, or a checkpoint that recorded none)
        self.run_seed: int | None = None
        self.tracker = InnovationTracker(config.num_outputs)
        self.reproduction = Reproduction(config, self.tracker)
        if key_offset:
            self.reproduction._next_genome_key = key_offset
        self.species_set = SpeciesSet(config)
        self.generation = 0
        #: phase name -> accumulated wall-clock seconds
        self.phases: dict[str, float] = {} if phases is None else phases
        self.best_genome: Genome | None = None
        self.history: list[GenerationStats] = []
        #: callables returning ``dict[str, float]`` merged into each
        #: generation's :attr:`GenerationStats.extras` (the platform
        #: registers the backend's ``reporter_columns`` here)
        self.stat_sources: list[Callable[[], dict[str, float]]] = []
        # filled lazily to avoid a circular import at module load
        from repro.neat.reporters import ReporterSet

        self.reporters = ReporterSet()

        if seed_genome is not None:
            self.tracker.prime_from_genome(seed_genome)
            self.population = self.reproduction.create_population_from_seed(
                seed_genome, self.rng
            )
        else:
            self.population = self.reproduction.create_initial_population(
                self.rng
            )
        self.species_set.speciate(self.population, self.generation, self.rng)

    # ----------------------------------------------------------- running
    def run(
        self,
        evaluate: EvaluateFn,
        max_generations: int | None = None,
        fitness_threshold: float | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> RunResult:
        """Run evaluate/evolve loops until solved or out of generations.

        ``stop`` (optional) is a cooperative cancellation probe checked
        at each generation boundary (the serve layer passes the job's
        cancel flag): when it returns True the loop exits cleanly with
        the population in a checkpointable state.  A never-evaluated
        population still runs one generation first, so the result
        always carries a real champion.
        """
        limit = (
            max_generations
            if max_generations is not None
            else self.config.max_generations
        )
        threshold = (
            fitness_threshold
            if fitness_threshold is not None
            else self.config.fitness_threshold
        )
        solved = False
        for _ in range(limit):
            if (
                stop is not None
                and self.best_genome is not None
                and stop()
            ):
                break
            best = self.advance(evaluate)
            if threshold is not None and best.fitness is not None:
                if best.fitness >= threshold:
                    solved = True
                    break
        assert self.best_genome is not None
        return RunResult(
            best_genome=self.best_genome,
            generations=self.generation,
            solved=solved,
            history=list(self.history),
        )

    def advance(self, evaluate: EvaluateFn) -> Genome:
        """Run one evaluate + evolve cycle; returns the generation's best."""
        with phase(
            self.phases,
            "evaluate",
            generation=self.generation,
            population=len(self.population),
        ):
            evaluate(self.population)

        best = self.observe_evaluated()
        self.history[-1].publish()
        self._evolve()
        return best

    def observe_evaluated(self) -> Genome:
        """Book the just-evaluated generation; returns its best genome.

        The first half of :meth:`advance`, exposed so
        :class:`~repro.core.platform.E3`, which evaluates every island's
        population in one call, can observe each population between the
        shared evaluate call and the per-population :meth:`evolve`.
        The generation's row is published by the driver (see
        :meth:`GenerationStats.publish`).
        """
        missing = [g.key for g in self.population if g.fitness is None]
        if missing:
            raise RuntimeError(
                f"evaluate() left genomes without fitness: {missing[:5]}"
            )

        best = max(self.population, key=lambda g: g.fitness)  # type: ignore[arg-type]
        if (
            self.best_genome is None
            or self.best_genome.fitness is None
            or best.fitness > self.best_genome.fitness  # type: ignore[operator]
        ):
            self.best_genome = best.copy()

        self._record_stats(best)
        return best

    def evolve(self) -> None:
        """Run the evolve phase alone (the second half of
        :meth:`advance`); :class:`~repro.core.platform.E3` calls this
        after migration."""
        self._evolve()

    # --------------------------------------------------------- migration
    def emigrants(self, count: int) -> list[Genome]:
        """Copies of the ``count`` fittest members (migration payload).

        Deterministic order: fitness descending, genome key ascending
        as the tie-break.  Returns copies so the donor island keeps its
        champions — migration *spreads* genes, it never drains them.
        """
        ranked = sorted(
            (g for g in self.population if g.fitness is not None),
            key=lambda g: (-g.fitness, g.key),  # type: ignore[operator]
        )
        return [g.copy() for g in ranked[:count]]

    def admit(self, immigrants: list[Genome]) -> None:
        """Replace the worst residents with ``immigrants`` (cloned into
        this island's key space), then re-speciate.

        Victims are the lowest-fitness members (unevaluated first,
        key-descending tie-break — newest duplicates go first).
        Re-speciation is mandatory: species member lists hold object
        references, and a stale reference to a replaced resident would
        corrupt the next evolve.  ``speciate`` draws nothing from the
        RNG, so admitting immigrants does not perturb the island's
        random stream.
        """
        if not immigrants:
            return
        victims = sorted(
            self.population,
            key=lambda g: (
                g.fitness if g.fitness is not None else float("-inf"),
                -g.key,
            ),
        )[: len(immigrants)]
        for immigrant, victim in zip(immigrants, victims):
            clone = immigrant.copy(self.reproduction.fresh_key())
            for index, resident in enumerate(self.population):
                if resident is victim:
                    self.population[index] = clone
                    break
        self.species_set.speciate(self.population, self.generation, self.rng)

    # ------------------------------------------------------------ evolve
    def _evolve(self) -> None:
        rng = self.rng

        with phase(self.phases, "stagnation", generation=self.generation):
            self.species_set.update_fitnesses(self.generation)
            self.species_set.remove_stagnant(self.generation)

        with phase(self.phases, "reproduce", generation=self.generation):
            self.population = self.reproduction.reproduce(
                self.species_set, self.generation, rng
            )

        self.generation += 1
        self.tracker.reset_generation()

        with phase(self.phases, "speciate", generation=self.generation):
            self.species_set.speciate(self.population, self.generation, rng)

    def _record_stats(self, best: Genome) -> None:
        fitnesses = [g.fitness for g in self.population if g.fitness is not None]
        extras: dict[str, float] = {}
        for source in self.stat_sources:
            extras.update(source())
        stats = GenerationStats(
            generation=self.generation,
            best_fitness=float(best.fitness),  # type: ignore[arg-type]
            mean_fitness=float(np.mean(fitnesses)) if fitnesses else 0.0,
            num_species=len(self.species_set),
            best_genome_key=best.key,
            mean_nodes=float(
                np.mean([g.num_nodes(self.config) for g in self.population])
            ),
            mean_connections=float(
                np.mean([g.num_enabled_connections for g in self.population])
            ),
            population_size=len(self.population),
            extras=extras,
        )
        self.history.append(stats)
        self.reporters.on_generation(stats)
