"""The E3 platform (Eval-Evol-Engine, §IV-B).

``E3`` wires the pieces of Fig 5 together: a NEAT population ("evolve",
on the CPU), an evaluation backend ("evaluate", on the CPU or on the
INAX device), and an interactive environment (on the CPU).  One call to
:meth:`E3.run` executes the full closed loop of Fig 1(a) until the
task's required fitness is reached.

The same loop runs an island model over the ``fabric`` farm
(``docs/fabric.md``): ``K`` populations whose genomes share one
evaluate call per generation, with seeded ring migration at the
topology's generation barriers.  An edge whose endpoint island is homed
on a dead device, or whose transfer draws a ``fabric.migration_corrupt``
fault, is skipped and logged, never blocked on.  Admitting immigrants
draws nothing from any island's RNG stream, so a skipped edge changes
which genes spread, never an island's own evolution randomness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.core.backends import (
    EvaluationBackend,
    GenerationRecord,
    create_backend,
    default_inax_config,
)
from repro.envs.registry import make, spec
from repro.fabric.topology import KEY_STRIDE, FarmTopology, island_seed
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import GenerationStats, Population
from repro.neat.reporters import ReporterSet
from repro.resilience.faults import ResilienceEvent, emit_event
from repro.telemetry import RunManifest, TelemetrySession
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import phase, span as _span

__all__ = [
    "E3",
    "E3RunResult",
    "default_inax_config",
    "effective_neat_config",
]


def effective_neat_config(
    env_name: str, base: NEATConfig | None = None
) -> NEATConfig:
    """``base`` with the env's I/O dimensions and fitness threshold
    applied — the exact config :class:`E3` runs with.

    :class:`E3` builds its config here, and the serve layer's
    :class:`~repro.serve.pool.BackendPool` keys leased backends on the
    same call, so a pooled backend and the job that leases it agree on
    every decode-relevant field.
    """
    env_spec = spec(env_name)
    env = make(env_name)
    return replace(
        base or NEATConfig(),
        num_inputs=env.num_inputs,
        num_outputs=env.num_outputs,
        fitness_threshold=env_spec.required_fitness,
    )


@dataclass
class E3RunResult:
    """Everything a finished E3 run produced."""

    env_name: str
    backend_name: str
    best_genome: Genome
    best_fitness: float
    solved: bool
    generations: int
    neat_config: NEATConfig
    #: the rows the run handed its reporters, one per generation
    history: list[GenerationStats] = field(default_factory=list)
    records: list[GenerationRecord] = field(default_factory=list)
    #: phase name -> wall-clock seconds (a copy of the table every
    #: island adds to; equal to the run's ``phase.*`` spans and counters)
    phases: dict[str, float] = field(default_factory=dict)
    #: the run's telemetry session, when one was attached
    telemetry: TelemetrySession | None = None
    #: the island whose population holds :attr:`best_genome`
    best_island: int = 0

    def best_network(self) -> FeedForwardNetwork:
        """Decode the champion genome into an executable network."""
        return FeedForwardNetwork.create(self.best_genome, self.neat_config)


class E3:
    """The HW/SW co-designed autonomous-learning platform."""

    def __init__(
        self,
        env_name: str,
        backend: str | EvaluationBackend = "cpu",
        neat_config: NEATConfig | None = None,
        inax_config: INAXConfig | None = None,
        episodes_per_genome: int = 1,
        seed: int = 0,
        env_kwargs: dict | None = None,
        seed_genome=None,
        workers: int = 0,
        telemetry: TelemetrySession | None = None,
        fault_plan=None,
        fallback: str | None = None,
        supervisor=None,
        pipeline: PipelineConfig | None = None,
        health=None,
        topology: FarmTopology | None = None,
        population: Population | None = None,
    ):
        """A ``backend`` given by name is built by
        :func:`~repro.core.backends.create_backend`, which supplies the
        env's default INAX config when ``inax_config`` is None.

        ``env_kwargs`` override the environment's physics (the
        model-tuning plant perturbation); ``seed_genome`` warm-starts
        the population from a deployed champion (§I's model-tuning
        use-case — see ``examples/model_tuning.py``); ``workers``
        shards the ``cpu-compiled``/``cpu-fast`` evaluation across that
        many worker processes (ignored by the other backends); ``telemetry``
        attaches a :class:`~repro.telemetry.TelemetrySession` — it is
        installed for the duration of :meth:`run`, phase timings land
        in its trace and metrics registry, and the backend's cache/shard
        statistics are published into it at run end.

        The resilience knobs (see ``docs/resilience.md``): ``fault_plan``
        arms a seeded :class:`~repro.resilience.faults.FaultPlan` for
        chaos runs; ``fallback="cpu-fast"`` lets the ``inax`` backend
        degrade faulted waves to the software path;
        ``supervisor`` tunes the software shard watchdog *and* the
        fabric device supervisor — the shared
        :class:`~repro.resilience.supervisor.SupervisorConfig`.

        ``topology`` (a :class:`~repro.fabric.topology.FarmTopology`,
        one device and one island by default) sizes the ``fabric``
        backend's simulated INAX farm (``docs/fabric.md``; the other
        backends ignore ``devices``) and the island model.  With
        ``islands`` K > 1 the run needs the ``fabric`` backend: the
        ``population_size`` splits across K populations (earlier
        islands take the remainder), island ``i`` seeds from
        :func:`~repro.fabric.topology.island_seed` and numbers its
        genomes from ``i * KEY_STRIDE``, and champions migrate around
        the island ring at the topology's barriers.

        ``pipeline`` (a :class:`~repro.inax.pipeline.PipelineConfig`)
        selects the generation-pipelining policies: LPT wave packing
        and double-buffered DMA/decode prefetch — both default to the
        paper's sequential baseline and neither can change a fitness
        bit.  Each generation's cycle report is priced inside its
        evaluate phase.

        ``health`` attaches a :class:`~repro.obs.monitor.HealthMonitor`
        (the run-health watchtower, ``docs/observability.md``): it is
        wired in as one of :attr:`reporters` and probes this backend
        each generation; call ``health.write(path)`` after :meth:`run`
        for the ``health.json`` verdict.

        ``population`` adopts an existing :class:`Population` — a
        checkpoint restored by :func:`~repro.neat.checkpoint.
        load_checkpoint` (the resume path of ``repro resume`` and the
        serve layer) — as the run's one island instead of creating a
        fresh one; its config must match the environment's I/O
        dimensions, and ``neat_config``/``seed_genome`` are ignored in
        favor of the adopted population's own state.  ``seed`` still
        seeds the backend's per-episode draws, so a resume passes the
        original run's seed (``repro resume`` reads it from the
        checkpoint's :attr:`~repro.neat.population.Population.run_seed`)."""
        env_spec = spec(env_name)  # validates the name early
        env_kwargs = dict(env_kwargs or {})
        env = make(env_name, **env_kwargs)
        self.env_name = env_name
        self.required_fitness = env_spec.required_fitness
        self.topology = topology = topology or FarmTopology()
        count = topology.islands
        if count > 1:
            name = backend if isinstance(backend, str) else backend.name
            if name != "fabric":
                raise ValueError(
                    f"{count} islands need the fabric backend, not {name!r}"
                )
            if population is not None:
                raise ValueError("an adopted population is a single island")
        if population is not None:
            adopted = population.config
            if (
                adopted.num_inputs != env.num_inputs
                or adopted.num_outputs != env.num_outputs
            ):
                raise ValueError(
                    f"adopted population is {adopted.num_inputs}-in/"
                    f"{adopted.num_outputs}-out but {env_name!r} needs "
                    f"{env.num_inputs}-in/{env.num_outputs}-out"
                )
            self.neat_config = adopted
        else:
            self.neat_config = effective_neat_config(env_name, neat_config)
        if self.neat_config.population_size < count:
            raise ValueError(
                f"population_size {self.neat_config.population_size} cannot "
                f"split across {count} islands"
            )
        self.seed = seed
        self.telemetry = telemetry

        if isinstance(backend, EvaluationBackend):
            self.backend = backend
        else:
            self.backend = create_backend(
                backend,
                env_name,
                self.neat_config,
                episodes_per_genome=episodes_per_genome,
                base_seed=seed,
                inax_config=inax_config,
                env_kwargs=env_kwargs,
                fault_plan=fault_plan,
                pipeline=pipeline,
                workers=workers,
                supervisor=supervisor,
                fallback=fallback,
                devices=topology.devices,
            )
        self.inax_config = self.backend.inax_config

        if population is not None:
            self.islands = [population]
        else:
            # one phase table for the shared evaluate and every island's
            # evolve phases, so it adds in the order of the ``phase.*``
            # counters
            phases: dict[str, float] = {}
            share, remainder = divmod(self.neat_config.population_size, count)
            self.islands = [
                Population(
                    replace(
                        self.neat_config,
                        population_size=share + int(index < remainder),
                    ),
                    seed=seed if count == 1 else island_seed(seed, index),
                    phases=phases,
                    seed_genome=seed_genome,
                    key_offset=index * KEY_STRIDE,
                )
                for index in range(count)
            ]
        self.phases = self.islands[0].phases
        for island in self.islands:
            island.stat_sources.append(self.backend.reporter_columns)
        #: one row per generation (the island's own row for one island,
        #: pooled over the islands for K), as handed to :attr:`reporters`
        self.history: list[GenerationStats] = []
        self.reporters = ReporterSet()
        #: migration-edge outcomes, cumulative over the run
        self.migrations = 0
        self.migrations_skipped = 0
        self._events: list[ResilienceEvent] = []
        self.health = health
        if health is not None:
            health.attach(self, self.backend)

    @property
    def population(self) -> Population:
        """The run's population (a one-island run's only island)."""
        if len(self.islands) != 1:
            raise AttributeError(
                f"a {len(self.islands)}-island run has no single "
                "population; read E3.islands"
            )
        return self.islands[0]

    # ------------------------------------------------------------- run
    def run(
        self,
        max_generations: int | None = None,
        fitness_threshold: float | None = None,
        stop=None,
    ) -> E3RunResult:
        """Run evaluate/evolve until solved or out of generations.

        ``stop`` (a zero-arg callable returning bool) is checked at
        each generation boundary for cooperative cancellation (the
        serve layer passes the job's cancel flag): when it returns True
        the loop exits cleanly, with the population in a checkpointable
        state.  A never-evaluated run still runs one generation first,
        so the result always carries a real champion."""
        limit = (
            max_generations
            if max_generations is not None
            else self.neat_config.max_generations
        )
        threshold = (
            fitness_threshold
            if fitness_threshold is not None
            else self.neat_config.fitness_threshold
        )
        session = self.telemetry
        if session is not None:
            if session.manifest is None:
                supervisor_config = getattr(
                    self.backend, "supervisor_config", None
                )
                session.manifest = RunManifest.collect(
                    command="e3.run",
                    env=self.env_name,
                    backend=self.backend.name,
                    workers=getattr(self.backend, "workers", 0),
                    population=self.neat_config.population_size,
                    generations=max_generations or 0,
                    episodes_per_genome=self.backend.episodes_per_genome,
                    seed=self.seed,
                    schedule=self.backend.pipeline.schedule,
                    prefetch=self.backend.pipeline.prefetch,
                    devices=getattr(self.backend, "num_devices", 1),
                    islands=self.topology.islands,
                    migration_interval=self.topology.migration_interval,
                    migration_size=self.topology.migration_size,
                    supervisor=(
                        asdict(supervisor_config)
                        if supervisor_config is not None
                        else {}
                    ),
                )
            session.install()
        solved = False
        try:
            for _ in range(limit):
                if (
                    stop is not None
                    and self.islands[0].best_genome is not None
                    and stop()
                ):
                    break
                best = self._advance()
                if (
                    threshold is not None
                    and best.fitness is not None
                    and best.fitness >= threshold
                ):
                    solved = True
                    break
        finally:
            if self.health is not None:
                # before uninstall, so end-of-run detector events still
                # land in this session's trace
                self.health.finalize()
            if session is not None:
                self.backend.publish_run_gauges(session.metrics)
                if len(self.islands) > 1:
                    self._publish_migrations(session.metrics)
                session.uninstall()
        best_island, best_genome = self._champion()
        return E3RunResult(
            env_name=self.env_name,
            backend_name=self.backend.name,
            best_genome=best_genome,
            best_fitness=float(best_genome.fitness or 0.0),
            solved=solved,
            generations=self.islands[0].generation,
            neat_config=self.neat_config,
            history=list(self.history),
            records=list(self.backend.records),
            phases=dict(self.phases),
            telemetry=session,
            best_island=best_island,
        )

    def _advance(self) -> Genome:
        """One generation: evaluate, observe, report, migrate, evolve."""
        generation = self.islands[0].generation
        genomes = [g for island in self.islands for g in island.population]
        with phase(
            self.phases,
            "evaluate",
            generation=generation,
            population=len(genomes),
        ):
            self.backend.evaluate(genomes)

        bests = [island.observe_evaluated() for island in self.islands]
        stats = (
            self.islands[0].history[-1]
            if len(self.islands) == 1
            else self._pooled_stats(generation, genomes, bests)
        )
        self.history.append(stats)
        stats.publish()
        self.reporters.on_generation(stats)
        if self.topology.migrates(generation):
            self._migrate(generation)
        for island in self.islands:
            island.evolve()
        return max(bests, key=_score)

    def _pooled_stats(
        self, generation: int, genomes: list[Genome], bests: list[Genome]
    ) -> GenerationStats:
        """One stats row over every island's just-evaluated genomes."""
        best = max(bests, key=_score)
        fitnesses = [g.fitness for g in genomes if g.fitness is not None]
        extras = dict(self.islands[0].history[-1].extras)
        extras["migrations"] = float(self.migrations)
        extras["migrations_skipped"] = float(self.migrations_skipped)
        return GenerationStats(
            generation=generation,
            best_fitness=float(best.fitness or 0.0),
            mean_fitness=(
                sum(fitnesses) / len(fitnesses) if fitnesses else 0.0
            ),
            num_species=sum(len(pop.species_set) for pop in self.islands),
            best_genome_key=best.key,
            mean_nodes=float(
                np.mean([g.num_nodes(self.neat_config) for g in genomes])
            ),
            mean_connections=float(
                np.mean([g.num_enabled_connections for g in genomes])
            ),
            population_size=len(genomes),
            extras=extras,
        )

    def _champion(self) -> tuple[int, Genome]:
        """(island index, champion) over every island; the first island
        wins a fitness tie."""
        champions = [island.best_genome for island in self.islands]
        if champions[0] is None:
            raise RuntimeError("no generation completed; nothing evolved")
        index = max(range(len(champions)), key=lambda i: _score(champions[i]))
        return index, champions[index]

    # --------------------------------------------------------- migration
    def _migrate(self, generation: int) -> None:
        """One synchronous ring exchange; dead edges skip-and-log.

        All emigrant sets are drawn *before* any admit, so every edge
        sees the pre-migration champions regardless of ring order, and
        the exchange commutes.  An edge is healthy only when both its
        endpoint islands' home devices are alive and the transfer's
        ``fabric.migration_corrupt`` draw (when armed) stays quiet.
        """
        count = len(self.islands)
        alive = set(self.backend.fabric.alive())
        injector = self.backend.fabric.injector
        payloads = [
            island.emigrants(self.topology.migration_size)
            for island in self.islands
        ]
        with _span("fabric.migrate", generation=generation, edges=count):
            for source in range(count):
                target = (source + 1) % count
                site = f"gen={generation}|edge={source}->{target}"
                down = [
                    island
                    for island in (source, target)
                    if self.topology.island_device(island) not in alive
                ]
                if down:
                    self._skip(site, reason="device_down", islands=len(down))
                    continue
                if injector is not None and injector.migration_corrupted(
                    generation, source, target
                ):
                    # the injector recorded the corrupt draw in the
                    # plan's replay log; mirror the skip on our side
                    self._skip(site, reason="corrupt")
                    continue
                self.islands[target].admit(payloads[source])
                self.migrations += 1
        registry = get_metrics()
        if registry is not None:
            self._publish_migrations(registry)

    def _skip(self, site: str, **details) -> None:
        """Log one skipped migration edge."""
        self.migrations_skipped += 1
        event = ResilienceEvent(
            kind="fabric.migration_skip", site=site, details=details
        )
        self._events.append(event)
        emit_event(event.kind, site)

    def _publish_migrations(self, registry) -> None:
        registry.gauge("fabric.migrations").set(float(self.migrations))
        registry.gauge("fabric.migrations_skipped").set(
            float(self.migrations_skipped)
        )

    def resilience_log(self) -> list[dict]:
        """Backend + migration events (the replay-identity surface)."""
        events = self.backend.resilience_log()
        events.extend(event.to_dict() for event in self._events)
        return events


def _score(genome: Genome) -> float:
    """A genome's fitness for ranking, an unset one as 0 (``max`` keeps
    the first of equal scores)."""
    return genome.fitness if genome.fitness is not None else 0.0


# bottom import, deliberately: registering the fabric backend pulls in
# repro.fabric, which itself imports repro.core submodules — importing
# it after this module's definitions keeps the cycle harmless whichever
# package is imported first
import repro.fabric.backend  # noqa: E402,F401  (registers BACKENDS["fabric"])
