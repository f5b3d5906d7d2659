"""Island-model NEAT over the fabric farm.

:class:`IslandModel` evolves ``K`` independent sub-populations
("islands") whose genomes are all evaluated together by one fabric
backend per generation, with seeded ring migration at fixed
generation barriers:

* each island gets its own :class:`~repro.neat.population.Population`
  with a derived seed (``sha256(f"{seed}|island|{i}")``) and a
  disjoint genome-key stride, so per-(genome, episode) evaluation
  seeds never collide across islands;
* at a barrier (``topology.migrates(gen)``) island ``i`` sends copies
  of its ``migration_size`` champions to island ``(i+1) % K``; every
  emigrant set is computed *before* any island admits, so the exchange
  is synchronous and order-independent;
* an edge whose source or destination island is homed on a dead device
  (or whose transfer draws a ``fabric.migration_corrupt`` fault) is
  **skipped and logged**, never blocked on — the run continues with
  the islands drifting until the device is re-admitted.

Migration admits draw nothing from any island's RNG stream (the admit
re-speciation is draw-free), so whether an edge was skipped changes
*which genes* spread but never perturbs an island's own evolution
randomness — the property the chaos determinism suite pins down.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace

from repro.core.backends import create_backend
from repro.envs.registry import make, spec
from repro.fabric.topology import FarmTopology
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.population import GenerationStats, Population
from repro.resilience.faults import ResilienceEvent, emit_event
from repro.telemetry import RunManifest, TelemetrySession
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import phase, span as _span

__all__ = ["IslandModel", "IslandRunResult", "KEY_STRIDE", "island_seed"]

#: genome-key stride between islands — far above any single island's
#: key consumption, so key spaces (and episode seeds) stay disjoint
KEY_STRIDE = 1 << 20


def island_seed(seed: int, island: int) -> int:
    """Derived per-island RNG seed (pure function of the run seed)."""
    payload = f"{seed}|island|{island}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class IslandRunResult:
    """Outcome of an :meth:`IslandModel.run` call."""

    env_name: str
    best_genome: Genome
    best_fitness: float
    best_island: int
    solved: bool
    generations: int
    neat_config: NEATConfig
    #: farm-wide per-generation aggregates (what reporters rendered)
    history: list[GenerationStats] = field(default_factory=list)
    #: per-island histories, index-aligned with the island ring
    island_histories: list[list[GenerationStats]] = field(
        default_factory=list
    )
    #: phase name -> wall-clock seconds over the whole farm (a copy of
    #: the table every island shares)
    phases: dict[str, float] = field(default_factory=dict)
    telemetry: TelemetrySession | None = None


class IslandModel:
    """K islands, one fabric farm, seeded generation-barrier migration."""

    def __init__(
        self,
        env_name: str,
        topology: FarmTopology,
        neat_config: NEATConfig | None = None,
        inax_config: INAXConfig | None = None,
        episodes_per_genome: int = 1,
        seed: int = 0,
        env_kwargs: dict | None = None,
        telemetry: TelemetrySession | None = None,
        fault_plan=None,
        fallback: str | None = None,
        supervisor=None,
        pipeline: PipelineConfig | None = None,
        health=None,
    ):
        """The total ``population_size`` splits across the islands
        (earlier islands take the remainder); every other knob matches
        :class:`~repro.core.platform.E3`."""
        env_spec = spec(env_name)
        env_kwargs = dict(env_kwargs or {})
        env = make(env_name, **env_kwargs)
        self.env_name = env_name
        self.topology = topology
        self.required_fitness = env_spec.required_fitness
        base = neat_config or NEATConfig()
        self.neat_config = replace(
            base,
            num_inputs=env.num_inputs,
            num_outputs=env.num_outputs,
            fitness_threshold=env_spec.required_fitness,
        )
        if self.neat_config.population_size < topology.islands:
            raise ValueError(
                f"population_size {self.neat_config.population_size} cannot "
                f"split across {topology.islands} islands"
            )
        self.seed = seed
        self.telemetry = telemetry
        #: one phase table shared by the farm's evaluate and every
        #: island's evolve phases, so it adds in the same order as the
        #: ``phase.*_seconds`` counters
        self.phases: dict[str, float] = {}
        self.health = health

        self.backend = create_backend(
            "fabric",
            env_name,
            self.neat_config,
            inax_config=inax_config,
            episodes_per_genome=episodes_per_genome,
            base_seed=seed,
            env_kwargs=env_kwargs,
            fallback=fallback,
            fault_plan=fault_plan,
            pipeline=pipeline,
            devices=topology.devices,
            supervisor=supervisor,
        )
        self.inax_config = self.backend.inax_config

        total = self.neat_config.population_size
        share, remainder = divmod(total, topology.islands)
        self.islands: list[Population] = []
        for index in range(topology.islands):
            size = share + (1 if index < remainder else 0)
            self.islands.append(
                Population(
                    replace(self.neat_config, population_size=size),
                    seed=island_seed(seed, index),
                    phases=self.phases,
                    key_offset=index * KEY_STRIDE,
                )
            )
        self.history: list[GenerationStats] = []
        #: migration-edge outcomes, cumulative over the run
        self.migrations = 0
        self.migrations_skipped = 0
        #: island-driver resilience events (migration skips)
        self.events: list[ResilienceEvent] = []
        # reporters on the aggregate feed go here; lazily imported like
        # Population does to avoid a module-load cycle
        from repro.neat.reporters import ReporterSet

        self.reporters = ReporterSet()

    # ------------------------------------------------------------- run
    def run(
        self,
        max_generations: int | None = None,
        fitness_threshold: float | None = None,
    ) -> IslandRunResult:
        """Evaluate all islands together, migrate at barriers, evolve."""
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
                session.manifest = RunManifest.collect(
                    command="islands.run",
                    env=self.env_name,
                    backend=self.backend.name,
                    population=self.neat_config.population_size,
                    generations=limit,
                    episodes_per_genome=self.backend.episodes_per_genome,
                    seed=self.seed,
                    schedule=self.backend.pipeline.schedule,
                    prefetch=self.backend.pipeline.prefetch,
                    devices=self.topology.devices,
                    islands=self.topology.islands,
                    migration_interval=self.topology.migration_interval,
                    migration_size=self.topology.migration_size,
                    supervisor=asdict(self.backend.supervisor_config),
                )
            session.install()
        solved = False
        try:
            for _ in range(limit):
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
                self.health.finalize()
            if session is not None:
                self._publish_telemetry(session)
                session.uninstall()
        best_island, best_genome = self._best()
        return IslandRunResult(
            env_name=self.env_name,
            best_genome=best_genome,
            best_fitness=float(best_genome.fitness or 0.0),
            best_island=best_island,
            solved=solved,
            generations=self.islands[0].generation,
            neat_config=self.neat_config,
            history=list(self.history),
            island_histories=[list(pop.history) for pop in self.islands],
            phases=dict(self.phases),
            telemetry=session,
        )

    def _advance(self) -> Genome:
        """One farm generation: evaluate, observe, migrate, evolve."""
        generation = self.islands[0].generation
        genomes = [g for pop in self.islands for g in pop.population]
        with phase(
            self.phases,
            "evaluate",
            generation=generation,
            population=len(genomes),
            islands=len(self.islands),
        ):
            self.backend.evaluate(genomes)

        bests = [pop.observe_evaluated() for pop in self.islands]
        self._record_aggregate(generation, bests)
        if self.topology.migrates(generation):
            self._migrate(generation)
        for pop in self.islands:
            pop.evolve()
        return max(
            bests, key=lambda g: g.fitness if g.fitness is not None else 0.0
        )

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
            pop.emigrants(self.topology.migration_size)
            for pop in self.islands
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
                    self.migrations_skipped += 1
                    self._event(
                        "fabric.migration_skip", site,
                        reason="device_down", islands=len(down),
                    )
                    continue
                if injector is not None and injector.migration_corrupted(
                    generation, source, target
                ):
                    # the injector recorded the corrupt draw in the
                    # plan's replay log; mirror the skip on our side
                    self.migrations_skipped += 1
                    self._event(
                        "fabric.migration_skip", site, reason="corrupt"
                    )
                    continue
                self.islands[target].admit(payloads[source])
                self.migrations += 1
        registry = get_metrics()
        if registry is not None:
            registry.gauge("fabric.migrations").set(float(self.migrations))
            registry.gauge("fabric.migrations_skipped").set(
                float(self.migrations_skipped)
            )

    def _event(self, kind: str, site: str, **details) -> None:
        event = ResilienceEvent(kind=kind, site=site, details=dict(details))
        self.events.append(event)
        emit_event(kind, site)

    def resilience_log(self) -> list[dict]:
        """Backend + island-driver events (replay-identity surface)."""
        events = self.backend.resilience_log()
        events.extend(event.to_dict() for event in self.events)
        return events

    # --------------------------------------------------------- reporting
    def _record_aggregate(
        self, generation: int, bests: list[Genome]
    ) -> None:
        """One farm-wide stats row over all islands (reporter feed)."""
        best = max(
            bests, key=lambda g: g.fitness if g.fitness is not None else 0.0
        )
        fitnesses = [
            g.fitness
            for pop in self.islands
            for g in pop.population
            if g.fitness is not None
        ]
        total = sum(len(pop.population) for pop in self.islands)
        extras = dict(self.backend.reporter_columns())
        extras["migrations"] = float(self.migrations)
        extras["migrations_skipped"] = float(self.migrations_skipped)
        stats = GenerationStats(
            generation=generation,
            best_fitness=float(best.fitness or 0.0),
            mean_fitness=(
                sum(fitnesses) / len(fitnesses) if fitnesses else 0.0
            ),
            num_species=sum(len(pop.species_set) for pop in self.islands),
            best_genome_key=best.key,
            mean_nodes=0.0,
            mean_connections=0.0,
            population_size=total,
            extras=extras,
        )
        self.history.append(stats)
        self.reporters.on_generation(stats)
        if self.health is not None:
            from repro.obs.monitor import build_sample

            self.health.observe(build_sample(stats, self.backend))

    def _best(self) -> tuple[int, Genome]:
        """(island index, champion) over the whole archipelago."""
        candidates = [
            (index, pop.best_genome)
            for index, pop in enumerate(self.islands)
            if pop.best_genome is not None
        ]
        if not candidates:
            raise RuntimeError("no generation completed; nothing evolved")
        index, genome = max(
            candidates,
            key=lambda pair: (
                pair[1].fitness if pair[1].fitness is not None else 0.0,
                -pair[0],
            ),
        )
        return index, genome

    def _publish_telemetry(self, session: TelemetrySession) -> None:
        """End-of-run farm statistics into the session registry: the
        backend's run gauges plus the migration counters."""
        registry = session.metrics
        self.backend.publish_run_gauges(registry)
        registry.gauge("fabric.migrations").set(float(self.migrations))
        registry.gauge("fabric.migrations_skipped").set(
            float(self.migrations_skipped)
        )
