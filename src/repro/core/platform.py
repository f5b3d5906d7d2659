"""The E3 platform (Eval-Evol-Engine, §IV-B).

``E3`` wires the pieces of Fig 5 together: a NEAT population ("evolve",
on the CPU), an evaluation backend ("evaluate", on the CPU or on the
INAX device), and an interactive environment (on the CPU).  One call to
:meth:`E3.run` executes the full closed loop of Fig 1(a) until the
task's required fitness is reached.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.core.backends import (
    EvaluationBackend,
    GenerationRecord,
    create_backend,
    default_inax_config,
)
from repro.envs.registry import make, spec
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import GenerationStats, Population
from repro.telemetry import RunManifest, TelemetrySession

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
    history: list[GenerationStats] = field(default_factory=list)
    records: list[GenerationRecord] = field(default_factory=list)
    #: phase name -> wall-clock seconds (a copy of the population's
    #: table; equal to the run's ``phase.*`` spans and counters)
    phases: dict[str, float] = field(default_factory=dict)
    #: the run's telemetry session, when one was attached
    telemetry: TelemetrySession | None = None

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
        devices: int = 1,
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
        chaos runs; ``fallback`` (``"cpu-fast"`` or ``"cpu"``) lets the
        ``inax`` backend degrade faulted waves to the software path;
        ``supervisor`` tunes the software shard watchdog *and* the
        fabric device supervisor — the shared
        :class:`~repro.resilience.supervisor.SupervisorConfig`.

        ``devices`` sizes the ``fabric`` backend's simulated INAX farm
        (``docs/fabric.md``); the other backends ignore it.

        ``pipeline`` (a :class:`~repro.inax.pipeline.PipelineConfig`)
        selects the generation-pipelining policies: LPT wave packing
        and double-buffered DMA/decode prefetch — both default to the
        paper's sequential baseline and neither can change a fitness
        bit.  Each generation's cycle report is priced inside its
        evaluate phase.

        ``health`` attaches a :class:`~repro.obs.monitor.HealthMonitor`
        (the run-health watchtower, ``docs/observability.md``): it is
        wired in as a population reporter and probes this backend each
        generation; call ``health.write(path)`` after :meth:`run` for
        the ``health.json`` verdict.

        ``population`` adopts an existing :class:`Population` — a
        checkpoint restored by :func:`~repro.neat.checkpoint.
        load_checkpoint` (the resume path of ``repro resume`` and the
        serve layer) — instead of creating a fresh one; its config must
        match the environment's I/O dimensions, and ``neat_config``/
        ``seed_genome`` are ignored in favor of the adopted population's
        own state.  ``seed`` still seeds the backend's per-episode
        draws, so a resume passes the original run's seed (``repro
        resume`` reads it from the checkpoint's
        :attr:`~repro.neat.population.Population.run_seed`)."""
        env_spec = spec(env_name)  # validates the name early
        env_kwargs = dict(env_kwargs or {})
        env = make(env_name, **env_kwargs)
        self.env_name = env_name
        self.required_fitness = env_spec.required_fitness
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
                devices=devices,
            )
        self.inax_config = self.backend.inax_config
        if population is not None:
            self.population = population
        else:
            self.population = Population(
                self.neat_config, seed=seed, seed_genome=seed_genome
            )
        if hasattr(self.backend, "reporter_columns"):
            self.population.stat_sources.append(self.backend.reporter_columns)
        self.health = health
        if health is not None:
            health.attach(self.population, self.backend)

    # ------------------------------------------------------------- run
    def run(
        self,
        max_generations: int | None = None,
        fitness_threshold: float | None = None,
        stop=None,
    ) -> E3RunResult:
        """Run evaluate/evolve until solved or out of generations.

        ``stop`` (a zero-arg callable returning bool) is checked at
        each generation boundary for cooperative cancellation — see
        :meth:`Population.run`."""
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
                    supervisor=(
                        asdict(supervisor_config)
                        if supervisor_config is not None
                        else {}
                    ),
                )
            session.install()
        try:
            result = self.population.run(
                self.backend.evaluate,
                max_generations=max_generations,
                fitness_threshold=fitness_threshold,
                stop=stop,
            )
        finally:
            if self.health is not None:
                # before uninstall, so end-of-run detector events still
                # land in this session's trace
                self.health.finalize()
            if session is not None:
                self.backend.publish_run_gauges(session.metrics)
                session.uninstall()
        return E3RunResult(
            env_name=self.env_name,
            backend_name=self.backend.name,
            best_genome=result.best_genome,
            best_fitness=float(result.best_genome.fitness or 0.0),
            solved=result.solved,
            generations=result.generations,
            neat_config=self.neat_config,
            history=result.history,
            records=list(self.backend.records),
            phases=dict(self.population.phases),
            telemetry=session,
        )


# bottom import, deliberately: registering the fabric backend pulls in
# repro.fabric, which itself imports repro.core submodules — importing
# it after this module's definitions keeps the cycle harmless whichever
# package is imported first
import repro.fabric.backend  # noqa: E402,F401  (registers BACKENDS["fabric"])
