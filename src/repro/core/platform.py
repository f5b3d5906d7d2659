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
    BACKENDS,
    CompiledCPUBackend,
    EvaluationBackend,
    GenerationRecord,
)
from repro.core.profiler import PhaseProfiler
from repro.envs.registry import make, spec
from repro.inax.accelerator import INAXConfig
from repro.inax.heuristics import choose_num_pes
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import GenerationStats, Population
from repro.telemetry import RunManifest, TelemetrySession
from repro.telemetry.metrics import TeeRecorder

__all__ = [
    "E3",
    "E3RunResult",
    "default_inax_config",
    "effective_neat_config",
]


def default_inax_config(num_outputs: int, num_pus: int = 50) -> INAXConfig:
    """The paper's §VI-C configuration: PU=50, PE=#output nodes."""
    return INAXConfig(
        num_pus=num_pus, num_pes_per_pu=choose_num_pes(num_outputs)
    )


def effective_neat_config(
    env_name: str, base: NEATConfig | None = None
) -> NEATConfig:
    """``base`` with the env's I/O dimensions and fitness threshold
    applied — the exact config :class:`E3` runs with.

    Factored out so the serve layer's :class:`~repro.serve.pool.
    BackendPool` can key leased backends on the *same* config E3 will
    use, guaranteeing a pooled backend and the job that leases it agree
    on every decode-relevant field.
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
    profiler: PhaseProfiler = field(default_factory=PhaseProfiler)
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
        """``env_kwargs`` override the environment's physics (the
        model-tuning plant perturbation); ``seed_genome`` warm-starts
        the population from a deployed champion (§I's model-tuning
        use-case — see ``examples/model_tuning.py``); ``workers``
        shards the ``cpu-compiled``/``cpu-fast`` evaluation across that
        many worker processes (ignored by the other backends); ``telemetry``
        attaches a :class:`~repro.telemetry.TelemetrySession` — it is
        installed for the duration of :meth:`run`, phase timings tee
        into its metrics registry, and the backend's cache/shard
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
        selects the generation-pipelining policies: LPT wave packing,
        double-buffered DMA/decode prefetch, and evolve/evaluate
        overlap — all default to the paper's sequential baseline and
        none of them can change a fitness bit.

        ``health`` attaches a :class:`~repro.obs.monitor.HealthMonitor`
        (the run-health watchtower, ``docs/observability.md``): it is
        wired in as a population reporter and probes this backend each
        generation; call ``health.write(path)`` after :meth:`run` for
        the ``health.json`` verdict.

        ``population`` adopts an existing :class:`Population` — a
        checkpoint restored by :func:`~repro.neat.checkpoint.
        load_checkpoint` (the serve layer's resume path) — instead of
        creating a fresh one; its config must match the environment's
        I/O dimensions, and ``neat_config``/``seed``/``seed_genome``
        are ignored in favor of the adopted population's own state."""
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
            base = neat_config or NEATConfig()
            self.neat_config = replace(
                base,
                num_inputs=env.num_inputs,
                num_outputs=env.num_outputs,
                fitness_threshold=env_spec.required_fitness,
            )
        if inax_config is None:
            inax_config = default_inax_config(env.num_outputs)
        self.inax_config = inax_config
        self.profiler = PhaseProfiler()
        self.seed = seed
        self.telemetry = telemetry

        if isinstance(backend, EvaluationBackend):
            self.backend = backend
        elif backend in BACKENDS:
            backend_cls = BACKENDS[backend]
            kwargs = dict(
                episodes_per_genome=episodes_per_genome,
                base_seed=seed,
                inax_config=inax_config,
                env_kwargs=env_kwargs,
                fault_plan=fault_plan,
                pipeline=pipeline,
            )
            if issubclass(backend_cls, CompiledCPUBackend):
                kwargs["workers"] = workers
                if supervisor is not None:
                    kwargs["supervisor"] = supervisor
            if backend in ("inax", "fabric"):
                kwargs["fallback"] = fallback
            if backend == "fabric":
                kwargs["devices"] = devices
                if supervisor is not None:
                    kwargs["supervisor"] = supervisor
            self.backend = backend_cls(env_name, self.neat_config, **kwargs)
        else:
            names = ", ".join(repr(n) for n in sorted(BACKENDS))
            raise ValueError(
                f"unknown backend {backend!r}; use one of {names} "
                "or an EvaluationBackend instance"
            )
        recorder = (
            self.profiler
            if telemetry is None
            else TeeRecorder(self.profiler, telemetry.phase_timer)
        )
        if population is not None:
            population.profiler = recorder
            self.population = population
        else:
            self.population = Population(
                self.neat_config,
                seed=seed,
                profiler=recorder,
                seed_genome=seed_genome,
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
                    devices=getattr(self.backend, "num_devices", 1),
                    supervisor=(
                        asdict(supervisor_config)
                        if supervisor_config is not None
                        else {}
                    ),
                )
            session.install()
        backend_pipeline = getattr(self.backend, "pipeline", None)
        drain = (
            self.backend.drain
            if backend_pipeline is not None and backend_pipeline.overlap
            else None
        )
        try:
            result = self.population.run(
                self.backend.evaluate,
                max_generations=max_generations,
                fitness_threshold=fitness_threshold,
                drain=drain,
                stop=stop,
            )
        finally:
            if self.health is not None:
                # before uninstall, so end-of-run detector events still
                # land in this session's trace
                self.health.finalize()
            if session is not None:
                self._publish_backend_telemetry(session)
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
            profiler=self.profiler,
            telemetry=session,
        )

    def _publish_backend_telemetry(self, session: TelemetrySession) -> None:
        """Publish end-of-run backend statistics into the session."""
        registry = session.metrics
        backend = self.backend
        if hasattr(backend, "compile_cache_info"):
            info = backend.compile_cache_info()
            registry.gauge("compile.cache.hits").set(info["hits"])
            registry.gauge("compile.cache.misses").set(info["misses"])
            registry.gauge("compile.cache.size").set(info["size"])
        if getattr(backend, "oversize_count", 0):
            registry.gauge("inax.oversize_genomes").set(backend.oversize_count)
        if getattr(backend, "quarantine_count", 0):
            registry.gauge("resilience.quarantined_genomes").set(
                backend.quarantine_count
            )
        if getattr(backend, "fallback_waves", 0):
            registry.gauge("inax.fallback_waves").set(backend.fallback_waves)
        fabric = getattr(backend, "fabric", None)
        if fabric is not None:
            for name, value in fabric.counters().items():
                registry.gauge(f"fabric.{name}").set(value)


# bottom import, deliberately: registering the fabric backend pulls in
# repro.fabric, which itself imports repro.core submodules — importing
# it after this module's definitions keeps the cycle harmless whichever
# package is imported first
import repro.fabric.backend  # noqa: E402,F401  (registers BACKENDS["fabric"])
