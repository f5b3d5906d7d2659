"""Evaluation backends: where the "evaluate" phase actually runs.

The E3 platform (Fig 5) keeps "evolve" on the CPU and chooses where to
run "evaluate":

* :class:`CPUBackend` — the SW-only baseline (E3-CPU): decode each
  genome and run its episodes with the interpreted per-node forward
  pass;
* :class:`CompiledCPUBackend` — the production software path
  (``cpu-compiled``, also registered as ``cpu-fast``): compile each
  topology **once** into a cross-generation shape-keyed cache, run the
  whole population's episodes in lock-step through one
  :class:`~repro.compile.CompiledPopulationEvaluator`, and optionally
  shard the population across a ``multiprocessing`` pool.  Fitness
  trajectories are bit-identical to :class:`CPUBackend`;
* :class:`INAXBackend` — the co-designed path (E3-INAX): compile each
  genome to a HW configuration, dispatch the population in waves to the
  functional INAX device, and drive the closed CPU<->FPGA loop until
  every individual's episode terminates.

All backends drive episodes through the shared rollout machinery
(:func:`repro.envs.rollout.run_episode` for sequential evaluation,
:func:`repro.envs.rollout.run_lockstep` for wave evaluation) and
evaluate under the same per-(genome, episode) seeds, so a NEAT run's
fitness trajectory is identical regardless of backend — the property
the integration tests pin down.

Every backend also records the generation's *workload* (for the
CPU/GPU cost models) and, when an INAX configuration is attached, the
analytic cycle report (for E3-INAX pricing) — this is what the Fig 9/10
benchmark harnesses consume.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import time
from dataclasses import dataclass

from repro.compile import CompileCache, CompiledPopulationEvaluator
from repro.envs.base import Environment
from repro.envs.registry import make
from repro.envs.rollout import run_episode, run_lockstep
from repro.hw.workload import GenerationWorkload, IndividualWork
from repro.inax.accelerator import INAX, INAXConfig, schedule_generation
from repro.inax.compiler import HWNetConfig, compile_genome
from repro.inax.pipeline import PipelineConfig, pack_waves, predict_costs
from repro.inax.pu import BufferOverflowError
from repro.inax.timing import CycleReport
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork
from repro.resilience.faults import (
    DeviceFault,
    FaultPlan,
    ResilienceEvent,
    emit_event,
    maybe_fail_worker,
)
from repro.resilience.injectors import (
    DeviceFaultInjector,
    has_device_faults,
    wrap_env,
)
from repro.resilience.quarantine import DEFAULT_PENALTY, quarantine_nonfinite
from repro.resilience.supervisor import ShardSupervisor, SupervisorConfig
from repro.telemetry.metrics import get_metrics
from repro.telemetry.spans import span as _span

__all__ = [
    "GenerationRecord",
    "EvaluationBackend",
    "CPUBackend",
    "CompiledCPUBackend",
    "FastCPUBackend",
    "GPUBackend",
    "INAXBackend",
    "BACKENDS",
]


@dataclass
class GenerationRecord:
    """Everything recorded while evaluating one generation."""

    workload: GenerationWorkload
    #: compiled individuals, aligned with workload.individuals
    configs: list[HWNetConfig]
    episode_lengths: list[int]
    #: analytic INAX cycles (filled when an INAX config is attached;
    #: with evolve/evaluate overlap the fill is deferred until the
    #: backend's :meth:`EvaluationBackend.drain` runs)
    cycle_report: CycleReport | None = None
    #: the per-individual cost predictions the wave packer used
    #: (``schedule="lpt"`` only), so the dispatch can be replayed
    predicted_costs: list[float | None] | None = None


class EvaluationBackend:
    """Base backend: owns env construction, seeding, and recording."""

    name = "backend"

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int = 1,
        base_seed: int = 0,
        inax_config: INAXConfig | None = None,
        env_kwargs: dict | None = None,
        fault_plan: FaultPlan | None = None,
        quarantine_penalty: float = DEFAULT_PENALTY,
        pipeline: PipelineConfig | None = None,
    ):
        self.env_name = env_name
        self.neat_config = neat_config
        self.episodes_per_genome = episodes_per_genome
        self.base_seed = base_seed
        self.inax_config = inax_config
        self.env_kwargs = dict(env_kwargs or {})
        #: armed chaos faults (None = clean run, zero injection overhead)
        self.fault_plan = fault_plan
        #: sentinel fitness for genomes whose evaluation went non-finite
        self.quarantine_penalty = quarantine_penalty
        self.quarantine_count = 0
        #: backend-level resilience events (quarantine, fallback, oversize)
        self.resilience_events: list[ResilienceEvent] = []
        self.records: list[GenerationRecord] = []
        self._generation = 0
        #: pipelining policies (wave packing / prefetch / overlap)
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        #: genome key -> total episode steps at its last evaluation (the
        #: LPT packer's cost predictor)
        self._last_lengths: dict[int, int] = {}
        #: deferred per-generation bookkeeping (see :meth:`drain`)
        self._pending_drain: list = []

    # ------------------------------------------------------------ hooks
    def evaluate(self, genomes: list[Genome]) -> None:
        """Set ``fitness`` on every genome; record the workload.

        Wraps the backend-specific :meth:`_evaluate` in a telemetry
        span so every backend's generation shows up on the trace
        timeline with the same name and attributes.  After evaluation,
        genomes whose fitness came back NaN/inf (faulty sensor, corrupt
        buffer) are quarantined to :attr:`quarantine_penalty` so they
        cannot poison selection.
        """
        generation = self._generation
        with _span(
            "backend.evaluate",
            backend=self.name,
            generation=generation,
            genomes=len(genomes),
        ):
            self._evaluate(genomes)
            nonfinite = [
                g.key
                for g in genomes
                if g.fitness is not None and not math.isfinite(g.fitness)
            ]
            quarantined = quarantine_nonfinite(
                genomes,
                penalty=self.quarantine_penalty,
                site_prefix=f"gen={generation}|",
            )
            if quarantined:
                self.quarantine_count += len(quarantined)
                self.resilience_events.extend(quarantined)
                # a quarantined genome's episode ran under fault
                # conditions (NaN rewards end episodes at whatever step
                # the fault fired), so its recorded length would poison
                # the LPT cost prediction for its key next generation;
                # dropping it falls back to arrival-order placement
                for key in nonfinite:
                    self._last_lengths.pop(key, None)
        if not self.pipeline.overlap:
            self.drain()

    def _evaluate(self, genomes: list[Genome]) -> None:
        raise NotImplementedError

    def warm_caches(self, genomes: list[Genome]) -> int:
        """Pre-populate structural caches from ``genomes`` (resume path).

        ``load_checkpoint`` restores the population but no cache state;
        without warming, the first post-resume generation silently
        re-compiles everything.  Returns how many cache entries were
        built; backends without structural caches warm nothing.
        """
        return 0

    def drain(self) -> None:
        """Run the generation's deferred bookkeeping (idempotent).

        Every fitness is already set *synchronously* by
        :meth:`evaluate` — reproduction needs them all — so what the
        evolve/evaluate overlap actually hides is this drain: the
        analytic :func:`schedule_generation` pricing of the generation
        record.  It touches no RNG, no genomes, and no telemetry
        tracer, so running it on a background thread while
        ``Population`` evolves cannot change a bit of the run.  With
        ``pipeline.overlap`` off, :meth:`evaluate` drains inline and
        behavior is exactly the pre-pipeline sequential loop.
        """
        pending, self._pending_drain = self._pending_drain, []
        for task in pending:
            task()

    def close(self) -> None:
        """Release any resources (worker pools, devices). Idempotent."""

    def reset_run_state(self, base_seed: int | None = None) -> None:
        """Clear per-run accumulators so the instance can host a new run.

        The serve-layer :class:`~repro.serve.pool.BackendPool` leases
        backends across jobs; this resets everything a run accumulates
        — generation records, the generation counter, LPT cost history,
        quarantine/resilience accounting — while deliberately keeping
        the *structural* caches (compiled shapes, live worker pools).
        Those are keyed purely on genome content and cannot change
        fitness bits, so a reused backend is bit-identical to a fresh
        one but skips cold-start compile and pool-spawn costs.
        ``base_seed`` rebinds the run seed (it feeds every per-episode
        seed draw) when the next job differs.
        """
        self.records = []
        self._generation = 0
        self._last_lengths = {}
        self._pending_drain = []
        self.quarantine_count = 0
        self.resilience_events = []
        if base_seed is not None:
            self.base_seed = base_seed

    # ---------------------------------------------------------- helpers
    def _episode_seed(self, genome: Genome, episode: int) -> int:
        """Deterministic per (run, genome, episode); independent of backend.

        The (base_seed, genome key, episode) triple is hashed through
        SHA-256 and truncated to 63 bits, so distinct triples get
        distinct, well-mixed seeds (the old ``key * 31 + episode``
        scheme collided for adjacent keys as soon as
        ``episodes_per_genome`` exceeded 31).
        """
        payload = f"{self.base_seed}|{genome.key}|{episode}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "little") >> 1

    def _make_env(self) -> Environment:
        env = make(self.env_name, **self.env_kwargs)
        # env-level faults apply identically on every backend (and inside
        # shard workers): FaultySensor keys its draws off the episode
        # seed, so sharding/fallback cannot change what fires
        return wrap_env(env, self.fault_plan)

    def _event(self, kind: str, site: str, **details) -> ResilienceEvent:
        """Record one backend-level resilience event (+ telemetry)."""
        event = ResilienceEvent(kind=kind, site=site, details=dict(details))
        self.resilience_events.append(event)
        emit_event(kind, site)
        return event

    def reporter_columns(self) -> dict[str, float]:
        """Cumulative per-generation extras for reporters (see
        :attr:`repro.neat.population.Population.stat_sources`)."""
        return {"quarantined": float(self.quarantine_count)}

    def resilience_log(self) -> list[dict]:
        """Backend + fault-plan events as comparable dicts (replay tests)."""
        events = [event.to_dict() for event in self.resilience_events]
        if self.fault_plan is not None:
            events.extend(self.fault_plan.event_log())
        return events

    def _predict_costs(
        self, configs: list[HWNetConfig], keys: list[int]
    ) -> list[float | None] | None:
        """LPT cost predictions from last-generation lengths (or None)."""
        if self.pipeline.schedule != "lpt" or self.inax_config is None:
            return None
        hw = self.inax_config
        return predict_costs(
            configs,
            keys,
            self._last_lengths,
            hw.num_pes_per_pu,
            hw.pe_costs,
            hw.pu_costs,
        )

    def _record(
        self,
        configs: list[HWNetConfig],
        episode_lengths: list[int],
        keys: list[int] | None = None,
        predicted_costs: list[float | None] | None = None,
        analytic: bool = True,
    ) -> GenerationRecord:
        """Record the generation; analytic pricing may be deferred.

        ``keys`` (genome keys aligned with ``configs``) feed the LPT
        cost predictor for the *next* generation.  ``analytic=False``
        skips the closed-form :func:`schedule_generation` — the INAX
        backend supersedes it with the functional device's own report,
        so pricing the generation twice would be pure waste.
        """
        if predicted_costs is None and analytic:
            # software backends model the dispatch the device would run;
            # predictions must come from *pre-update* history, exactly
            # like the device packs before evaluating
            predicted_costs = (
                self._predict_costs(configs, keys) if keys else None
            )
        workload = GenerationWorkload(
            individuals=[
                IndividualWork.from_config(cfg, steps)
                for cfg, steps in zip(configs, episode_lengths)
            ]
        )
        record = GenerationRecord(
            workload=workload,
            configs=configs,
            episode_lengths=episode_lengths,
            cycle_report=None,
            predicted_costs=predicted_costs,
        )
        if analytic and self.inax_config is not None:
            inax_config = self.inax_config
            pipeline = self.pipeline

            def price() -> None:
                record.cycle_report = schedule_generation(
                    inax_config,
                    configs,
                    episode_lengths,
                    pipeline=pipeline,
                    predicted_costs=predicted_costs,
                )

            self._pending_drain.append(price)
        if keys is not None:
            for key, steps in zip(keys, episode_lengths):
                self._last_lengths[key] = steps
        self.records.append(record)
        self._generation += 1
        return record


class CPUBackend(EvaluationBackend):
    """SW-only evaluation: the E3-CPU baseline.

    Episodes run through the shared :func:`run_episode` driver with the
    interpreted per-node forward pass — deliberately the slow reference
    path the paper profiles in Fig 1(b).
    """

    name = "cpu"

    def _evaluate(self, genomes: list[Genome]) -> None:
        configs: list[HWNetConfig] = []
        lengths: list[int] = []
        for genome in genomes:
            net = FeedForwardNetwork.create(genome, self.neat_config)
            configs.append(compile_genome(genome, self.neat_config))
            total_reward = 0.0
            total_steps = 0
            for episode in range(self.episodes_per_genome):
                record = run_episode(
                    self._make_env(),
                    net,
                    seed=self._episode_seed(genome, episode),
                )
                total_reward += record.total_reward
                total_steps += record.steps
            genome.fitness = total_reward / self.episodes_per_genome
            lengths.append(total_steps)
        self._record(configs, lengths, keys=[g.key for g in genomes])


class GPUBackend(CPUBackend):
    """The E3-GPU reference setting (§VI-A).

    Functionally identical to the CPU backend — a GPU computes the same
    forward passes, just (per the paper) *slower* for this workload —
    so evaluation reuses the software path while the platform pricing
    (:class:`repro.hw.gpu_model.GPUModel`) charges GPU rates.  Exists so
    all three of the paper's settings are addressable as backends.
    """

    name = "gpu"


# ------------------------------------------------------------------ pool
class _WorkerState:
    """One worker process's state for the compiled backend's shards.

    Bundles the worker-local backend with the cumulative compile-cache
    counters it has already reported, so each shard result ships a
    *delta* the parent can sum regardless of which worker the shard
    landed on.  The whole object is rebuilt by
    :func:`_fastcpu_worker_init` every time a pool (re)initializes its
    workers — counters can never leak between successive or concurrent
    runs in one process the way the former module-level dicts did.
    """

    __slots__ = ("backend", "reported_compile")

    def __init__(self, backend: "CompiledCPUBackend") -> None:
        self.backend = backend
        self.reported_compile = {"hits": 0, "misses": 0}


# per-process handle, set only inside pool worker processes by the pool
# initializer; replaced wholesale on every pool (re)spawn
_WORKER_STATE: _WorkerState | None = None


def _shard_slot(site: str) -> str:
    """The stable shard slot (``shard=N``) in a payload site.

    Attempt indices change across retries but the slot does not, so a
    retried shard's size report *replaces* its predecessor instead of
    accumulating.  Siteless legacy payloads share the anonymous slot.
    """
    for part in site.split("|"):
        if part.startswith("shard="):
            return part
    return ""


def _fastcpu_worker_init(
    env_name: str,
    neat_config: NEATConfig,
    episodes_per_genome: int,
    base_seed: int,
    env_kwargs: dict,
    cache_size: int,
    fault_plan: FaultPlan | None = None,
    backend_cls: "type[CompiledCPUBackend] | None" = None,
) -> None:
    global _WORKER_STATE
    # workers run the parent's own class, minus sharding — classes
    # pickle by reference
    cls = backend_cls if backend_cls is not None else CompiledCPUBackend
    _WORKER_STATE = _WorkerState(
        cls(
            env_name,
            neat_config,
            episodes_per_genome=episodes_per_genome,
            base_seed=base_seed,
            env_kwargs=env_kwargs,
            workers=0,
            cache_size=cache_size,
            fault_plan=fault_plan,
        )
    )


def _fastcpu_worker_evaluate(
    task: tuple[list[Genome], bool, str],
) -> tuple[list[tuple[int, float, int]], dict]:
    """Evaluate one shard; returns (per-genome rows, shard telemetry).

    The telemetry payload carries the worker-side wall seconds, the
    compile-cache activity since the worker's last report, and — when
    the parent has a metrics registry installed — a fresh worker-side
    registry snapshot (episode-step and wave-size histograms), so
    sharded evaluation no longer discards worker-side telemetry.

    ``task`` also carries the shard's fault site
    (``gen=G|shard=I|attempt=A``): any armed ``worker.*`` fault fires
    here, *before* evaluation — the attempt index is part of the draw,
    so a supervised retry of a crashed shard gets a fresh chance.
    """
    genomes, want_metrics, fault_site = task
    state = _WORKER_STATE
    assert state is not None, "worker pool not initialized"
    backend = state.backend
    maybe_fail_worker(backend.fault_plan, fault_site)
    from repro.telemetry.metrics import MetricsRegistry, set_metrics

    registry = MetricsRegistry() if want_metrics else None
    previous = set_metrics(registry) if want_metrics else None
    t0 = time.perf_counter()
    try:
        fitnesses, lengths = backend._fitness_for(genomes)
    finally:
        if want_metrics:
            set_metrics(previous)
    seconds = time.perf_counter() - t0
    info = backend.compile_cache_info()
    reported = state.reported_compile
    telemetry = {
        # the shard's unique site (gen=G|shard=I|attempt=A) rides along
        # so the parent can merge each payload exactly once even if a
        # supervisor retry path ever hands the same result back twice
        "site": fault_site,
        "phase_seconds": {"evaluate": seconds},
        "compile_delta": {
            "hits": info["hits"] - reported["hits"],
            "misses": info["misses"] - reported["misses"],
        },
        "compile_size": info["size"],
        "genomes": len(genomes),
        "metrics": registry.snapshot() if registry is not None else None,
    }
    reported["hits"] = info["hits"]
    reported["misses"] = info["misses"]
    rows = [
        (genome.key, fitness, length)
        for genome, fitness, length in zip(genomes, fitnesses, lengths)
    ]
    return rows, telemetry


class CompiledCPUBackend(CPUBackend):
    """Compiled + sharded software evaluation (``cpu-compiled``).

    The production software path.  Three optimizations over
    :class:`CPUBackend`, none of which change a single bit of any
    fitness value:

    1. **Structural batching** — genomes bucket by the weights-excluded
       :meth:`Genome.shape_key`, and each shape compiles **once** into a
       :class:`~repro.compile.CompiledStructure` held in a
       cross-generation :class:`~repro.compile.CompileCache`, so the
       weight-mutated bulk of a steady-state generation compiles
       nothing.
    2. **Lock-step inference** — a generation's members become stacked
       weight/bias tensors over the shared plans
       (:class:`~repro.compile.CompiledPopulationEvaluator`), and all
       episodes advance together, so an env tick's forward passes cost
       a handful of NumPy ops instead of a Python per-node loop per
       individual.
    3. **Sharding** — with ``workers > 1`` the population splits across
       a supervised ``multiprocessing`` pool.  Per-(genome, episode)
       seeding makes shard placement irrelevant to results.

    The engine accumulates in the interpreted path's term order with
    the same activation kernels, and the HW configs lower through the
    shapes' fill recipes to exactly what :func:`compile_genome`
    produces, so fitness trajectories and workload records are
    bit-identical to ``cpu``.  Non-vectorizable shapes (exotic
    aggregations) fall back to the interpreted :func:`run_episode`
    path, which produces the same bits by construction.
    """

    name = "cpu-compiled"

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int = 1,
        base_seed: int = 0,
        inax_config: INAXConfig | None = None,
        env_kwargs: dict | None = None,
        workers: int = 0,
        cache_size: int = 512,
        fault_plan: FaultPlan | None = None,
        quarantine_penalty: float = DEFAULT_PENALTY,
        supervisor: SupervisorConfig | None = None,
        pipeline: PipelineConfig | None = None,
    ):
        """``workers`` > 1 shards evaluation across that many worker
        processes; 0 or 1 evaluates in-process.  ``cache_size`` bounds
        the shape-keyed compile cache.  ``supervisor`` tunes the shard
        watchdog/retry policy (a default :class:`SupervisorConfig` is
        used when omitted)."""
        super().__init__(
            env_name,
            neat_config,
            episodes_per_genome=episodes_per_genome,
            base_seed=base_seed,
            inax_config=inax_config,
            env_kwargs=env_kwargs,
            fault_plan=fault_plan,
            quarantine_penalty=quarantine_penalty,
            pipeline=pipeline,
        )
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        self._compile_cache = CompileCache(cache_size)
        self._supervisor: ShardSupervisor | None = None
        #: compile-cache deltas folded back from worker shards
        self._shard_compile = {"hits": 0, "misses": 0}
        #: latest reported compile-cache size per shard slot
        #: (``shard=N`` parsed from the payload site); the aggregate is
        #: their sum, so it is deterministic regardless of the order
        #: shard payloads arrive in
        self._shard_compile_sizes: dict[str, int] = {}

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Tear the worker pool down with a *bounded* join; idempotent.

        ``Pool.join`` has no timeout, so the supervisor joins on a
        daemon thread and gives up after ``join_timeout`` — a hung
        worker can never wedge interpreter shutdown.
        """
        if self._supervisor is not None:
            # keep the supervisor object: its counters/events survive
            # close() for end-of-run reporting, and close stays idempotent
            self._supervisor.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:  # repro: noqa[RES001] -- interpreter teardown
            pass

    def reset_run_state(self, base_seed: int | None = None) -> None:
        """Reset run accumulators; keep compile cache + worker pool warm.

        Compiled structures survive (structural, content-keyed,
        bit-safe) but the hit/miss/warmed counters restart so the next
        run's cache stats cover only its own activity.  Worker-side
        sizes are still live (the pool persists), so the aggregate
        ``size`` stays truthful; worker deltas keep flowing against the
        workers' own cumulative reported counters, which the run
        boundary does not disturb.
        """
        super().reset_run_state(base_seed=base_seed)
        self._compile_cache.hits = 0
        self._compile_cache.misses = 0
        self._compile_cache.warmed = 0
        self._shard_compile = {"hits": 0, "misses": 0}
        if self._supervisor is not None:
            # per-run resilience accounting; the pool itself stays warm
            self._supervisor.retries = 0
            self._supervisor.degraded_shards = 0
            self._supervisor.events = []

    def compile_cache_info(self) -> dict[str, int]:
        """Compile-cache statistics: hits, misses, current size.

        With ``workers > 1`` the counts combine the parent cache with
        every worker shard's (workers report deltas back with each
        evaluated shard; ``size`` **sums each shard slot's most recent
        report**, so the aggregate is deterministic no matter what
        order payloads arrive in).  ``warmed`` counts entries built by
        :meth:`warm_caches` (resume warm-start), which are deliberately
        excluded from hits/misses.
        """
        info = self._compile_cache.info()
        return {
            "hits": info["hits"] + self._shard_compile["hits"],
            "misses": info["misses"] + self._shard_compile["misses"],
            "size": info["size"] + sum(self._shard_compile_sizes.values()),
            "warmed": info["warmed"],
        }

    def warm_caches(self, genomes: list[Genome]) -> int:
        built = 0
        for genome in genomes:
            if self._compile_cache.warm(genome, self.neat_config):
                built += 1
        return built

    def reporter_columns(self) -> dict[str, float]:
        columns = super().reporter_columns()
        if self.workers > 1:
            supervisor = self._supervisor
            columns["shard_retries"] = (
                float(supervisor.retries) if supervisor is not None else 0.0
            )
            columns["shard_degraded"] = (
                float(supervisor.degraded_shards)
                if supervisor is not None
                else 0.0
            )
        return columns

    def resilience_log(self) -> list[dict]:
        events = super().resilience_log()
        if self._supervisor is not None:
            events.extend(e.to_dict() for e in self._supervisor.events)
        return events

    # -------------------------------------------------------- evaluation
    def _evaluate(self, genomes: list[Genome]) -> None:
        with _span("compile.lookup", genomes=len(genomes)):
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        # workload records lower through the fill recipes — equal to
        # compile_genome() field for field, without re-running CreateNet
        configs = [
            entry.hw_config(genome)
            for entry, genome in zip(entries, genomes)
        ]
        if self.workers > 1 and len(genomes) > 1:
            fitnesses, lengths = self._fitness_sharded(genomes)
        else:
            fitnesses, lengths = self._fitness_for(genomes, entries=entries)
        for genome, fitness in zip(genomes, fitnesses):
            genome.fitness = fitness
        self._publish_metrics()
        self._record(configs, lengths, keys=[g.key for g in genomes])

    def _publish_metrics(self) -> None:
        registry = get_metrics()
        if registry is None:
            return
        info = self.compile_cache_info()
        registry.gauge("compile.cache.hits").set(info["hits"])
        registry.gauge("compile.cache.misses").set(info["misses"])
        registry.gauge("compile.cache.size").set(info["size"])

    def _fitness_for(
        self, genomes: list[Genome], entries=None
    ) -> tuple[list[float], list[int]]:
        """Evaluate ``genomes`` in-process; returns (fitnesses, lengths).

        ``entries`` are the genomes' compiled structures when the caller
        already looked them up.  Reward/step accumulation mirrors
        :class:`CPUBackend` exactly: per-episode totals in step order,
        summed in episode order, then one division — so the resulting
        floats are bit-identical.
        """
        if entries is None:
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        episodes = self.episodes_per_genome

        vector_ids = [
            i for i, entry in enumerate(entries) if entry.plan is not None
        ]
        records: dict[tuple[int, int], object] = {}
        if vector_ids:
            slots = [
                (i, episode)
                for i in vector_ids
                for episode in range(episodes)
            ]
            envs = [self._make_env() for _ in slots]
            seeds = [
                self._episode_seed(genomes[i], episode)
                for i, episode in slots
            ]
            buckets = len({id(entries[i]) for i, _ in slots})
            with _span(
                "compile.batch_step", slots=len(slots), buckets=buckets
            ):
                evaluator = CompiledPopulationEvaluator(
                    [(entries[i], genomes[i]) for i, _ in slots]
                )
                for slot, record in zip(
                    slots, run_lockstep(envs, evaluator.infer, seeds=seeds)
                ):
                    records[slot] = record

        fitnesses: list[float] = []
        lengths: list[int] = []
        interpreted: dict[int, FeedForwardNetwork] = {}
        for i, genome in enumerate(genomes):
            total_reward = 0.0
            total_steps = 0
            for episode in range(episodes):
                record = records.get((i, episode))
                if record is None:  # non-vectorizable shape: reference path
                    net = interpreted.get(i)
                    if net is None:
                        net = FeedForwardNetwork.create(
                            genome, self.neat_config
                        )
                        interpreted[i] = net
                    record = run_episode(
                        self._make_env(),
                        net,
                        seed=self._episode_seed(genome, episode),
                    )
                total_reward += record.total_reward
                total_steps += record.steps
            fitnesses.append(total_reward / episodes)
            lengths.append(total_steps)
        return fitnesses, lengths

    def _make_pool(self):
        """Build a fresh initialized worker pool (supervisor factory)."""
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        return context.Pool(
            self.workers,
            initializer=_fastcpu_worker_init,
            initargs=(
                self.env_name,
                self.neat_config,
                self.episodes_per_genome,
                self.base_seed,
                self.env_kwargs,
                self._compile_cache.capacity,
                self.fault_plan,
                type(self),
            ),
        )

    def _shard_fallback(
        self, genomes: list[Genome], site: str = ""
    ) -> tuple[list, dict]:
        """In-process degradation: worker-shaped result, identical bits.

        The per-(genome, episode) seeding contract means this produces
        exactly the floats the dead shard would have — degradation is
        invisible in the fitness trajectory.  Cache activity lands on
        the parent's own cache (counted by :meth:`compile_cache_info`
        already), so the telemetry payload carries zero deltas.
        """
        fitnesses, lengths = self._fitness_for(genomes)
        rows = [
            (genome.key, fitness, length)
            for genome, fitness, length in zip(genomes, fitnesses, lengths)
        ]
        telemetry = {
            "site": site,
            "phase_seconds": {},
            "compile_delta": {"hits": 0, "misses": 0},
            "compile_size": 0,
            "genomes": len(genomes),
            "metrics": None,
        }
        return rows, telemetry

    def _fitness_sharded(
        self, genomes: list[Genome]
    ) -> tuple[list[float], list[int]]:
        """Shard the population across the supervised worker pool.

        The :class:`ShardSupervisor` watches each shard with a timeout,
        retries failures on a respawned pool with backoff, degrades to
        :meth:`_shard_fallback` after ``max_retries``, and disables
        sharding entirely after ``disable_after`` consecutive degraded
        generations — the generation always completes, bit-identically.
        """
        if self._supervisor is None:
            self._supervisor = ShardSupervisor(
                self._make_pool,
                _fastcpu_worker_evaluate,
                self.supervisor_config,
            )
        supervisor = self._supervisor
        if supervisor.disabled:
            return self._fitness_for(genomes)
        shards = [
            shard
            for shard in (
                genomes[i :: self.workers] for i in range(self.workers)
            )
            if shard
        ]
        want_metrics = get_metrics() is not None
        generation = self._generation

        def build_task(index: int, attempt: int):
            site = f"gen={generation}|shard={index}|attempt={attempt}"
            return (shards[index], want_metrics, site)

        def fallback(index: int):
            return self._shard_fallback(
                shards[index], site=f"gen={generation}|shard={index}|fallback"
            )

        results = supervisor.run(
            len(shards),
            build_task,
            fallback,
            site_prefix=f"gen={generation}|",
        )
        merged: dict[int, tuple[float, int]] = {}
        payloads: list[dict] = []
        for shard_rows, shard_telemetry in results:
            for key, fitness, length in shard_rows:
                merged[key] = (fitness, length)
            payloads.append(shard_telemetry)
        self._merge_shard_telemetry(payloads)
        fitnesses = [merged[g.key][0] for g in genomes]
        lengths = [merged[g.key][1] for g in genomes]
        return fitnesses, lengths

    def _merge_shard_telemetry(self, payloads: list[dict]) -> None:
        """Fold worker-side telemetry into the parent's accumulators.

        Compile-cache deltas fold into the combined
        :meth:`compile_cache_info`, and — when a metrics registry is
        installed — counters/histograms for the shard workload.

        The merge is *idempotent per site*: each payload carries the
        unique ``gen|shard|attempt`` site it was produced under, and a
        site is folded in at most once — a crashed-then-respawned
        worker's retry has a fresh attempt index, while any duplicate
        delivery of the same payload is dropped instead of double
        counting cache/metric deltas.

        Cache *sizes* (unlike deltas) are absolute snapshots, so they
        aggregate as the **sum over shard slots of each slot's most
        recent report** — never by folding payloads in arrival order,
        which made the reported size jitter with delivery order.
        Fallback payloads (site ``...|fallback``) leave the slot's size
        untouched: degradation ran in-parent, so the dead worker's
        cache did not change.  Siteless legacy payloads share one
        anonymous slot.
        """
        registry = get_metrics()
        seen_sites: set[str] = set()
        for payload in payloads:
            site = payload.get("site") or ""
            if site:
                if site in seen_sites:
                    continue
                seen_sites.add(site)
            delta = payload["compile_delta"]
            self._shard_compile["hits"] += delta["hits"]
            self._shard_compile["misses"] += delta["misses"]
            if not site or "attempt=" in site.split("|")[-1]:
                slot = _shard_slot(site)
                self._shard_compile_sizes[slot] = payload["compile_size"]
            if registry is not None:
                registry.counter("fastcpu.shard.evaluate_seconds").inc(
                    payload["phase_seconds"].get("evaluate", 0.0)
                )
                registry.histogram("fastcpu.shard.genomes").observe(
                    payload["genomes"]
                )
                if payload.get("metrics"):
                    registry.merge_snapshot(payload["metrics"])


class FastCPUBackend(CompiledCPUBackend):
    """``cpu-fast``: the compiled software path under its original name.

    Kept so ``--backend cpu-fast``, ``--fallback cpu-fast``, serve job
    specs and run manifests that name it keep working; evaluation,
    caching and sharding are :class:`CompiledCPUBackend`'s.
    """

    name = "cpu-fast"


class INAXBackend(EvaluationBackend):
    """HW/SW co-designed evaluation on the functional INAX device.

    Episodes run in lock-step across a wave of PUs: each synchronized
    device step infers every still-alive individual, then the CPU steps
    each individual's environment with the decoded action.  Early
    terminations drop out of subsequent steps (the §V-B2 idle-PU
    effect), and the device's cycle report reflects it.  The wave loop
    itself is the shared :func:`run_lockstep` driver with the device as
    the inference function.
    """

    name = "inax"

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        inax_config: INAXConfig | None = None,
        episodes_per_genome: int = 1,
        base_seed: int = 0,
        env_kwargs: dict | None = None,
        oversize_policy: str = "raise",
        oversize_penalty: float = -1e9,
        fallback: str | None = None,
        fault_plan: FaultPlan | None = None,
        quarantine_penalty: float = DEFAULT_PENALTY,
        pipeline: PipelineConfig | None = None,
    ):
        """``oversize_policy`` decides what happens when an evolved
        genome no longer fits the PUs' weight/value buffers (a real
        failure mode once buffer capacities are finite): ``"raise"``
        aborts the run; ``"penalize"`` assigns ``oversize_penalty`` as
        the fitness without evaluating, so selection prunes oversized
        topologies — the resource pressure a deployed E3 would apply.

        ``fallback`` (``"cpu-fast"`` or ``"cpu"``) arms graceful
        degradation: a wave that hits a device fault
        (:class:`DeviceFault`, :class:`BufferOverflowError`) re-runs on
        the bit-identical software path instead of aborting, and an
        oversized genome under ``oversize_policy="raise"`` is evaluated
        in software rather than killing the run.  :attr:`oversize_count`
        is cumulative over the backend's lifetime — it is never reset,
        so per-generation deltas come from successive reporter rows."""
        if oversize_policy not in ("raise", "penalize"):
            raise ValueError(
                f"unknown oversize_policy {oversize_policy!r}; "
                "use 'raise' or 'penalize'"
            )
        if fallback not in (None, "cpu-fast", "cpu"):
            raise ValueError(
                f"unknown fallback {fallback!r}; use 'cpu-fast', 'cpu', "
                "or None"
            )
        inax_config = inax_config or INAXConfig()
        super().__init__(
            env_name,
            neat_config,
            episodes_per_genome=episodes_per_genome,
            base_seed=base_seed,
            inax_config=inax_config,
            env_kwargs=env_kwargs,
            fault_plan=fault_plan,
            quarantine_penalty=quarantine_penalty,
            pipeline=pipeline,
        )
        injector = (
            DeviceFaultInjector(fault_plan)
            if fault_plan is not None and has_device_faults(fault_plan)
            else None
        )
        self.device = INAX(inax_config, fault_injector=injector)
        self.oversize_policy = oversize_policy
        self.oversize_penalty = oversize_penalty
        self.oversize_count = 0
        self.fallback = fallback
        self.fallback_waves = 0
        self.fallback_genomes = 0

    def reset_run_state(self, base_seed: int | None = None) -> None:
        super().reset_run_state(base_seed=base_seed)
        # the device itself carries no cross-generation run state (its
        # report resets per wave batch); only the gate/fallback tallies do
        self.oversize_count = 0
        self.fallback_waves = 0
        self.fallback_genomes = 0

    def _fits_buffers(self, config: HWNetConfig) -> bool:
        limits = self.inax_config
        if (
            limits.weight_buffer_capacity is not None
            and config.weight_buffer_words > limits.weight_buffer_capacity
        ):
            return False
        if (
            limits.value_buffer_capacity is not None
            and config.value_buffer_words > limits.value_buffer_capacity
        ):
            return False
        return True

    def _gate_oversize(
        self, genomes: list[Genome]
    ) -> tuple[list[Genome], list[HWNetConfig]]:
        """Compile and apply the buffer-capacity gate (§IV-D).

        Returns the runnable (genome, config) subset; oversized genomes
        are resolved here (software fallback or penalty) per
        ``oversize_policy``.
        """
        all_configs = [compile_genome(g, self.neat_config) for g in genomes]
        runnable: list[Genome] = []
        configs: list[HWNetConfig] = []
        for genome, config in zip(genomes, all_configs):
            if self._fits_buffers(config):
                runnable.append(genome)
                configs.append(config)
                continue
            site = f"gen={self._generation}|genome={genome.key}"
            if self.oversize_policy == "raise" and self.fallback is None:
                raise BufferOverflowError(
                    f"genome {genome.key} needs {config.weight_buffer_words} "
                    "weight-buffer words; raise the capacity or use "
                    "oversize_policy='penalize'"
                )
            self.oversize_count += 1
            self._publish_oversize()
            if self.oversize_policy == "raise":
                # degradation ladder: an unrunnable genome evaluates in
                # software instead of aborting the whole run
                genome.fitness = self._software_fitness(genome)
                self.fallback_genomes += 1
                self._event(
                    "fallback.oversize", site,
                    weight_words=config.weight_buffer_words,
                )
            else:
                genome.fitness = self.oversize_penalty
                self._event(
                    "inax.oversize", site,
                    penalty=self.oversize_penalty,
                )
        return runnable, configs

    def _evaluate(self, genomes: list[Genome]) -> None:
        assert self.inax_config is not None
        # buffer-capacity gate (§IV-D: finite weight/value buffers)
        runnable, configs = self._gate_oversize(genomes)

        lengths = [0] * len(runnable)
        rewards = [0.0] * len(runnable)
        num_pus = self.inax_config.num_pus
        keys = [g.key for g in runnable]

        # wave packing happens *before* evaluation, off last-generation
        # episode lengths — exactly what the analytic scheduler replays
        with _span("inax.pack", genomes=len(runnable)):
            predicted = self._predict_costs(configs, keys)
            waves = pack_waves(
                predicted
                if predicted is not None
                else [None] * len(runnable),
                num_pus,
                self.pipeline.schedule,
            )

        self.device.reset_report()
        dispatched = 0
        for indices in waves:
            wave_genomes = [runnable[i] for i in indices]
            wave_configs = [configs[i] for i in indices]
            for episode in range(self.episodes_per_genome):
                prefetched = self.pipeline.prefetch and dispatched > 0
                self._run_wave_episode(
                    indices,
                    wave_genomes,
                    wave_configs,
                    episode,
                    lengths,
                    rewards,
                    prefetched=prefetched,
                )
                dispatched += 1

        for genome, reward in zip(runnable, rewards):
            genome.fitness = reward / self.episodes_per_genome
        record = self._record(
            configs,
            lengths,
            keys=keys,
            predicted_costs=predicted,
            analytic=False,
        )
        # the functional device's own report supersedes the analytic one
        record.cycle_report = self.device.report
        self._publish_cycle_gauges(record.cycle_report)

    def _publish_cycle_gauges(self, report) -> None:
        """Per-generation pipeline gauges (watchtower detector inputs)."""
        registry = get_metrics()
        if registry is None:
            return
        registry.gauge("inax.wave_occupancy").set(report.packing_efficiency)
        registry.gauge("inax.waves").set(float(report.waves))
        registry.gauge("inax.setup_cycles").set(report.setup_cycles)
        registry.gauge("inax.prefetch_hidden_cycles").set(
            report.prefetch_hidden_cycles
        )

    def _publish_oversize(self) -> None:
        registry = get_metrics()
        if registry is not None:
            registry.counter("inax.oversize.count").inc()

    def reporter_columns(self) -> dict[str, float]:
        columns = super().reporter_columns()
        columns["oversize"] = float(self.oversize_count)
        # count-based wave occupancy of the generation just evaluated —
        # the knob the LPT packer moves (the device report was reset at
        # the top of this generation's _evaluate, so this is per-gen)
        columns["pack_eff"] = self.device.report.packing_efficiency
        if self.fallback is not None:
            columns["fallback_waves"] = float(self.fallback_waves)
        return columns

    def _software_fitness(self, genome: Genome) -> float:
        """All-episode software evaluation (oversize degradation path)."""
        net = FeedForwardNetwork.create(genome, self.neat_config)
        total_reward = 0.0
        for episode in range(self.episodes_per_genome):
            record = run_episode(
                self._make_env(),
                net,
                seed=self._episode_seed(genome, episode),
            )
            total_reward += record.total_reward
        return total_reward / self.episodes_per_genome

    def _fallback_wave_episode(self, genomes: list[Genome], episode: int):
        """Re-run one wave's episode on the software path.

        Fresh envs + the same per-(genome, episode) seeds make this
        bit-identical to what the device would have produced (the
        backend-parity contract), no matter how far the faulted wave
        got.  ``fallback="cpu-fast"`` uses the compiled evaluator when
        every genome vectorizes; otherwise — and for ``fallback="cpu"``
        — the interpreted per-node path runs.
        """
        envs = [self._make_env() for _ in genomes]
        seeds = [self._episode_seed(genome, episode) for genome in genomes]
        if self.fallback == "cpu-fast":
            cache = CompileCache(len(genomes))
            entries = [cache.get(g, self.neat_config) for g in genomes]
            if all(entry.plan is not None for entry in entries):
                evaluator = CompiledPopulationEvaluator(
                    list(zip(entries, genomes))
                )
                return run_lockstep(envs, evaluator.infer, seeds=seeds)
        nets = [
            FeedForwardNetwork.create(genome, self.neat_config)
            for genome in genomes
        ]

        def infer(observations):
            return {
                slot: nets[slot].activate(obs)
                for slot, obs in observations.items()
            }

        return run_lockstep(envs, infer, seeds=seeds)

    def _device_wave_episode(
        self,
        device: INAX,
        genomes: list[Genome],
        configs: list[HWNetConfig],
        episode: int,
        prefetched: bool = False,
    ):
        """One wave's episode on one device; raises on device faults.

        The fresh-env + per-(genome, episode) seed discipline lives
        here, so any device (the single INAX or any fabric farm member)
        produces bit-identical episode records for the same wave.
        """
        device.begin_wave(configs, prefetched=prefetched)
        envs = [self._make_env() for _ in genomes]
        seeds = [self._episode_seed(genome, episode) for genome in genomes]
        episode_records = run_lockstep(envs, device.step, seeds=seeds)
        device.end_wave()
        return episode_records

    def _run_wave_episode(
        self,
        indices: list[int],
        genomes: list[Genome],
        configs: list[HWNetConfig],
        episode: int,
        lengths: list[int],
        rewards: list[float],
        prefetched: bool = False,
    ) -> None:
        """Run one wave's episode; ``indices`` maps wave slot ->
        population index, so any packing order lands results on the
        right individual."""
        try:
            episode_records = self._device_wave_episode(
                self.device, genomes, configs, episode, prefetched=prefetched
            )
        except (DeviceFault, BufferOverflowError) as error:
            self.device.abort_wave()
            if self.fallback is None:
                raise
            self.fallback_waves += 1
            self.fallback_genomes += len(genomes)
            self._event(
                "fallback.wave",
                f"gen={self._generation}|offset={indices[0]}|episode={episode}",
                error=type(error).__name__,
                genomes=len(genomes),
            )
            episode_records = self._fallback_wave_episode(genomes, episode)
        for slot, record in enumerate(episode_records):
            rewards[indices[slot]] += record.total_reward
            lengths[indices[slot]] += record.steps


#: CLI/platform name -> backend class, for everything that selects a
#: backend by string.
BACKENDS: dict[str, type[EvaluationBackend]] = {
    "cpu": CPUBackend,
    "cpu-fast": FastCPUBackend,
    "cpu-compiled": CompiledCPUBackend,
    "gpu": GPUBackend,
    "inax": INAXBackend,
}
