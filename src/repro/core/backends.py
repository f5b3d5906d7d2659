"""Evaluation backends: where the "evaluate" phase actually runs.

The E3 platform (Fig 5) keeps "evolve" on the CPU and chooses where to
run "evaluate":

* :class:`CPUBackend` — the SW-only baseline (E3-CPU): decode each
  genome and run its episodes with the interpreted per-node forward
  pass;
* :class:`CompiledCPUBackend` — the production software path
  (``cpu-compiled``, also reachable as the alias ``cpu-fast``): compile each
  topology **once** into a cross-generation shape-keyed cache, run the
  whole population's episodes in lock-step through one
  :class:`~repro.compile.CompiledPopulationEvaluator`, and optionally
  shard the population across a ``multiprocessing`` pool.  Fitness
  trajectories are bit-identical to :class:`CPUBackend`;
* :class:`INAXBackend` — the co-designed path (E3-INAX): compile each
  genome through the same shape-keyed cache, dispatch the population in
  waves to the functional INAX device, and account every wave's cycles
  until its last episode terminates.  When nothing about the run can
  make the data matter, the generation's episodes run in one lock-step
  pass on the compiled engine and each device wave is priced in closed
  form from its shapes' costs and episode lengths; otherwise the
  device loads each wave's HW configurations and steps it through the
  closed CPU<->FPGA loop.  Its dispatch loop is the only one: it drains
  per-device wave queues over a farm of one device, asking overridable
  hooks where the waves go, whether a device answers its probe,
  whether a faulted device is evicted and which report closes the
  generation, and the ``fabric`` backend (:mod:`repro.fabric.backend`)
  answers them for N devices.

:class:`CompiledCPUBackend` and :class:`INAXBackend` share one compile
cache plumbing, one lock-step episode helper
(:meth:`_CompiledBackend._episode_records`) and one compact record
(:meth:`_CompiledBackend._record_compiled`).

:func:`create_backend` is the one way to build a backend by name: it
resolves :data:`ALIASES`, hands each class only the shared options its
constructor declares, and fills in the env's default INAX config.

All backends drive episodes through the shared rollout machinery
(:func:`repro.envs.rollout.run_episode` for sequential evaluation,
:func:`repro.envs.rollout.run_lockstep` for wave evaluation) and
evaluate under the same per-(genome, episode) seeds, so a NEAT run's
fitness trajectory is identical regardless of backend — the property
the integration tests pin down.

Every backend also records the generation's *workload* (for the
CPU/GPU cost models) and, when an INAX configuration is attached, its
cycle report (for E3-INAX pricing): the device backends record their
device's own report, and the software backends price the generation
inline in closed form, wave-episode by wave-episode as the device
dispatches it — this is what the Fig 9/10 benchmark harnesses consume.
The compiled backends price and record from each shape's
:class:`~repro.compile.structure.ShapeCost`, and a ``cpu-compiled``
generation, like a replayed ``inax`` or ``fabric`` one, builds no
:class:`~repro.inax.compiler.HWNetConfig` unless its record's
``configs`` are read; the record keeps only the generation's
parameters, in the one array the engine read them into.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import time
from collections import deque
from contextlib import contextmanager
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from repro.compile import (
    CompileCache,
    CompiledPopulationEvaluator,
    ShapeCost,
    hw_configs,
)
from repro.envs.base import Environment
from repro.envs.registry import make
from repro.envs.rollout import EpisodeRecord, run_episode, run_lockstep
from repro.hw.workload import GenerationWorkload, IndividualWork
from repro.inax.accelerator import (
    INAX,
    INAXConfig,
    pack_generation,
    schedule_generation,  # noqa: F401  (genbench's ledger wraps this name)
    schedule_waves,
)
from repro.inax.compiler import HWNetConfig, compile_genome
from repro.inax.heuristics import choose_num_pes
from repro.inax.pipeline import PipelineConfig, pack_waves, predict_costs
from repro.inax.pu import BufferOverflowError
from repro.inax.timing import CycleReport, utilization
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
from repro.telemetry.metrics import MetricsRegistry, get_metrics
from repro.telemetry.spans import span as _span

__all__ = [
    "GenerationRecord",
    "EvaluationBackend",
    "CPUBackend",
    "CompiledCPUBackend",
    "INAXBackend",
    "BACKENDS",
    "ALIASES",
    "create_backend",
    "default_inax_config",
]


#: shape-keyed compile-cache capacity of every compiled backend
COMPILE_CACHE_SIZE = 512


def default_inax_config(num_outputs: int, num_pus: int = 50) -> INAXConfig:
    """The paper's §VI-C configuration: PU=50, PE=#output nodes."""
    return INAXConfig(
        num_pus=num_pus, num_pes_per_pu=choose_num_pes(num_outputs)
    )


class GenerationRecord:
    """Everything recorded while evaluating one generation.

    ``configs`` (the compiled individuals, aligned with
    ``workload.individuals``) and ``workload`` are built on every read
    and kept by nobody, so reading a record leaves it as small as it
    was.  ``configs`` is given as a list or as a function that lowers
    the individuals from values copied at evaluation time, never from
    the genomes, so a record keeps no genome alive; ``shapes`` holds
    one object per individual with the sizes
    :meth:`IndividualWork.from_config` reads: its
    :class:`~repro.inax.compiler.HWNetConfig`, or its shape's
    :class:`~repro.compile.structure.ShapeCost`.  A record never holds a
    compiled structure, so the compile cache's eviction still frees a
    shape's plan.
    """

    def __init__(
        self,
        shapes: list,
        episode_lengths: list[int],
        configs: list[HWNetConfig] | Callable[[], list[HWNetConfig]],
        cycle_report: CycleReport | None = None,
        predicted_costs: list[float | None] | None = None,
    ):
        self.episode_lengths = episode_lengths
        #: INAX cycles: the device's report on the device backends, the
        #: closed-form pricing on the software backends (None when no
        #: INAX config is attached)
        self.cycle_report = cycle_report
        #: the per-individual cost predictions the wave packer used
        #: (``schedule="lpt"`` only), so the dispatch can be replayed
        self.predicted_costs = predicted_costs
        self._shapes = shapes
        self._configs = configs

    @property
    def configs(self) -> list[HWNetConfig]:
        configs = self._configs
        return configs() if callable(configs) else configs

    @property
    def workload(self) -> GenerationWorkload:
        return GenerationWorkload(
            individuals=[
                IndividualWork.from_config(shape, steps)
                for shape, steps in zip(self._shapes, self.episode_lengths)
            ]
        )


class EvaluationBackend:
    """Base backend: owns env construction, seeding, and recording."""

    name = "backend"
    #: the shared :func:`create_backend` options this class's
    #: constructor takes, beyond the ones every backend takes
    factory_options: tuple[str, ...] = ()

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
        #: pipelining policies (wave packing / prefetch)
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        #: genome key -> total episode steps in the last recorded
        #: generation (the LPT packer's cost predictor); older keys are
        #: dropped, so the history never outgrows one generation
        self._last_lengths: dict[int, int] = {}

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

    def close(self) -> None:
        """Release any resources (worker pools, devices). Idempotent."""

    def reset_run_state(self, base_seed: int | None = None) -> None:
        """Clear per-run accumulators so the instance can host a new run.

        The serve-layer :class:`~repro.serve.pool.BackendPool` leases
        backends across jobs; this resets everything a run accumulates
        — generation records, the generation counter, LPT cost history,
        quarantine/resilience accounting, the fault plan's fired
        events — while deliberately keeping
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
        self.quarantine_count = 0
        self.resilience_events = []
        if self.fault_plan is not None:
            self.fault_plan.events = []
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

    def _interpreted_records(
        self, genome: Genome, episodes: range | list[int] | None = None
    ) -> list[EpisodeRecord]:
        """``genome``'s ``episodes`` (default: all) on the interpreted
        network, one record each, in order."""
        if episodes is None:
            episodes = range(self.episodes_per_genome)
        net = FeedForwardNetwork.create(genome, self.neat_config)
        return [
            run_episode(
                self._make_env(), net, seed=self._episode_seed(genome, episode)
            )
            for episode in episodes
        ]

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

    def publish_run_gauges(self, registry: MetricsRegistry) -> None:
        """Set the run's end-of-run backend gauges in ``registry``.

        :class:`~repro.core.platform.E3` calls this once, at run end;
        each backend class adds its own statistics.
        """
        if self.quarantine_count:
            registry.gauge("resilience.quarantined_genomes").set(
                self.quarantine_count
            )

    def resilience_log(self) -> list[dict]:
        """Backend + fault-plan events as comparable dicts (replay tests)."""
        events = [event.to_dict() for event in self.resilience_events]
        if self.fault_plan is not None:
            events.extend(self.fault_plan.event_log())
        return events

    def _predict_costs(
        self, shapes: list, keys: list[int]
    ) -> list[float | None] | None:
        """LPT cost predictions from last-generation lengths (or None)."""
        if self.pipeline.schedule != "lpt" or self.inax_config is None:
            return None
        hw = self.inax_config
        return predict_costs(
            shapes,
            keys,
            self._last_lengths,
            hw.num_pes_per_pu,
            hw.pe_costs,
            hw.pu_costs,
        )

    def _record(
        self,
        shapes: list,
        steps: list[list[int]],
        keys: list[int],
        configs: list[HWNetConfig] | Callable[[], list[HWNetConfig]],
        predicted_costs: list[float | None] | None = None,
        cycle_report: CycleReport | None = None,
    ) -> GenerationRecord:
        """Record the generation with its cycle report.

        ``shapes`` (HW configs, or the compiled backends' shape costs),
        ``steps`` (each individual's steps, one entry per episode) and
        ``keys`` (genome keys) align with the individuals; the keys
        feed the LPT cost predictor for the *next* generation.
        ``configs`` becomes the record's ``configs`` (see
        :class:`GenerationRecord`).  The device backends pass their
        device's ``cycle_report`` and the ``predicted_costs`` their
        packer used.  Without a report, a backend with an INAX config
        prices the generation here in closed form (:meth:`_price`).
        """
        lengths = [sum(episodes) for episodes in steps]
        if cycle_report is None and self.inax_config is not None:
            # software backends model the dispatch the device would run;
            # predictions must come from *pre-update* history, exactly
            # like the device packs before evaluating
            predicted_costs = self._predict_costs(shapes, keys)
            cycle_report = self._price(
                shapes, steps, lengths, predicted_costs
            )
        record = GenerationRecord(
            shapes,
            lengths,
            configs,
            cycle_report=cycle_report,
            predicted_costs=predicted_costs,
        )
        self._last_lengths = dict(zip(keys, lengths))
        self.records.append(record)
        self._generation += 1
        return record

    def _price(
        self,
        shapes: list,
        steps: list[list[int]],
        lengths: list[int],
        predicted_costs: list[float | None] | None,
    ) -> CycleReport:
        """The generation's cycles, priced as the device dispatches it.

        The device packs its waves once, by ``predicted_costs``, and
        dispatches each wave once per episode, in queue order ``(wave,
        episode)``; with prefetch every wave-episode after the first
        hides its set-up behind the one before.  With one episode per
        genome that is :func:`schedule_generation`'s report.
        """
        hw, pipeline = self.inax_config, self.pipeline
        _, waves = pack_generation(
            hw, shapes, lengths, pipeline.schedule,
            predicted_costs=predicted_costs,
        )
        # individual i's episode e is entry e * n + i
        n, episodes = len(shapes), range(self.episodes_per_genome)
        return schedule_waves(
            hw,
            shapes * len(episodes),
            [steps[i][e] for e in episodes for i in range(n)],
            [[e * n + i for i in wave] for wave in waves for e in episodes],
            prefetch=pipeline.prefetch,
        )


def _fitness_of(records: list[EpisodeRecord]) -> tuple[float, int]:
    """(fitness, total steps) of one genome's episode records.

    Per-episode totals accumulate in step order and sum in episode
    order, then one division: the accumulation every backend
    reproduces bit for bit.
    """
    total_reward = 0.0
    total_steps = 0
    for record in records:
        total_reward += record.total_reward
        total_steps += record.steps
    return total_reward / len(records), total_steps


class CPUBackend(EvaluationBackend):
    """SW-only evaluation: the E3-CPU baseline.

    Episodes run through the shared :func:`run_episode` driver with the
    interpreted per-node forward pass — deliberately the slow reference
    path the paper profiles in Fig 1(b).
    """

    name = "cpu"

    def _evaluate(self, genomes: list[Genome]) -> None:
        configs: list[HWNetConfig] = []
        steps: list[list[int]] = []
        for genome in genomes:
            configs.append(compile_genome(genome, self.neat_config))
            records = self._interpreted_records(genome)
            genome.fitness, _ = _fitness_of(records)
            steps.append([record.steps for record in records])
        self._record(configs, steps, [g.key for g in genomes], configs)


class _CompiledBackend(EvaluationBackend):
    """What every backend on the compiled engine shares.

    One cross-generation shape-keyed :class:`~repro.compile.CompileCache`
    (its statistics, resume warm-start, per-run counter reset and
    ``compile.cache.*`` gauges), pricing from the shapes'
    :class:`~repro.compile.structure.ShapeCost` descriptors, and
    :meth:`_episode_records`, the one lock-step episode loop.  Cached
    structures are keyed purely on genome content, so they survive
    :meth:`reset_run_state` and a reused backend stays bit-identical to
    a fresh one.
    """

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        cache_size: int = COMPILE_CACHE_SIZE,
        **options,
    ):
        super().__init__(env_name, neat_config, **options)
        self._compile_cache = CompileCache(cache_size)

    def reset_run_state(self, base_seed: int | None = None) -> None:
        """Reset run accumulators; keep the compiled structures.

        The hit/miss/warmed counters restart so the next run's cache
        stats cover only its own activity.
        """
        super().reset_run_state(base_seed=base_seed)
        self._compile_cache.hits = 0
        self._compile_cache.misses = 0
        self._compile_cache.warmed = 0

    def compile_cache_info(self) -> dict[str, int]:
        """Compile-cache statistics: hits, misses, current size, and
        ``warmed``, the entries :meth:`warm_caches` built (resume
        warm-start), which are deliberately excluded from hits/misses."""
        return self._compile_cache.info()

    def warm_caches(self, genomes: list[Genome]) -> int:
        built = 0
        for genome in genomes:
            if self._compile_cache.warm(genome, self.neat_config):
                built += 1
        return built

    def publish_run_gauges(self, registry: MetricsRegistry) -> None:
        super().publish_run_gauges(registry)
        self._publish_compile_gauges(registry)

    def _publish_compile_gauges(
        self, registry: MetricsRegistry | None = None
    ) -> None:
        """The ``compile.cache.*`` gauges, into ``registry`` or else the
        installed one."""
        registry = registry if registry is not None else get_metrics()
        if registry is None:
            return
        info = self.compile_cache_info()
        registry.gauge("compile.cache.hits").set(info["hits"])
        registry.gauge("compile.cache.misses").set(info["misses"])
        registry.gauge("compile.cache.size").set(info["size"])

    def _lower(self, genomes: list[Genome]) -> tuple[list, list[ShapeCost]]:
        """Each genome's compiled structure and its shape's cost."""
        with _span("compile.lookup", genomes=len(genomes)):
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        return entries, [entry.cost for entry in entries]

    @staticmethod
    def _read_parameters(
        genomes: list[Genome], entries: list
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Every genome's :meth:`~repro.compile.CompiledStructure.parameters`,
        read once into one array, and each genome's view of it: the
        engine's members and the record share the read."""
        rows = [
            entry.parameters(genome)
            for entry, genome in zip(entries, genomes)
        ]
        ends = list(accumulate(map(len, rows)))
        values = np.fromiter(
            chain.from_iterable(rows), np.float64, ends[-1] if ends else 0
        )
        return values, [
            values[start:end] for start, end in zip([0, *ends], ends)
        ]

    def _record_compiled(
        self,
        genomes: list[Genome],
        entries: list,
        steps: list[list[int]],
        parameters: np.ndarray,
        **device,
    ) -> GenerationRecord:
        """Record ``genomes`` from their compiled ``entries``: the
        record keeps their shape costs and ``parameters``, their
        :meth:`_read_parameters` array, and lowers its ``configs`` from
        them on every read, so it keeps no genome alive.  ``device`` is
        the device backends' report and predictions (:meth:`_record`)."""
        shapes = [entry.cost for entry in entries]
        return self._record(
            shapes,
            steps,
            [g.key for g in genomes],
            lambda: hw_configs(shapes, parameters),
            **device,
        )

    def _episode_records(
        self,
        genomes: list[Genome],
        entries=None,
        episodes: range | list[int] | None = None,
        parameters: list[np.ndarray] | None = None,
    ) -> list[list[EpisodeRecord]]:
        """Every (genome, episode) slot's record, ``[genome][episode]``.

        ``episodes`` defaults to all of them; ``entries`` are the
        genomes' compiled structures and ``parameters`` their
        :meth:`_read_parameters` views, when the caller already has
        them.  The slots of vectorizable shapes run in one lock-step
        pass of one :class:`~repro.compile.CompiledPopulationEvaluator`;
        the rest run on the interpreted path, which produces the same
        bits by construction.
        """
        if entries is None:
            entries = [
                self._compile_cache.get(g, self.neat_config) for g in genomes
            ]
        if parameters is None:
            parameters = genomes
        if episodes is None:
            episodes = range(self.episodes_per_genome)
        records: list[list] = [[None] * len(episodes) for _ in genomes]
        slots = [
            (i, e)
            for i, entry in enumerate(entries)
            if entry.plan is not None
            for e in range(len(episodes))
        ]
        if slots:
            envs = [self._make_env() for _ in slots]
            seeds = [
                self._episode_seed(genomes[i], episodes[e]) for i, e in slots
            ]
            buckets = len({id(entries[i]) for i, _ in slots})
            with _span(
                "compile.batch_step", slots=len(slots), buckets=buckets
            ):
                evaluator = CompiledPopulationEvaluator(
                    [(entries[i], parameters[i]) for i, _ in slots]
                )
                for (i, e), record in zip(
                    slots, run_lockstep(envs, evaluator.infer, seeds=seeds)
                ):
                    records[i][e] = record
        for i, entry in enumerate(entries):
            if entry.plan is None:  # non-vectorizable shape: reference path
                records[i] = self._interpreted_records(genomes[i], episodes)
        return records


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
    env_kwargs: dict,
    cache_size: int,
    fault_plan: FaultPlan | None = None,
    backend_cls: "type[CompiledCPUBackend] | None" = None,
) -> None:
    """Build the worker's backend from what the pool's whole life
    shares; the run seed, which a reused backend rebinds, rides with
    each shard task instead."""
    global _WORKER_STATE
    # workers run the parent's own class, minus sharding — classes
    # pickle by reference
    cls = backend_cls if backend_cls is not None else CompiledCPUBackend
    _WORKER_STATE = _WorkerState(
        cls(
            env_name,
            neat_config,
            episodes_per_genome=episodes_per_genome,
            env_kwargs=env_kwargs,
            workers=0,
            cache_size=cache_size,
            fault_plan=fault_plan,
        )
    )


def _fastcpu_worker_evaluate(
    task: tuple[list[Genome], bool, str, int],
) -> tuple[list[tuple[int, float, list[int]]], dict]:
    """Evaluate one shard; returns (per-genome rows, shard telemetry).

    The telemetry payload carries the worker-side wall seconds, the
    compile-cache activity since the worker's last report, and — when
    the parent has a metrics registry installed — a fresh worker-side
    registry snapshot (episode-step and wave-size histograms), so
    sharded evaluation no longer discards worker-side telemetry.

    ``task`` also carries the shard's fault site
    (``gen=G|shard=I|attempt=A``): any armed ``worker.*`` fault fires
    here, *before* evaluation — the attempt index is part of the draw,
    so a supervised retry of a crashed shard gets a fresh chance — and
    the run seed the shard's episodes draw from.
    """
    genomes, want_metrics, fault_site, base_seed = task
    state = _WORKER_STATE
    assert state is not None, "worker pool not initialized"
    backend = state.backend
    backend.base_seed = base_seed
    maybe_fail_worker(backend.fault_plan, fault_site)
    from repro.telemetry.metrics import MetricsRegistry, set_metrics

    registry = MetricsRegistry() if want_metrics else None
    previous = set_metrics(registry) if want_metrics else None
    t0 = time.perf_counter()
    try:
        fitnesses, steps = backend._fitness_for(genomes)
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
        (genome.key, fitness, episodes)
        for genome, fitness, episodes in zip(genomes, fitnesses, steps)
    ]
    return rows, telemetry


class CompiledCPUBackend(_CompiledBackend):
    """Compiled + sharded software evaluation (``cpu-compiled``).

    The production software path.  Three optimizations over
    :class:`CPUBackend`, none of which change a single bit of any
    fitness value:

    1. **Structural batching** — genomes bucket by the weights-excluded
       :meth:`Genome.shape_signature`, and each shape compiles **once** into a
       :class:`~repro.compile.CompiledStructure` held in a
       cross-generation :class:`~repro.compile.CompileCache`, so the
       weight-mutated bulk of a steady-state generation compiles
       nothing.
    2. **Lock-step inference** — a generation's members are laid out
       level by level from their shapes' row templates and their
       parameters, read once into one array
       (:class:`~repro.compile.CompiledPopulationEvaluator`), and all
       episodes advance together, so an env tick's forward passes cost
       a handful of NumPy ops instead of a Python per-node loop per
       individual.
    3. **Sharding** — with ``workers > 1`` the population splits across
       a supervised ``multiprocessing`` pool.  Per-(genome, episode)
       seeding makes shard placement irrelevant to results.

    The engine accumulates in the interpreted path's term order with
    the same activation kernels, so fitness trajectories are
    bit-identical to ``cpu``.  A generation is priced and its workload
    recorded from the shapes' cost descriptors, which equal what the
    ``cpu`` path reads off :func:`compile_genome`'s configurations; the
    record keeps the engine's parameter array and lowers its
    ``configs`` from it, through each shape's recipes, whenever they
    are read.  Non-vectorizable shapes (exotic aggregations)
    fall back to the interpreted :func:`run_episode` path, which
    produces the same bits by construction.
    """

    name = "cpu-compiled"
    factory_options = ("workers", "supervisor")

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        episodes_per_genome: int = 1,
        base_seed: int = 0,
        inax_config: INAXConfig | None = None,
        env_kwargs: dict | None = None,
        workers: int = 0,
        cache_size: int = COMPILE_CACHE_SIZE,
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
            cache_size=cache_size,
        )
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
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

        Worker-side sizes are still live (the pool persists), so the
        aggregate ``size`` stays truthful; worker deltas keep flowing
        against the workers' own cumulative reported counters, which
        the run boundary does not disturb.
        """
        super().reset_run_state(base_seed=base_seed)
        self._shard_compile = {"hits": 0, "misses": 0}
        if self._supervisor is not None:
            self._supervisor.reset_run_state()

    def compile_cache_info(self) -> dict[str, int]:
        """Compile-cache statistics, worker shards included.

        With ``workers > 1`` the counts combine the parent cache with
        every worker shard's (workers report deltas back with each
        evaluated shard; ``size`` **sums each shard slot's most recent
        report**, so the aggregate is deterministic no matter what
        order payloads arrive in).
        """
        info = super().compile_cache_info()
        info["hits"] += self._shard_compile["hits"]
        info["misses"] += self._shard_compile["misses"]
        info["size"] += sum(self._shard_compile_sizes.values())
        return info

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
        entries, _ = self._lower(genomes)
        values, views = self._read_parameters(genomes, entries)
        if self.workers > 1 and len(genomes) > 1:
            fitnesses, steps = self._fitness_sharded(genomes)
        else:
            fitnesses, steps = self._fitness_for(genomes, entries, views)
        for genome, fitness in zip(genomes, fitnesses):
            genome.fitness = fitness
        self._publish_compile_gauges()
        self._record_compiled(genomes, entries, steps, values)

    def _fitness_for(
        self, genomes: list[Genome], entries=None, parameters=None
    ) -> tuple[list[float], list[list[int]]]:
        """Evaluate ``genomes`` in-process; returns (fitnesses, steps),
        each genome's steps one entry per episode.

        ``entries`` and ``parameters`` are the genomes' compiled
        structures and parameter views when the caller already has
        them (:meth:`_episode_records`).  Each genome's records sum
        through :func:`_fitness_of`, like the interpreted path's, so the
        resulting floats are bit-identical.
        """
        fitnesses, steps = [], []
        for records in self._episode_records(
            genomes, entries, parameters=parameters
        ):
            fitnesses.append(_fitness_of(records)[0])
            steps.append([record.steps for record in records])
        return fitnesses, steps

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
        fitnesses, steps = self._fitness_for(genomes)
        rows = [
            (genome.key, fitness, episodes)
            for genome, fitness, episodes in zip(genomes, fitnesses, steps)
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
    ) -> tuple[list[float], list[list[int]]]:
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
            return (shards[index], want_metrics, site, self.base_seed)

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
        merged: dict[int, tuple[float, list[int]]] = {}
        payloads: list[dict] = []
        for shard_rows, shard_telemetry in results:
            for key, fitness, episodes in shard_rows:
                merged[key] = (fitness, episodes)
            payloads.append(shard_telemetry)
        self._merge_shard_telemetry(payloads)
        fitnesses = [merged[g.key][0] for g in genomes]
        steps = [merged[g.key][1] for g in genomes]
        return fitnesses, steps

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


class INAXBackend(_CompiledBackend):
    """HW/SW co-designed evaluation on the functional INAX device.

    Episodes run in lock-step across a wave of PUs: each synchronized
    device step infers every still-alive individual, then the CPU steps
    each individual's environment with the decoded action.  Early
    terminations drop out of subsequent steps (the §V-B2 idle-PU
    effect), and the device's cycle report reflects it.

    The modelled device always runs its waves one after another; the
    host simulates them one of two ways.  When the device is
    :attr:`~repro.inax.accelerator.INAX.replayable`, the generation's
    episodes run first, in one lock-step pass on the compiled engine
    (:meth:`_functional_pass`), and each wave-episode then replays its
    cycle accounting on the device from the episode lengths
    (:meth:`~repro.inax.accelerator.INAX.replay_wave`).  Otherwise each
    wave-episode runs through the shared :func:`run_lockstep` driver
    with the device's per-PU :meth:`~repro.inax.accelerator.INAX.step`
    as the inference function.  Both produce the same fitness bits,
    cycle reports and device spans.

    The device is a farm of one (:attr:`farm`), so :meth:`_evaluate`
    is the one dispatch loop the ``fabric`` farm runs too.
    """

    name = "inax"
    factory_options = ("fallback",)

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

        ``fallback="cpu-fast"`` arms graceful degradation: a wave that
        hits a device fault (:class:`DeviceFault`,
        :class:`BufferOverflowError`) re-runs on the bit-identical
        software path instead of aborting, and an oversized genome
        under ``oversize_policy="raise"`` is evaluated in software
        rather than killing the run.  :attr:`oversize_count`
        is cumulative over the backend's lifetime — it is never reset,
        so per-generation deltas come from successive reporter rows."""
        if oversize_policy not in ("raise", "penalize"):
            raise ValueError(
                f"unknown oversize_policy {oversize_policy!r}; "
                "use 'raise' or 'penalize'"
            )
        if fallback not in (None, "cpu-fast"):
            raise ValueError(
                f"unknown fallback {fallback!r}; use 'cpu-fast' or None"
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
        self.oversize_policy = oversize_policy
        self.oversize_penalty = oversize_penalty
        self.oversize_count = 0
        self.fallback = fallback
        self.fallback_waves = 0
        self.fallback_genomes = 0
        # id(genome) -> its episode records (replayable devices) or its
        # HW configuration (stepped devices), while a generation's
        # functional pass is live (see _functional_pass)
        self._pass_records: dict[int, list[EpisodeRecord]] | None = None
        self._pass_configs: dict[int, HWNetConfig] | None = None
        self._build_farm()

    def _build_farm(self) -> None:
        """Build :attr:`farm`, the devices the dispatch loop drives.

        ``inax`` is a farm of one, with no injector site or span track
        prefix.  :meth:`reset_run_state` rebuilds it too, so no device
        state (the wave counter fault sites embed included) outlives a
        run.
        """
        self.farm = [self._make_device()]

    def _make_device(
        self, site_prefix: str = "", track_prefix: str = ""
    ) -> INAX:
        """One INAX of the farm, armed with the plan's device faults.

        ``site_prefix`` namespaces its injector's fault sites and
        ``track_prefix`` its span tracks.
        """
        plan = self.fault_plan
        injector = (
            DeviceFaultInjector(plan, site_prefix=site_prefix)
            if plan is not None and has_device_faults(plan)
            else None
        )
        device = INAX(self.inax_config, fault_injector=injector)
        device.track_prefix = track_prefix
        return device

    def reset_run_state(self, base_seed: int | None = None) -> None:
        super().reset_run_state(base_seed=base_seed)
        self._build_farm()
        self.oversize_count = 0
        self.fallback_waves = 0
        self.fallback_genomes = 0

    def _fits_buffers(self, shape: ShapeCost) -> bool:
        limits = self.inax_config
        if (
            limits.weight_buffer_capacity is not None
            and shape.weight_buffer_words > limits.weight_buffer_capacity
        ):
            return False
        if (
            limits.value_buffer_capacity is not None
            and shape.value_buffer_words > limits.value_buffer_capacity
        ):
            return False
        return True

    def _gate_oversize(
        self, genomes: list[Genome]
    ) -> tuple[list[Genome], list]:
        """Apply the buffer-capacity gate (§IV-D) to the shapes' words.

        Returns the runnable genomes with their compiled structures;
        oversized genomes are resolved here (software fallback or
        penalty) per ``oversize_policy``.
        """
        all_entries, all_shapes = self._lower(genomes)
        runnable: list[Genome] = []
        entries: list = []
        for genome, shape, entry in zip(genomes, all_shapes, all_entries):
            if self._fits_buffers(shape):
                runnable.append(genome)
                entries.append(entry)
                continue
            site = f"gen={self._generation}|genome={genome.key}"
            if self.oversize_policy == "raise" and self.fallback is None:
                raise BufferOverflowError(
                    f"genome {genome.key} needs {shape.weight_buffer_words} "
                    "weight-buffer words; raise the capacity or use "
                    "oversize_policy='penalize'"
                )
            self.oversize_count += 1
            self._publish_oversize()
            if self.oversize_policy == "raise":
                # degradation ladder: an unrunnable genome evaluates in
                # software instead of aborting the whole run
                genome.fitness, _ = _fitness_of(
                    self._interpreted_records(genome)
                )
                self.fallback_genomes += 1
                self._event(
                    "fallback.oversize", site,
                    weight_words=shape.weight_buffer_words,
                )
            else:
                genome.fitness = self.oversize_penalty
                self._event(
                    "inax.oversize", site,
                    penalty=self.oversize_penalty,
                )
        return runnable, entries

    def _evaluate(self, genomes: list[Genome]) -> None:
        """The one device dispatch loop, over per-device wave queues.

        The generation's waves are packed once, then :meth:`_assign`
        queues them on the farm's devices, and the queues drain in
        device order, one wave-episode at a time.  A device must answer
        :meth:`_probe` before each wave-episode; a device fault aborts
        the wave, and the device is either evicted (:meth:`_evict`) or
        the wave-episode falls back to software (:meth:`_fall_back`).
        An eviction re-packs the device's queue onto the survivors,
        which may refill a queue already drained, so the scan repeats
        until every queue is dry.
        """
        assert self.inax_config is not None
        generation = self._generation
        self._begin_generation(generation)
        # buffer-capacity gate (§IV-D: finite weight/value buffers)
        runnable, entries = self._gate_oversize(genomes)
        values, views = self._read_parameters(runnable, entries)

        steps = [[0] * self.episodes_per_genome for _ in runnable]
        rewards = [0.0] * len(runnable)

        with self._functional_pass(runnable, entries, views):
            # wave packing happens *before* evaluation, off last-generation
            # episode lengths — exactly what the analytic scheduler replays
            with _span("inax.pack", genomes=len(runnable)):
                predicted = self._predict_costs(
                    [entry.cost for entry in entries],
                    [g.key for g in runnable],
                )
                waves = pack_waves(
                    predicted
                    if predicted is not None
                    else [None] * len(runnable),
                    self.inax_config.num_pus,
                    self.pipeline.schedule,
                )
            for device in self.farm:
                device.reset_report()

            queues = self._assign(waves, predicted)
            dispatched = [0] * len(self.farm)
            while any(queues.values()):
                for device in sorted(queues):
                    queue = queues[device]
                    while queue:
                        ordinal, episode = queue[0]
                        if not self._probe(generation, device, queues):
                            break
                        indices = waves[ordinal]
                        wave = [runnable[i] for i in indices]
                        prefetched = (
                            self.pipeline.prefetch and dispatched[device] > 0
                        )
                        try:
                            records = self._device_wave_episode(
                                self.farm[device],
                                wave,
                                [entries[i] for i in indices],
                                episode,
                                prefetched=prefetched,
                            )
                        except (DeviceFault, BufferOverflowError) as error:
                            self.farm[device].abort_wave()
                            if self._evict(generation, device, error, queues):
                                break
                            records = self._fall_back(
                                error, indices, wave, episode
                            )
                        dispatched[device] += 1
                        for slot, record in enumerate(records):
                            rewards[indices[slot]] += record.total_reward
                            steps[indices[slot]][episode] = record.steps
                        if episode + 1 < self.episodes_per_genome:
                            queue[0] = (ordinal, episode + 1)
                        else:
                            queue.popleft()

        for genome, reward in zip(runnable, rewards):
            genome.fitness = reward / self.episodes_per_genome
        record = self._record_compiled(
            runnable,
            entries,
            steps,
            values,
            predicted_costs=predicted,
            cycle_report=self._finish_generation(generation),
        )
        self._publish_cycle_gauges(record.cycle_report)
        self._publish_compile_gauges()

    # The dispatch loop's questions to the farm.  A farm of one answers
    # "device 0, in packing order", "yes", "no" and "device 0's
    # report", so no probe, eviction or re-pack can fire;
    # ``FabricINAXBackend`` answers them from its supervisor.
    def _begin_generation(self, generation: int) -> None:
        """Farm upkeep before the generation's oversize gate."""

    def _assign(
        self, waves: list[list[int]], predicted: list[float | None] | None
    ) -> dict[int, deque[tuple[int, int]]]:
        """Each device's queue of ``(wave ordinal, next episode)``."""
        return {0: deque((ordinal, 0) for ordinal in range(len(waves)))}

    def _probe(
        self, generation: int, device: int, queues: dict[int, deque]
    ) -> bool:
        """Does ``device`` answer before its next wave-episode?  False:
        it was evicted and its queue re-packed into ``queues``."""
        return True

    def _evict(
        self,
        generation: int,
        device: int,
        error: Exception,
        queues: dict[int, deque],
    ) -> bool:
        """Is ``device``, faulted mid-wave by ``error``, evicted?  True:
        its queue, from the faulted episode on, was re-packed into
        ``queues``; False: the wave-episode falls back to software."""
        return False

    def _finish_generation(self, generation: int) -> CycleReport:
        """The cycle report that closes the generation's record."""
        return self.farm[0].report

    @contextmanager
    def _functional_pass(
        self, genomes: list[Genome], entries: list, parameters: list
    ):
        """Run the generation's episodes first, when the data cannot matter.

        With a :attr:`~repro.inax.accelerator.INAX.replayable` device
        (every device of a farm is built alike), all of ``genomes``'
        episodes run in one pass of :meth:`_episode_records`, and every
        wave-episode dispatched inside the ``with`` block replays its
        cycle accounting from them (:meth:`_device_wave_episode`).
        Otherwise each genome is lowered here, once, from its compiled
        entry and its ``parameters`` view, and the devices load and step
        every wave-episode.  Neither the records nor the configurations
        outlive the block.
        """
        if self.farm[0].replayable:
            self._pass_records = {
                id(genome): records
                for genome, records in zip(
                    genomes,
                    self._episode_records(
                        genomes, entries, parameters=parameters
                    ),
                )
            }
        else:
            self._pass_configs = {
                id(genome): entry.cost.hw_config(view.tolist())
                for genome, entry, view in zip(genomes, entries, parameters)
            }
        try:
            yield
        finally:
            self._pass_records = self._pass_configs = None

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

    def publish_run_gauges(self, registry: MetricsRegistry) -> None:
        super().publish_run_gauges(registry)
        if self.oversize_count:
            registry.gauge("inax.oversize_genomes").set(self.oversize_count)
        if self.fallback_waves:
            registry.gauge("inax.fallback_waves").set(self.fallback_waves)

    def _publish_oversize(self) -> None:
        registry = get_metrics()
        if registry is not None:
            registry.counter("inax.oversize.count").inc()

    def reporter_columns(self) -> dict[str, float]:
        columns = super().reporter_columns()
        columns["oversize"] = float(self.oversize_count)
        # count-based wave occupancy of the generation just evaluated,
        # over the whole farm — the knob the LPT packer moves (the
        # device reports were reset at the top of this generation's
        # _evaluate, so this is per-gen)
        columns["pack_eff"] = utilization(
            sum(device.report.live_slot_steps for device in self.farm),
            sum(device.report.slot_steps_provisioned for device in self.farm),
        )
        if self.fallback is not None:
            columns["fallback_waves"] = float(self.fallback_waves)
        return columns

    def _fall_back(
        self,
        error: Exception,
        indices: list[int],
        genomes: list[Genome],
        episode: int,
    ) -> list[EpisodeRecord]:
        """The degradation ladder for one faulted wave-episode.

        Re-raises ``error`` when no fallback is armed; otherwise counts
        and logs the ``fallback.wave`` and re-runs the wave's episode on
        the software path (the caller has already aborted the device's
        wave).  Fresh envs + the same per-(genome, episode) seeds make
        the records bit-identical to what the device would have
        produced (the backend-parity contract), no matter how far the
        faulted wave got.  The re-run goes through the backend's own
        compile cache and :meth:`_episode_records`, which runs shapes
        that do not vectorize on the interpreted oracle.
        """
        if self.fallback is None:
            raise error
        self.fallback_waves += 1
        self.fallback_genomes += len(genomes)
        self._event(
            "fallback.wave",
            f"gen={self._generation}|offset={indices[0]}|episode={episode}",
            error=type(error).__name__,
            genomes=len(genomes),
        )
        return [
            records[0]
            for records in self._episode_records(genomes, episodes=[episode])
        ]

    def _device_wave_episode(
        self,
        device: INAX,
        genomes: list[Genome],
        entries: list,
        episode: int,
        prefetched: bool = False,
    ):
        """One wave's episode on one device; raises on device faults.

        The one place a wave-episode's execution is chosen.  When the
        live :meth:`_functional_pass` ran the episodes, the records come
        from the pass and ``device`` replays the wave from their lengths
        and the genomes' shape costs (their compiled ``entries``);
        otherwise ``device`` loads the configurations the pass lowered
        and steps the wave in lock-step.  The fresh-env + per-(genome,
        episode) seed discipline makes either way, on any device of the
        farm, produce bit-identical episode records for the same wave.
        """
        if self._pass_records is not None:
            records = [self._pass_records[id(g)][episode] for g in genomes]
            device.replay_wave(
                [entry.cost for entry in entries],
                [r.steps for r in records],
                prefetched=prefetched,
            )
            return records
        device.begin_wave(
            [self._pass_configs[id(g)] for g in genomes],
            prefetched=prefetched,
        )
        envs = [self._make_env() for _ in genomes]
        seeds = [self._episode_seed(genome, episode) for genome in genomes]
        episode_records = run_lockstep(envs, device.step, seeds=seeds)
        device.end_wave()
        return episode_records


#: backend name -> class.  Every entry is a real class whose ``name``
#: is its key; ``repro.fabric`` registers ``"fabric"`` on import.
BACKENDS: dict[str, type[EvaluationBackend]] = {
    "cpu": CPUBackend,
    "cpu-compiled": CompiledCPUBackend,
    "inax": INAXBackend,
}

#: retired backend names -> the registered name they build.  ``gpu``
#: is the E3-GPU pricing point (§VI-A): a GPU computes the same forward
#: passes, so it evaluates on the ``cpu`` path and only the platform
#: model (:class:`repro.hw.gpu_model.GPUModel`) charges GPU rates.
ALIASES: dict[str, str] = {"cpu-fast": "cpu-compiled", "gpu": "cpu"}


def create_backend(
    name: str,
    env_name: str,
    neat_config: NEATConfig,
    *,
    episodes_per_genome: int = 1,
    base_seed: int = 0,
    inax_config: INAXConfig | None = None,
    env_kwargs: dict | None = None,
    fault_plan: FaultPlan | None = None,
    pipeline: PipelineConfig | None = None,
    workers: int = 0,
    supervisor: SupervisorConfig | None = None,
    fallback: str | None = None,
    devices: int = 1,
) -> EvaluationBackend:
    """Build the backend registered as ``name`` (or one of its aliases).

    The one place a backend name becomes an instance, so :class:`~repro.
    core.platform.E3`, ``repro resume`` and the serve pool build the same
    backend for the same name.  Every backend gets the env's
    :func:`default_inax_config` unless ``inax_config`` is given, so every
    generation record carries a cycle report.  ``workers``,
    ``supervisor``, ``fallback`` and ``devices`` reach only the classes
    whose :attr:`~EvaluationBackend.factory_options` name them.  A
    backend built under an alias reports the name it was asked for.
    """
    cls = BACKENDS.get(ALIASES.get(name, name))
    if cls is None:
        names = ", ".join(repr(n) for n in sorted({*BACKENDS, *ALIASES}))
        raise ValueError(f"unknown backend {name!r}; use one of {names}")
    if inax_config is None:
        env = make(env_name, **(env_kwargs or {}))
        inax_config = default_inax_config(env.num_outputs)
    shared = {
        "workers": workers,
        "supervisor": supervisor,
        "fallback": fallback,
        "devices": devices,
    }
    backend = cls(
        env_name,
        neat_config,
        episodes_per_genome=episodes_per_genome,
        base_seed=base_seed,
        inax_config=inax_config,
        env_kwargs=env_kwargs,
        fault_plan=fault_plan,
        pipeline=pipeline,
        **{option: shared[option] for option in cls.factory_options},
    )
    backend.name = name
    return backend
