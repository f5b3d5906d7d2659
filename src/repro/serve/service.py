"""The evolution service: many concurrent experiments, one process.

:class:`EvolutionService` is the asyncio core of ``repro serve``.  It
multiplexes jobs over a :class:`~repro.serve.pool.BackendPool`: the
scheduler fills up to ``max_concurrent`` run slots from the
admission-controlled :class:`~repro.serve.queue.JobQueue`, each job's
synchronous evaluate/evolve loop runs on its own worker thread
(``asyncio.to_thread``), and per-generation progress streams back to
subscribers through the event loop.

**Determinism under concurrency.**  Each job thread gets a *copy* of
the submitting context (``to_thread`` semantics), installs its own
:class:`~repro.telemetry.TelemetrySession` into context-local
variables, and leases a backend whose run state was fully reset — so
N interleaved jobs produce bit-identical fitness trajectories to the
same N jobs run sequentially, and each job's trace contains only its
own spans.  ``tests/serve/test_concurrency.py`` holds this contract.

**Cancellation** is cooperative: ``cancel()`` on a running job sets a
flag the population loop polls at generation boundaries; the job
finishes its current generation, saves a crash-safe checkpoint, and
lands in ``cancelled`` — always resumable via
``JobSpec(resume_from=...)``.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any, AsyncIterator

from repro.core.platform import E3, effective_neat_config
from repro.neat.checkpoint import load_checkpoint, save_checkpoint
from repro.neat.config import NEATConfig
from repro.neat.population import GenerationStats, Population
from repro.serve.jobs import Job, JobSpec, JobState
from repro.serve.pool import BackendPool
from repro.serve.queue import JobQueue, QuotaConfig
from repro.telemetry import TelemetrySession

__all__ = ["EvolutionService", "percentiles"]


def percentiles(
    values: list[float], points: tuple[int, ...] = (50, 95, 99)
) -> dict[str, float]:
    """Nearest-rank percentiles (deterministic, no interpolation)."""
    out: dict[str, float] = {}
    if not values:
        return {f"p{p}": 0.0 for p in points}
    ordered = sorted(values)
    for p in points:
        rank = max(1, -(-p * len(ordered) // 100))  # ceil without floats
        out[f"p{p}"] = ordered[rank - 1]
    return out


class _GenerationReporter:
    """Per-job run reporter: progress, events, mid-run
    checkpoints.  Runs on the job's worker thread; everything that
    must be loop-owned is marshalled via ``call_soon_threadsafe``."""

    def __init__(
        self,
        service: "EvolutionService",
        job: Job,
        population: Population,
    ) -> None:
        self._service = service
        self._job = job
        self._population = population

    def on_generation(self, stats: GenerationStats) -> None:
        job = self._job
        job.generations_done = stats.generation + 1
        job.best_fitness = stats.best_fitness
        job.history.append(stats.best_fitness)
        self._service._publish_threadsafe(
            job,
            {
                "event": "generation",
                "job": job.id,
                "generation": stats.generation,
                "best_fitness": stats.best_fitness,
                "mean_fitness": stats.mean_fitness,
                "num_species": stats.num_species,
            },
        )
        every = job.spec.checkpoint_every
        if every and job.generations_done % every == 0:
            self._service._save_job_checkpoint(job, self._population)


class EvolutionService:
    """Submit / status / stream / cancel / resume over a backend pool.

    All public coroutines must be called from the service's event
    loop; the synchronous evolution work happens on worker threads the
    service owns.  ``data_dir`` (optional) is where per-job artifacts
    land: ``<job>.ckpt.json`` checkpoints and ``<job>.trace.jsonl``
    traces — without it, checkpoint/trace options are ignored.
    """

    def __init__(
        self,
        max_concurrent: int = 4,
        quotas: QuotaConfig | None = None,
        pool: BackendPool | None = None,
        data_dir: str | Path | None = None,
        keep_checkpoints: int = 2,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self.quotas = quotas if quotas is not None else QuotaConfig()
        self.queue = JobQueue(self.quotas)
        self.pool = (
            pool
            if pool is not None
            else BackendPool(max_leases=max_concurrent * 2)
        )
        self.data_dir = Path(data_dir) if data_dir is not None else None
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
        self.keep_checkpoints = keep_checkpoints
        self.jobs: dict[str, Job] = {}
        self._next_job = 0
        self._running: dict[str, Job] = {}
        self._tasks: dict[str, asyncio.Task[None]] = {}
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._scheduler: asyncio.Task[None] | None = None

    # --------------------------------------------------------- lifecycle
    async def start(self) -> "EvolutionService":
        """Bind to the running loop and start the scheduler."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._scheduler = asyncio.create_task(self._schedule_loop())
        return self

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` lets running jobs finish and cancels everything
        still queued; ``drain=False`` also requests cooperative cancel
        on every running job (each finishes its current generation and
        checkpoints).  Idempotent; always leaves the pool closed.
        """
        self._closed = True
        while True:
            job = self.queue.pop_eligible({})
            if job is None:
                break
            self._finish_cancelled_queued(job)
        if not drain:
            for job in list(self._running.values()):
                job.cancel_event.set()
                if job.state is JobState.RUNNING:
                    job.state = JobState.CANCELLING
        if self._wake is not None:
            self._wake.set()
        tasks = list(self._tasks.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        self.pool.close()

    # ------------------------------------------------------------ submit
    async def submit(
        self, spec: JobSpec, tenant: str = "default", priority: int = 0
    ) -> str:
        """Validate, admit, and enqueue one job; returns its id.

        Raises ``ValueError`` on a malformed spec and
        :class:`~repro.serve.queue.AdmissionError` on quota refusal.
        Job ids are a deterministic counter — submission order, not
        wall clock or randomness, names the job.
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        spec.validate()
        if spec.resume_from is not None:
            resume = Path(spec.resume_from)
            if not resume.exists():
                raise ValueError(f"resume_from not found: {resume}")
        job_id = f"job-{self._next_job:05d}"
        job = Job(
            id=job_id,
            spec=spec,
            tenant=tenant,
            priority=priority,
            submitted_at=self._now(),
        )
        self.queue.submit(job)  # raises AdmissionError before recording
        self._next_job += 1
        self.jobs[job_id] = job
        self._publish(
            job,
            {"event": "queued", "job": job_id, "tenant": tenant,
             "priority": priority},
        )
        assert self._wake is not None, "service not started"
        self._wake.set()
        return job_id

    # ----------------------------------------------------------- queries
    def status(self, job_id: str) -> dict[str, Any]:
        return self._get(job_id).to_dict()

    def list_jobs(self) -> list[dict[str, Any]]:
        return [self.jobs[job_id].to_dict() for job_id in sorted(self.jobs)]

    async def wait(self, job_id: str) -> dict[str, Any]:
        """Block until the job is terminal; returns its final status."""
        job = self._get(job_id)
        await job.done_event.wait()
        return job.to_dict()

    async def stream(self, job_id: str) -> AsyncIterator[dict[str, Any]]:
        """Replay a job's event history, then follow it live until the
        terminal ``done`` event."""
        job = self._get(job_id)
        queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        # subscribe first, snapshot second — same loop tick, so no
        # event can fall between replay and live delivery
        job.watchers.append(queue)
        replay = list(job.events)
        try:
            for event in replay:
                yield event
                if event.get("event") == "done":
                    return
            while True:
                event = await queue.get()
                yield event
                if event.get("event") == "done":
                    return
        finally:
            if queue in job.watchers:
                job.watchers.remove(queue)

    def stats(self) -> dict[str, Any]:
        """Service-level counters + submit-to-complete tail latency."""
        by_state: dict[str, int] = {}
        latencies: list[float] = []
        for job in self.jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
            latency = job.latency()
            if latency is not None:
                latencies.append(latency)
        return {
            "jobs": by_state,
            "queued": len(self.queue),
            "running": len(self._running),
            "latency_seconds": percentiles(latencies),
            "pool": self.pool.stats(),
        }

    # ------------------------------------------------------------ cancel
    async def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job; queued jobs die immediately, running jobs
        cooperatively (current generation finishes, checkpoint saved)."""
        job = self._get(job_id)
        if job.state is JobState.QUEUED and self.queue.remove(job):
            self._finish_cancelled_queued(job)
        elif job.state in (JobState.RUNNING, JobState.CANCELLING):
            job.cancel_event.set()
            job.state = JobState.CANCELLING
        return job.to_dict()

    # --------------------------------------------------------- internals
    def _get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    @staticmethod
    def _now() -> float:
        return time.perf_counter()

    def _finish_cancelled_queued(self, job: Job) -> None:
        job.state = JobState.CANCELLED
        job.finished_at = self._now()
        self._publish_done(job)

    def _publish(self, job: Job, event: dict[str, Any]) -> None:
        """Append + fan out one event (event loop thread only)."""
        job.events.append(event)
        for queue in list(job.watchers):
            queue.put_nowait(event)

    def _publish_threadsafe(self, job: Job, event: dict[str, Any]) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._publish, job, event)

    def _publish_done(self, job: Job) -> None:
        self._publish(
            job,
            {
                "event": "done",
                "job": job.id,
                "state": job.state.value,
                "generations": job.generations_done,
                "best_fitness": job.best_fitness,
                "solved": job.solved,
                "error": job.error,
            },
        )
        job.done_event.set()

    # --------------------------------------------------------- scheduler
    async def _schedule_loop(self) -> None:
        assert self._wake is not None
        while True:
            self._wake.clear()
            self._fill_slots()
            await self._wake.wait()

    def _fill_slots(self) -> None:
        if self._closed:
            return
        while len(self._running) < self.max_concurrent:
            running_per_tenant: dict[str, int] = {}
            for job in self._running.values():
                running_per_tenant[job.tenant] = (
                    running_per_tenant.get(job.tenant, 0) + 1
                )
            job = self.queue.pop_eligible(running_per_tenant)
            if job is None:
                return
            job.state = JobState.RUNNING
            job.started_at = self._now()
            self._running[job.id] = job
            self._tasks[job.id] = asyncio.create_task(self._run_job(job))

    async def _run_job(self, job: Job) -> None:
        spec = job.spec
        try:
            population: Population | None = None
            if spec.resume_from is not None:
                population = await asyncio.to_thread(
                    load_checkpoint, spec.resume_from
                )
                config = population.config
            else:
                config = effective_neat_config(
                    spec.env,
                    NEATConfig(population_size=spec.population_size),
                )
            lease = self.pool.lease(
                spec.env,
                spec.backend,
                config,
                episodes_per_genome=spec.episodes_per_genome,
                workers=spec.workers,
                base_seed=spec.seed,
            )
        except Exception as error:
            job.error = f"{type(error).__name__}: {error}"
            job.state = JobState.FAILED
            job.finished_at = self._now()
            self._publish_done(job)
            self._job_slot_freed(job)
            return
        discard = True
        try:
            discard = await asyncio.to_thread(
                self._execute, job, lease.backend, config, population
            )
        finally:
            lease.release(discard=discard)
            job.finished_at = self._now()
            self._publish_done(job)
            self._job_slot_freed(job)

    def _job_slot_freed(self, job: Job) -> None:
        self._running.pop(job.id, None)
        self._tasks.pop(job.id, None)
        assert self._wake is not None
        self._wake.set()

    # ------------------------------------------------------- worker side
    def _execute(
        self,
        job: Job,
        backend: Any,
        config: NEATConfig,
        population: Population | None,
    ) -> bool:
        """Run one job's whole evolution loop (worker thread).

        Returns True when the leased backend should be discarded (the
        failure path — it may hold arbitrary partial state).
        """
        spec = job.spec
        # the serve daemon *is* the session layer for its jobs: one
        # context-local session per traced job, never on a hot path
        session = None
        if spec.trace:
            session = TelemetrySession()  # repro: noqa[TEL001]
        try:
            e3 = E3(
                spec.env,
                backend=backend,
                neat_config=config,
                seed=spec.seed,
                telemetry=session,
                population=population,
            )
            e3.reporters.add(_GenerationReporter(self, job, e3.population))
            if population is not None:
                # a restored population has no cache state; warm the
                # structural caches exactly like `repro resume` does
                backend.warm_caches(e3.population.population)
            result = e3.run(
                max_generations=spec.generations,
                stop=job.cancel_event.is_set,
            )
        except Exception as error:
            job.error = f"{type(error).__name__}: {error}"
            job.state = JobState.FAILED
            return True
        job.solved = result.solved
        job.best_fitness = result.best_fitness
        job.generations_done = result.generations
        if spec.checkpoint:
            self._save_job_checkpoint(job, e3.population)
        if session is not None and self.data_dir is not None:
            trace_path = self.data_dir / f"{job.id}.trace.jsonl"
            session.export(trace_path=trace_path)
            job.trace_path = str(trace_path)
        if job.cancel_event.is_set() and not result.solved:
            job.state = JobState.CANCELLED
        else:
            job.state = JobState.COMPLETED
        return False

    def _save_job_checkpoint(self, job: Job, population: Population) -> None:
        """Write ``<job>.ckpt.json`` (crash-safe, rotated)."""
        if self.data_dir is None:
            return
        path = self.data_dir / f"{job.id}.ckpt.json"
        save_checkpoint(population, path, keep=self.keep_checkpoints)
        job.checkpoint_path = str(path)
