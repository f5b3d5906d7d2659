"""Job and session model for the evolution service.

A :class:`JobSpec` is the immutable description of one experiment a
tenant wants run (environment, backend, population, generations,
seed, checkpoint/trace options); a :class:`Job` is the service-side
record tracking that experiment through its lifecycle::

    queued -> running -> completed
                    \\-> cancelled   (cooperative, at a generation
                    \\-> failed       boundary; always checkpointable)

Design rule for the whole ``repro.serve`` package: **no module-level
run state**.  Every piece of mutable state lives on a ``Job``, a
``JobQueue``, a ``BackendPool``, or an ``EvolutionService`` instance,
so any number of services (and their jobs) can coexist in one process
— ``tests/serve/test_no_global_state.py`` enforces this with an AST
scan.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any

from repro.core.backends import ALIASES, BACKENDS
from repro.envs.registry import spec as env_spec

__all__ = ["JobState", "JobSpec", "Job", "TERMINAL_STATES"]


class JobState(Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    #: cancel requested while running; the job finishes its current
    #: generation, saves a checkpoint, and lands in CANCELLED
    CANCELLING = "cancelling"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"


#: states a job never leaves
TERMINAL_STATES = frozenset(
    (JobState.COMPLETED, JobState.CANCELLED, JobState.FAILED)
)


@dataclass(frozen=True)
class JobSpec:
    """One experiment, as submitted (immutable; travels over the wire).

    ``resume_from`` points at a crash-safe checkpoint written by a
    previous job (or ``repro run --checkpoint``); the restored
    population continues exactly — same genomes, species, innovation
    counters, RNG stream.  ``checkpoint_every`` additionally saves
    every N generations mid-run (0 = only the final/cancel
    checkpoint).  ``trace`` attaches a per-job telemetry session whose
    trace contains *only this job's* spans (the determinism-under-
    concurrency contract) and exports it next to the checkpoint.
    """

    env: str = "cartpole"
    backend: str = "cpu-fast"
    population_size: int = 24
    generations: int = 5
    seed: int = 0
    episodes_per_genome: int = 1
    workers: int = 0
    #: save a final (and on-cancel) checkpoint under the service's
    #: data dir so the job is resumable
    checkpoint: bool = True
    checkpoint_every: int = 0
    resume_from: str | None = None
    trace: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` for anything malformed (pre-admission)."""
        try:
            env_spec(self.env)
        except KeyError as error:
            raise ValueError(str(error)) from error
        if self.backend not in BACKENDS and self.backend not in ALIASES:
            names = ", ".join(repr(n) for n in sorted({*BACKENDS, *ALIASES}))
            raise ValueError(
                f"unknown backend {self.backend!r}; use one of {names}"
            )
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.episodes_per_genome < 1:
            raise ValueError("episodes_per_genome must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {unknown}")
        return cls(**payload)


@dataclass
class Job:
    """Service-side record of one submitted experiment.

    Latency stamps use ``perf_counter`` seconds (monotonic, process
    local) — they exist to measure queue/run durations, never to be
    wall-clock timestamps.  ``events`` is the replayable telemetry
    stream (appended only on the service's event loop thread, so
    watchers never race the writer); ``cancel_event`` is the
    cooperative cancel flag the run thread polls at generation
    boundaries.
    """

    id: str
    spec: JobSpec
    tenant: str = "default"
    priority: int = 0
    submitted_at: float = 0.0
    state: JobState = JobState.QUEUED
    started_at: float | None = None
    finished_at: float | None = None
    generations_done: int = 0
    best_fitness: float | None = None
    solved: bool = False
    error: str | None = None
    checkpoint_path: str | None = None
    trace_path: str | None = None
    #: per-generation best fitness, for bit-identity assertions
    history: list[float] = field(default_factory=list)
    #: replayable event stream (dicts; last one has ``event: "done"``)
    events: list[dict[str, Any]] = field(default_factory=list)
    #: live stream subscribers (asyncio queues owned by the loop)
    watchers: list["asyncio.Queue[dict[str, Any]]"] = field(
        default_factory=list
    )
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def latency(self) -> float | None:
        """Submit-to-complete seconds, once terminal."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe status snapshot (the ``status`` wire payload)."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state.value,
            "spec": self.spec.to_dict(),
            "generations_done": self.generations_done,
            "best_fitness": self.best_fitness,
            "solved": self.solved,
            "error": self.error,
            "checkpoint_path": self.checkpoint_path,
            "trace_path": self.trace_path,
            "latency_seconds": self.latency(),
        }
