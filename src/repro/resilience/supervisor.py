"""Shard supervision: watchdog, retry with backoff, graceful degrade.

``CompiledCPUBackend`` hands each generation's shards to a
:class:`ShardSupervisor` instead of calling ``Pool.map`` directly.  The
supervisor turns three failure modes into recoverable events:

* **hard crash** (``os._exit`` in a worker) — ``multiprocessing.Pool``
  respawns the process but silently *drops* the in-flight task, so the
  only reliable detection is the shard watchdog timing out;
* **hang** — same watchdog;
* **exception** — surfaces directly through ``AsyncResult.get``.

Failed shards are retried on a freshly-spawned pool with exponential
backoff; the per-(genome, episode) seeding contract makes a retried
shard bit-identical to a first-try one, so supervision never changes
results.  After ``max_retries`` the failed shards degrade to an
in-process fallback (the caller supplies it), and after
``disable_after`` consecutive degraded generations the supervisor
disables itself — the backend then stops sharding entirely rather than
paying respawn churn forever.

Pool teardown is bounded: ``Pool.join`` has no timeout, so
:func:`shutdown_pool` joins on a daemon thread and gives up after
``join_timeout`` seconds — a wedged worker can never hang interpreter
shutdown.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.resilience.faults import ResilienceEvent, emit_event

__all__ = ["SupervisorConfig", "ShardSupervisor", "shutdown_pool"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Recovery-policy knobs shared by shard and fabric supervision.

    One frozen config covers both supervisors so a run's recovery
    policy is a single recordable value (``RunManifest.supervisor``):
    the shard watchdog reads the timeout/backoff knobs in the
    wall-clock domain, the fabric supervisor reads ``max_retries``/
    ``backoff_factor`` in the heartbeat/cycle domain plus its own
    ``probation_generations``.
    """

    #: watchdog: one attempt's shards must all finish within this window
    shard_timeout: float = 120.0
    #: shard retries per generation before failed shards degrade
    #: in-process; fabric heartbeat misses per generation before a
    #: device is evicted
    max_retries: int = 2
    #: backoff delay = min(base * factor**attempt, max); the fabric
    #: reuses ``backoff_factor`` to scale heartbeat penalty cycles
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: bound on ``Pool.join`` during teardown/respawn
    join_timeout: float = 5.0
    #: consecutive degraded generations before sharding is disabled
    disable_after: int = 3
    #: generations an evicted fabric device sits out before its
    #: probationary re-admission probe
    probation_generations: int = 1


def shutdown_pool(pool: Any, join_timeout: float = 5.0) -> bool:
    """``terminate()`` + bounded ``join()``; True when the join finished.

    ``multiprocessing.Pool.join`` cannot time out, so it runs on a
    daemon thread; a worker that ignores SIGTERM leaks the (daemonic)
    joiner instead of wedging the caller.
    """
    pool.terminate()
    joiner = threading.Thread(
        target=pool.join, name="repro-pool-join", daemon=True
    )
    joiner.start()
    joiner.join(join_timeout)
    return not joiner.is_alive()


class ShardSupervisor:
    """Run shard tasks on a pool with watchdog, retry, and degradation.

    ``pool_factory`` builds a fresh initialized pool; ``worker_fn`` is
    the picklable task function.  :meth:`run` is called once per
    generation with per-shard task builders (the attempt index is part
    of the task so injected faults re-draw on retry) and an in-process
    fallback used once retries are exhausted.
    """

    def __init__(
        self,
        pool_factory: Callable[[], Any],
        worker_fn: Callable[[Any], Any],
        config: SupervisorConfig | None = None,
    ) -> None:
        self.pool_factory = pool_factory
        self.worker_fn = worker_fn
        self.config = config if config is not None else SupervisorConfig()
        self._pool: Any = None
        self.reset_run_state()

    # ------------------------------------------------------------ lifecycle
    def reset_run_state(self) -> None:
        """Forget everything one run accumulated: events, counters and
        the disabled latch.  A live pool stays warm; a supervisor that
        disabled itself has already closed its pool, and the next
        :meth:`run` spawns a fresh one."""
        self.events: list[ResilienceEvent] = []
        self.retries = 0
        self.timeouts = 0
        self.errors = 0
        self.respawns = 0
        self.degraded_shards = 0
        #: consecutive run() calls that needed the in-process fallback
        self.consecutive_degraded = 0
        #: once True, the caller should stop sharding (see disable_after)
        self.disabled = False

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            self._pool = self.pool_factory()
        return self._pool

    def close(self) -> None:
        """Tear down the pool (bounded); safe to call repeatedly."""
        if self._pool is not None:
            shutdown_pool(self._pool, self.config.join_timeout)
            self._pool = None

    def _record(self, kind: str, site: str, **details: Any) -> None:
        event = ResilienceEvent(kind=kind, site=site, details=dict(details))
        self.events.append(event)
        emit_event(kind, site)

    # ------------------------------------------------------------------ run
    def run(
        self,
        num_shards: int,
        task_builder: Callable[[int, int], Any],
        fallback: Callable[[int], Any],
        site_prefix: str = "",
    ) -> list[Any]:
        """Evaluate ``num_shards`` tasks; always returns every result.

        ``task_builder(shard_index, attempt)`` builds the task shipped
        to the pool; ``fallback(shard_index)`` computes the same result
        in-process.  Failed shards retry on a respawned pool up to
        ``max_retries`` times, then degrade to the fallback.
        """
        results: list[Any] = [None] * num_shards
        if self.disabled:
            for index in range(num_shards):
                results[index] = fallback(index)
            return results

        pending = list(range(num_shards))
        attempt = 0
        degraded_this_run = False
        while pending:
            pool = self._ensure_pool()
            handles = {
                index: pool.apply_async(
                    self.worker_fn, (task_builder(index, attempt),)
                )
                for index in pending
            }
            deadline = time.monotonic() + self.config.shard_timeout
            failed: list[int] = []
            for index in pending:
                remaining = max(0.0, deadline - time.monotonic())
                site = f"{site_prefix}shard={index}|attempt={attempt}"
                try:
                    results[index] = handles[index].get(remaining)
                except multiprocessing.TimeoutError:
                    self.timeouts += 1
                    failed.append(index)
                    self._record("shard.timeout", site)
                except Exception as error:
                    self.errors += 1
                    failed.append(index)
                    self._record(
                        "shard.error", site,
                        error=type(error).__name__, message=str(error),
                    )
            if not failed:
                break
            if attempt >= self.config.max_retries:
                for index in failed:
                    results[index] = fallback(index)
                    self.degraded_shards += 1
                    self._record(
                        "shard.degraded",
                        f"{site_prefix}shard={index}|attempt={attempt}",
                    )
                degraded_this_run = True
                break
            # a crashed/hung worker poisons the whole pool state: tear it
            # down (bounded) and respawn before retrying the failed shards
            joined = shutdown_pool(self._pool, self.config.join_timeout)
            self._pool = None
            self.respawns += 1
            self._record(
                "pool.respawn",
                f"{site_prefix}attempt={attempt}",
                joined=joined,
                failed_shards=len(failed),
            )
            delay = min(
                self.config.backoff_base * self.config.backoff_factor**attempt,
                self.config.backoff_max,
            )
            if delay > 0:
                time.sleep(delay)
            self.retries += len(failed)
            pending = failed
            attempt += 1

        if degraded_this_run:
            self.consecutive_degraded += 1
            if (
                not self.disabled
                and self.consecutive_degraded >= self.config.disable_after
            ):
                self.disabled = True
                self._record(
                    "supervisor.disabled",
                    f"{site_prefix}consecutive={self.consecutive_degraded}",
                )
                self.close()
        else:
            self.consecutive_degraded = 0
        return results
