"""Resilience: deterministic fault injection, supervision, degradation.

E3's premise is *autonomous* learning at the edge — the evolve/evaluate
loop must survive flaky hardware unattended.  This package makes fault
scenarios a first-class, replayable workload:

* :mod:`repro.resilience.faults` — :class:`FaultPlan`: seeded,
  stateless fault draws (every fault is a pure function of
  ``(seed, kind, site)``), the fault-kind taxonomy, and structured
  :class:`ResilienceEvent` records;
* :mod:`repro.resilience.injectors` — adapters that land plan faults
  on the INAX device model and the environment observation path;
* :mod:`repro.resilience.supervisor` — the cpu-fast shard watchdog
  with retry/backoff on a respawned pool and in-process degradation;
* :mod:`repro.resilience.quarantine` — the non-finite-fitness sentinel
  that keeps NaN out of selection.

The degradation ladder is ``inax -> cpu-fast -> cpu``: a faulted INAX
wave falls back to the bit-identical software path, a failed shard
retries then degrades to in-process evaluation, and because every
episode is seeded per ``(genome, episode)`` the ladder never changes
results — see ``docs/resilience.md``.
"""

from repro.resilience.faults import (
    DEVICE_DROP,
    DEVICE_KINDS,
    DEVICE_WEDGE,
    DMA_INPUT_DROP,
    DMA_OUTPUT_CORRUPT,
    ENV_KINDS,
    ENV_OBS_INF,
    ENV_OBS_NAN,
    ENV_REWARD_NAN,
    FABRIC_KINDS,
    HEARTBEAT_DELAY,
    KNOWN_KINDS,
    MIGRATION_CORRUPT,
    PU_STALL,
    VALUE_BITFLIP,
    WEIGHT_BITFLIP,
    WORKER_CRASH,
    WORKER_ERROR,
    WORKER_HANG,
    WORKER_KINDS,
    DeviceFault,
    FaultPlan,
    FaultSpec,
    InjectedWorkerError,
    ResilienceEvent,
    emit_event,
    flip_float64_bit,
    maybe_fail_worker,
)
from repro.resilience.injectors import (
    DeviceFaultInjector,
    has_device_faults,
    has_env_faults,
    has_fabric_faults,
    wrap_env,
)
from repro.resilience.quarantine import (
    DEFAULT_PENALTY,
    QUARANTINE,
    quarantine_nonfinite,
)
from repro.resilience.supervisor import (
    ShardSupervisor,
    SupervisorConfig,
    shutdown_pool,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "ResilienceEvent",
    "DeviceFault",
    "InjectedWorkerError",
    "DeviceFaultInjector",
    "ShardSupervisor",
    "SupervisorConfig",
    "shutdown_pool",
    "quarantine_nonfinite",
    "wrap_env",
    "emit_event",
    "flip_float64_bit",
    "maybe_fail_worker",
    "has_device_faults",
    "has_env_faults",
    "has_fabric_faults",
    "QUARANTINE",
    "DEFAULT_PENALTY",
    "KNOWN_KINDS",
    "WORKER_KINDS",
    "DEVICE_KINDS",
    "ENV_KINDS",
    "FABRIC_KINDS",
    "WORKER_CRASH",
    "WORKER_HANG",
    "WORKER_ERROR",
    "WEIGHT_BITFLIP",
    "VALUE_BITFLIP",
    "PU_STALL",
    "DEVICE_WEDGE",
    "DMA_INPUT_DROP",
    "DMA_OUTPUT_CORRUPT",
    "ENV_OBS_NAN",
    "ENV_OBS_INF",
    "ENV_REWARD_NAN",
    "DEVICE_DROP",
    "HEARTBEAT_DELAY",
    "MIGRATION_CORRUPT",
]
