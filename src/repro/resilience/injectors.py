"""Fault injectors: adapters between a :class:`FaultPlan` and the hardware
model / environment surfaces where faults land.

:class:`DeviceFaultInjector` is the INAX-side adapter — the
:class:`~repro.inax.accelerator.INAX` device calls into it at wave
load, at each lock-step, and around each DMA transfer.  Every hook is
keyed by a ``wave=W|step=S|slot=K`` site string, so injected hardware
faults are replayable and independent of host timing.  Cycle-only
faults (``inax.pu_stall``, ``dma.input_drop``) perturb the cycle
accounting but never the computed values; data faults
(``inax.weight_bitflip``, ``inax.value_bitflip``,
``dma.output_corrupt``) corrupt exactly one float64 bit per firing.

:func:`wrap_env` is the environment-side adapter: it wraps an env in
:class:`~repro.envs.wrappers.FaultySensor` when the plan arms any
``env.*`` kind, so NaN/inf sensor faults flow through the normal
observation path and exercise the quarantine machinery downstream.
"""

from __future__ import annotations

from typing import Any

import numpy as np

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
    MIGRATION_CORRUPT,
    PU_STALL,
    VALUE_BITFLIP,
    WEIGHT_BITFLIP,
    DeviceFault,
    FaultPlan,
    flip_float64_bit,
)

__all__ = [
    "DeviceFaultInjector",
    "wrap_env",
    "has_device_faults",
    "has_env_faults",
    "has_fabric_faults",
]

#: default extra cycles for ``inax.pu_stall`` when the spec has no param
_DEFAULT_STALL_CYCLES = 1000
#: default heartbeat penalty base cycles when the spec has no param
_DEFAULT_HEARTBEAT_CYCLES = 256


def has_device_faults(plan: FaultPlan | None) -> bool:
    return plan is not None and plan.has(*DEVICE_KINDS)


def has_env_faults(plan: FaultPlan | None) -> bool:
    return plan is not None and plan.has(*ENV_KINDS)


def has_fabric_faults(plan: FaultPlan | None) -> bool:
    return plan is not None and plan.has(*FABRIC_KINDS)


def wrap_env(env: Any, plan: FaultPlan | None) -> Any:
    """Wrap ``env`` in a :class:`FaultySensor` when env faults are armed."""
    if not has_env_faults(plan):
        return env
    from repro.envs.wrappers import FaultySensor

    assert plan is not None  # has_env_faults guarantees it

    def probability(kind: str) -> float:
        spec = plan.spec(kind)
        return spec.probability if spec is not None else 0.0

    return FaultySensor(
        env,
        obs_nan=probability(ENV_OBS_NAN),
        obs_inf=probability(ENV_OBS_INF),
        reward_nan=probability(ENV_REWARD_NAN),
        seed=plan.seed,
    )


class DeviceFaultInjector:
    """INAX-facing fault hooks, all keyed by (wave, step, slot) sites.

    ``site_prefix`` namespaces every site string (the fabric prepends
    ``dev=N|`` per device, so two devices probing the same wave/step
    coordinates draw independently).  The ``fabric.*`` hooks at the
    bottom are farm-level — the :class:`~repro.fabric.supervisor.
    FabricSupervisor` calls them with generation-scoped sites.
    """

    def __init__(self, plan: FaultPlan, site_prefix: str = "") -> None:
        self.plan = plan
        self.site_prefix = site_prefix

    # ------------------------------------------------------------ wave load
    def on_load(self, pu: Any, wave: int, slot: int) -> None:
        """Maybe flip one weight/bias bit in the PU's just-loaded config."""
        site = f"{self.site_prefix}wave={wave}|slot={slot}"
        if not self.plan.fires(WEIGHT_BITFLIP, site):
            return
        detail = pu.flip_weight_bit(self.plan.rng_for(WEIGHT_BITFLIP, site))
        if detail is not None:
            self.plan.record(WEIGHT_BITFLIP, site, **detail)

    # ------------------------------------------------------------ lock-step
    def check_wedge(self, wave: int, step: int) -> None:
        """Raise :class:`DeviceFault` when the device wedges this step."""
        site = f"{self.site_prefix}wave={wave}|step={step}"
        if self.plan.fires(DEVICE_WEDGE, site):
            self.plan.record(DEVICE_WEDGE, site)
            raise DeviceFault(f"injected inax.wedge at {site}")

    def stall_cycles(self, wave: int, step: int, slot: int) -> int:
        """Extra cycles a stalled PU burns this step (0 = no stall)."""
        spec = self.plan.spec(PU_STALL)
        if spec is None:
            return 0
        site = f"{self.site_prefix}wave={wave}|step={step}|slot={slot}"
        if not self.plan.fires(PU_STALL, site):
            return 0
        cycles = int(spec.param) if spec.param > 0 else _DEFAULT_STALL_CYCLES
        self.plan.record(PU_STALL, site, cycles=cycles)
        return cycles

    def input_retries(self, wave: int, step: int) -> int:
        """Dropped input DMA transfers this step (each one is re-sent)."""
        site = f"{self.site_prefix}wave={wave}|step={step}"
        if self.plan.fires(DMA_INPUT_DROP, site):
            self.plan.record(DMA_INPUT_DROP, site)
            return 1
        return 0

    # ----------------------------------------------------------- data paths
    def _flip_element(
        self, values: np.ndarray, kind: str, site: str
    ) -> np.ndarray:
        rng = self.plan.rng_for(kind, site)
        flat = np.array(values, dtype=float).reshape(-1)
        if flat.size == 0:
            return values
        index = int(rng.integers(flat.size))
        bit = int(rng.integers(64))
        before = float(flat[index])
        flat[index] = flip_float64_bit(before, bit)
        self.plan.record(
            kind, site,
            index=index, bit=bit, before=before, after=float(flat[index]),
        )
        return flat.reshape(np.shape(values))

    def corrupt_input(
        self, values: np.ndarray, wave: int, step: int, slot: int
    ) -> np.ndarray:
        """Maybe flip one bit in a slot's input value buffer."""
        site = f"{self.site_prefix}wave={wave}|step={step}|slot={slot}|in"
        if not self.plan.fires(VALUE_BITFLIP, site):
            return values
        return self._flip_element(values, VALUE_BITFLIP, site)

    def corrupt_output(
        self, values: np.ndarray, wave: int, step: int, slot: int
    ) -> np.ndarray:
        """Maybe flip one bit in a slot's DMA'd output."""
        site = f"{self.site_prefix}wave={wave}|step={step}|slot={slot}|out"
        if not self.plan.fires(DMA_OUTPUT_CORRUPT, site):
            return values
        return self._flip_element(values, DMA_OUTPUT_CORRUPT, site)

    # --------------------------------------------------------- fabric hooks
    def device_drops(self, gen: int, device: int, dispatch: "int | str") -> bool:
        """Does this device miss its heartbeat probe outright?

        ``dispatch`` counts probes within the generation (a re-probed
        device gets a fresh draw); the probationary re-admission probe
        passes the literal ``"probe"`` so it draws independently of the
        dispatch stream.
        """
        site = f"{self.site_prefix}gen={gen}|device={device}|dispatch={dispatch}"
        if self.plan.fires(DEVICE_DROP, site):
            self.plan.record(DEVICE_DROP, site)
            return True
        return False

    def heartbeat_delay_cycles(
        self, gen: int, device: int, dispatch: int, misses: int,
        backoff_factor: float = 2.0,
    ) -> int:
        """Penalty cycles a late-heartbeat device burns at this probe.

        The penalty grows exponentially with the device's consecutive
        miss count (capped), mirroring the shard supervisor's retry
        backoff in the cycle domain.
        """
        spec = self.plan.spec(HEARTBEAT_DELAY)
        if spec is None:
            return 0
        site = f"{self.site_prefix}gen={gen}|device={device}|dispatch={dispatch}"
        if not self.plan.fires(HEARTBEAT_DELAY, site):
            return 0
        base = int(spec.param) if spec.param > 0 else _DEFAULT_HEARTBEAT_CYCLES
        cycles = int(base * backoff_factor ** min(misses, 10))
        self.plan.record(HEARTBEAT_DELAY, site, cycles=cycles, misses=misses)
        return cycles

    def migration_corrupted(self, gen: int, src: int, dst: int) -> bool:
        """Is the island-migration edge ``src -> dst`` dropped this barrier?"""
        site = f"{self.site_prefix}gen={gen}|edge={src}->{dst}"
        if self.plan.fires(MIGRATION_CORRUPT, site):
            self.plan.record(MIGRATION_CORRUPT, site)
            return True
        return False
