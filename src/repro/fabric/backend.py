"""The fabric evaluation backend: one generation across N devices.

:class:`FabricINAXBackend` runs :class:`~repro.core.backends.INAXBackend`'s
one dispatch loop over a supervised farm of N devices; ``inax`` is the
same loop over a farm of one.  The loop asks the backend a few
questions, and the farm answers them from its
:class:`~repro.fabric.supervisor.FabricSupervisor`:

* **where the waves go** — waves are packed exactly as on one device
  (``pack_waves``), then LPT-assigned across the alive devices at the
  costs :func:`~repro.fabric.topology.wave_costs` gives them
  (:func:`~repro.fabric.topology.assign_waves`);
* **whether a device answers** — every wave-episode dispatch is
  preceded by a :meth:`~repro.fabric.supervisor.FabricSupervisor.probe`;
* **whether a faulted device is evicted** — a device that misses its
  heartbeats (or hard-faults mid-wave) is evicted and its remaining
  queue is deterministically re-packed onto the survivors; the last
  alive device is never evicted, and its faulted wave-episodes fall
  back to software like the single device's;
* **which report closes the generation** — the critical-path device's
  (below).

The per-(genome, episode) seeding contract makes device placement
invisible to fitness, so a fault-ridden run is *fitness-identical* to a
clean run of the same seed — eviction and re-pack can only move cycles,
never results.  Every device gets its own injector site prefix
(``dev=N|``) and span track prefix (``devN.``); the single ``inax``
device gets neither.

Cycle accounting: devices run in parallel in the cycle domain, so the
generation's wall-clock is the max over per-device report cycles plus
heartbeat penalties; the critical-path device's report becomes the
generation record's ``cycle_report``.

:func:`price_farm` is the analytic twin — it prices a workload across
``N`` healthy devices without functional execution, for the scaling
bench (``BENCH_fabric.json``).
"""

from __future__ import annotations

from collections import deque

from repro.core.backends import BACKENDS, INAXBackend
from repro.fabric.supervisor import FabricSupervisor
from repro.fabric.topology import assign_waves, wave_costs
from repro.inax.accelerator import INAXConfig, pack_generation, schedule_waves
from repro.inax.pipeline import PipelineConfig
from repro.inax.timing import CycleReport
from repro.neat.config import NEATConfig
from repro.resilience.injectors import DeviceFaultInjector, has_fabric_faults
from repro.resilience.supervisor import SupervisorConfig
from repro.telemetry import get_metrics, get_tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import span as _span

__all__ = ["FabricINAXBackend", "price_farm"]


class FabricINAXBackend(INAXBackend):
    """Island-ready N-device INAX farm with supervised fault recovery."""

    name = "fabric"
    factory_options = ("fallback", "devices", "supervisor")

    def __init__(
        self,
        env_name: str,
        neat_config: NEATConfig,
        *,
        devices: int = 2,
        supervisor: SupervisorConfig | None = None,
        **options,
    ):
        """``devices`` sizes the farm; ``supervisor`` is the shared
        recovery policy (:class:`SupervisorConfig` — the same frozen
        config the shard supervisor reads, recorded in the run
        manifest).  Every other option goes to :class:`INAXBackend`.
        """
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        self.num_devices = devices
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        super().__init__(env_name, neat_config, **options)

    def _build_farm(self) -> None:
        """The N devices, their supervisor and the farm's accounting.

        One INAX per device, each with its own injector namespace — two
        devices probing the same (wave, step) site must draw
        independently, and their span tracks must stay distinct.
        :meth:`reset_run_state` rebuilds all of it, so no eviction,
        heartbeat event or wall-clock outlives a run.
        """
        self.farm = [
            self._make_device(f"dev={index}|", f"dev{index}.")
            for index in range(self.num_devices)
        ]
        fault_plan = self.fault_plan
        farm_injector = (
            DeviceFaultInjector(fault_plan)
            if fault_plan is not None and has_fabric_faults(fault_plan)
            else None
        )
        self.fabric = FabricSupervisor(
            self.num_devices,
            config=self.supervisor_config,
            injector=farm_injector,
        )
        #: the generation's per-wave assignment costs (the re-pack's
        #: load measure)
        self._wave_costs: list[float] = []
        #: last generation's farm wall-clock (max device cycles +
        #: heartbeat penalties)
        self.last_wall_cycles = 0.0
        self.last_device_walls: dict[int, float] = {}

    # ------------------------------------------- the dispatch loop's answers
    def _begin_generation(self, generation: int) -> None:
        self.fabric.begin_generation(generation)

    def _assign(
        self, waves: list[list[int]], predicted: list[float | None] | None
    ) -> dict[int, deque[tuple[int, int]]]:
        """LPT-assign the waves over the alive devices."""
        self._wave_costs = wave_costs(predicted, waves)
        if not waves:
            return {}
        alive = self.fabric.alive()
        with _span("fabric.assign", waves=len(waves), devices=len(alive)):
            assignment = assign_waves(self._wave_costs, alive)
        return {
            device: deque((ordinal, 0) for ordinal in ordinals)
            for device, ordinals in assignment.items()
        }

    def _probe(
        self, generation: int, device: int, queues: dict[int, deque]
    ) -> bool:
        if self.fabric.probe(generation, device):
            return True
        self._repack(generation, device, queues)
        return False

    def _evict(
        self,
        generation: int,
        device: int,
        error: Exception,
        queues: dict[int, deque],
    ) -> bool:
        if not self.fabric.fail(generation, device, type(error).__name__):
            # eviction refused (last alive device): the wave-episode
            # degrades to the software ladder on this device
            return False
        self._repack(generation, device, queues)
        return True

    def _repack(
        self, generation: int, device: int, queues: dict[int, deque]
    ) -> None:
        """Move an evicted device's queue onto the survivors (LPT).

        Load is measured over *remaining* queued work only — already-
        evaluated waves are sunk cost; the result is still a pure
        function of (plan, topology) because everything upstream is.
        """
        costs = self._wave_costs
        orphans = list(queues[device])
        queues[device].clear()
        if not orphans:
            return
        survivors = self.fabric.alive()
        load = {
            s: sum(costs[ordinal] for ordinal, _ in queues.get(s, ()))
            for s in survivors
        }
        for entry in sorted(orphans, key=lambda e: (-costs[e[0]], e[0])):
            target = min(survivors, key=lambda s: (load[s], s))
            queues.setdefault(target, deque()).append(entry)
            load[target] += costs[entry[0]]
        self.fabric.repacked_waves += len(orphans)
        self._event(
            "fabric.repack",
            f"gen={generation}|device={device}",
            waves=len(orphans),
            survivors=len(survivors),
        )

    # ----------------------------------------------------- cycle account
    def _finish_generation(self, generation: int) -> CycleReport:
        """Close the generation: walls, gauges, the ``fabric.gen`` marker.

        Returns the critical-path device's cycle report (the farm's
        wall-clock determinant) for the generation record.
        """
        sup = self.fabric
        walls = {
            d: self.farm[d].report.total_cycles + sup.penalty_cycles(d)
            for d in range(self.num_devices)
        }
        critical = max(range(self.num_devices), key=lambda d: (walls[d], -d))
        self.last_wall_cycles = float(walls[critical])
        self.last_device_walls = {d: float(w) for d, w in walls.items()}
        counters = sup.counters()
        registry = get_metrics()
        if registry is not None:
            registry.gauge("fabric.wall_cycles").set(self.last_wall_cycles)
            for name, value in counters.items():
                registry.gauge(f"fabric.{name}").set(value)
        tracer = get_tracer()
        if tracer is not None:
            tracer.add_span(
                "fabric.gen",
                start=tracer.now(),
                duration=0.0,
                site=f"gen={generation}",
                generation=generation,
                wall_cycles=self.last_wall_cycles,
                **counters,
            )
        return self.farm[critical].report

    # ----------------------------------------------------------- surface
    def reporter_columns(self) -> dict[str, float]:
        columns = super().reporter_columns()
        columns.update(self.fabric.counters())
        return columns

    def publish_run_gauges(self, registry: MetricsRegistry) -> None:
        super().publish_run_gauges(registry)
        for name, value in self.fabric.counters().items():
            registry.gauge(f"fabric.{name}").set(value)

    def resilience_log(self) -> list[dict]:
        """Backend + fabric supervisor + plan events (replay identity)."""
        events = [event.to_dict() for event in self.resilience_events]
        events.extend(event.to_dict() for event in self.fabric.events)
        if self.fault_plan is not None:
            events.extend(self.fault_plan.event_log())
        return events


# --------------------------------------------------------------- pricing
def price_farm(
    inax_config: INAXConfig,
    net_configs: list,
    episode_lengths: list[int],
    devices: int,
    pipeline: PipelineConfig | None = None,
) -> dict:
    """Analytic farm pricing: the scaling-bench twin of the farm.

    Packs the workload into waves by :func:`schedule_generation`'s rule
    (:func:`~repro.inax.accelerator.pack_generation`), LPT-assigns
    them across ``devices`` healthy devices, and prices each device's
    subset through :func:`~repro.inax.accelerator.schedule_waves` — so
    the multi-device scaling numbers use the identical per-wave cycle
    semantics as a functional run.  Wall-clock is the max over devices
    (they run in parallel in the cycle domain).
    """
    pipeline = pipeline if pipeline is not None else PipelineConfig()
    pack_costs, waves = pack_generation(
        inax_config, net_configs, episode_lengths, pipeline.schedule
    )
    assignment = assign_waves(
        wave_costs(pack_costs, waves), list(range(devices))
    )
    reports = {}
    for device, ordinals in sorted(assignment.items()):
        reports[device] = schedule_waves(
            inax_config,
            net_configs,
            episode_lengths,
            [waves[ordinal] for ordinal in ordinals],
            prefetch=pipeline.prefetch,
        )
    device_walls = {
        device: report.total_cycles for device, report in reports.items()
    }
    return {
        "devices": devices,
        "waves": len(waves),
        "per_device": reports,
        "device_walls": device_walls,
        "wall_cycles": max(device_walls.values()) if device_walls else 0.0,
    }


# registered here (not in the BACKENDS literal) so the core module
# never imports the fabric package; importing repro.fabric — which
# repro.core.platform does — makes "fabric" selectable by name
BACKENDS["fabric"] = FabricINAXBackend
