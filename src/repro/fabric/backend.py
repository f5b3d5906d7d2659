"""The fabric evaluation backend: one generation across N devices.

:class:`FabricINAXBackend` extends the single-device
:class:`~repro.core.backends.INAXBackend` to a supervised farm:

* waves are packed exactly as on one device (``pack_waves``), then
  LPT-assigned across the alive devices (:func:`~repro.fabric.topology.
  assign_waves`);
* every wave-episode dispatch is preceded by a
  :meth:`~repro.fabric.supervisor.FabricSupervisor.probe`; a device
  that misses its heartbeats (or hard-faults mid-wave) is evicted and
  its remaining queue is deterministically re-packed onto the
  survivors;
* the per-(genome, episode) seeding contract makes device placement
  invisible to fitness, so a fault-ridden run is *fitness-identical*
  to a clean run of the same seed — eviction and re-pack can only move
  cycles, never results;
* as on one device, a farm whose devices are replayable runs the
  generation's episodes in one lock-step pass first, and every
  dispatched wave-episode — a re-packed one included — replays its
  cycle accounting on the device the dispatch loop picked.

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
from repro.fabric.topology import assign_waves
from repro.inax.accelerator import INAX, INAXConfig, schedule_waves
from repro.inax.pipeline import PipelineConfig, pack_waves
from repro.inax.pu import BufferOverflowError, _static_step_cycles
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.resilience.faults import DeviceFault
from repro.resilience.injectors import (
    DeviceFaultInjector,
    has_device_faults,
    has_fabric_faults,
)
from repro.resilience.supervisor import SupervisorConfig
from repro.telemetry import get_metrics, get_tracer
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
        super().__init__(env_name, neat_config, **options)
        fault_plan = self.fault_plan
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        self.num_devices = devices
        # one INAX per device, each with its own injector namespace —
        # two devices probing the same (wave, step) site must draw
        # independently, and their span tracks must stay distinct
        self.farm: list[INAX] = []
        for index in range(devices):
            injector = (
                DeviceFaultInjector(fault_plan, site_prefix=f"dev={index}|")
                if fault_plan is not None and has_device_faults(fault_plan)
                else None
            )
            device = INAX(self.inax_config, fault_injector=injector)
            device.track_prefix = f"dev{index}."
            self.farm.append(device)
        # keep the parent's single-device attribute aimed at device 0 so
        # inherited helpers stay coherent
        self.device = self.farm[0]
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        farm_injector = (
            DeviceFaultInjector(fault_plan)
            if fault_plan is not None and has_fabric_faults(fault_plan)
            else None
        )
        self.fabric = FabricSupervisor(
            devices, config=self.supervisor_config, injector=farm_injector
        )
        #: last generation's farm wall-clock (max device cycles +
        #: heartbeat penalties)
        self.last_wall_cycles = 0.0
        self.last_device_walls: dict[int, float] = {}

    # --------------------------------------------------------- evaluation
    def _evaluate(self, genomes: list[Genome]) -> None:
        assert self.inax_config is not None
        generation = self._generation
        sup = self.fabric
        sup.begin_generation(generation)
        runnable, configs, entries = self._gate_oversize(genomes)

        lengths = [0] * len(runnable)
        rewards = [0.0] * len(runnable)
        keys = [g.key for g in runnable]
        num_pus = self.inax_config.num_pus

        with self._functional_pass(runnable, entries):
            with _span("inax.pack", genomes=len(runnable)):
                predicted = self._predict_costs(configs, keys)
                waves = pack_waves(
                    predicted
                    if predicted is not None
                    else [None] * len(runnable),
                    num_pus,
                    self.pipeline.schedule,
                )
            # without predictions (arrival schedule, or a cold first LPT
            # generation) every wave prices as one unit, so LPT assignment
            # degrades to balanced wave *counts* instead of piling the
            # whole generation onto device 0
            wave_costs = [
                max((predicted[i] or 1.0) for i in indices)
                if predicted is not None
                else 1.0
                for indices in waves
            ]
            for device in self.farm:
                device.reset_report()

            queues: dict[int, deque] = {}
            if waves:
                with _span(
                    "fabric.assign", waves=len(waves), devices=len(sup.alive())
                ):
                    assignment = assign_waves(wave_costs, sup.alive())
                queues = {
                    device: deque((ordinal, 0) for ordinal in ordinals)
                    for device, ordinals in assignment.items()
                }
            dispatched = {device: 0 for device in range(self.num_devices)}

            # drain device queues; an eviction re-packs (and may refill an
            # already-passed device's queue), so the outer loop re-scans
            # until every queue is dry
            while any(queues.values()):
                for device in sorted(queues):
                    queue = queues[device]
                    while queue:
                        ordinal, start_episode = queue[0]
                        indices = waves[ordinal]
                        done = self._dispatch_wave(
                            generation,
                            device,
                            indices,
                            [runnable[i] for i in indices],
                            [configs[i] for i in indices],
                            start_episode,
                            lengths,
                            rewards,
                            dispatched,
                            queue,
                        )
                        if not done:
                            self._repack(
                                generation, device, queues, wave_costs
                            )
                            break
                        queue.popleft()

        for genome, reward in zip(runnable, rewards):
            genome.fitness = reward / self.episodes_per_genome
        record = self._record(
            configs,
            lengths,
            keys=keys,
            predicted_costs=predicted,
            cycle_report=self._finish_generation(generation),
        )
        self._publish_cycle_gauges(record.cycle_report)
        self._publish_compile_gauges()

    def _dispatch_wave(
        self,
        generation: int,
        device: int,
        indices: list[int],
        wave_genomes: list[Genome],
        wave_configs,
        start_episode: int,
        lengths: list[int],
        rewards: list[float],
        dispatched: dict[int, int],
        queue: deque,
    ) -> bool:
        """Run one queued wave's remaining episodes on ``device``.

        Returns True when the wave completed; False when the device was
        evicted mid-wave — the queue's head entry is rewound to the
        first unfinished episode so the re-pack resumes exactly there.
        """
        for episode in range(start_episode, self.episodes_per_genome):
            if not self.fabric.probe(generation, device):
                queue[0] = (queue[0][0], episode)
                return False
            prefetched = self.pipeline.prefetch and dispatched[device] > 0
            try:
                records = self._device_wave_episode(
                    self.farm[device],
                    wave_genomes,
                    wave_configs,
                    episode,
                    prefetched=prefetched,
                )
            except (DeviceFault, BufferOverflowError) as error:
                self.farm[device].abort_wave()
                if self.fabric.fail(generation, device, type(error).__name__):
                    queue[0] = (queue[0][0], episode)
                    return False
                # eviction refused (last alive device): degrade to the
                # software ladder on this device, like the single-device
                # backend
                records = self._fall_back(
                    error, indices, wave_genomes, episode
                )
            dispatched[device] += 1
            for slot, record in enumerate(records):
                rewards[indices[slot]] += record.total_reward
                lengths[indices[slot]] += record.steps
        return True

    def _repack(
        self,
        generation: int,
        device: int,
        queues: dict[int, deque],
        wave_costs: list[float],
    ) -> None:
        """Move an evicted device's queue onto the survivors (LPT).

        Load is measured over *remaining* queued work only — already-
        evaluated waves are sunk cost; the result is still a pure
        function of (plan, topology) because everything upstream is.
        """
        orphans = list(queues[device])
        queues[device].clear()
        if not orphans:
            return
        survivors = self.fabric.alive()
        load = {
            s: sum(wave_costs[ordinal] for ordinal, _ in queues.get(s, ()))
            for s in survivors
        }
        for entry in sorted(
            orphans, key=lambda e: (-wave_costs[e[0]], e[0])
        ):
            target = min(survivors, key=lambda s: (load[s], s))
            queues.setdefault(target, deque()).append(entry)
            load[target] += wave_costs[entry[0]]
        self.fabric.repacked_waves += len(orphans)
        self._event(
            "fabric.repack",
            f"gen={generation}|device={device}",
            waves=len(orphans),
            survivors=len(survivors),
        )

    # ----------------------------------------------------- cycle account
    def _finish_generation(self, generation: int):
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
        # farm-wide occupancy (the parent's column reads device 0 only)
        live = sum(dev.report.live_slot_steps for dev in self.farm)
        provisioned = sum(
            dev.report.slot_steps_provisioned for dev in self.farm
        )
        columns["pack_eff"] = live / provisioned if provisioned else 0.0
        columns.update(self.fabric.counters())
        return columns

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

    Packs the workload into waves exactly like one device, LPT-assigns
    them across ``devices`` healthy devices, and prices each device's
    subset through :func:`~repro.inax.accelerator.schedule_waves` — so
    the multi-device scaling numbers use the identical per-wave cycle
    semantics as a functional run.  Wall-clock is the max over devices
    (they run in parallel in the cycle domain).
    """
    pipeline = pipeline if pipeline is not None else PipelineConfig()
    step_fn = lambda c: _static_step_cycles(  # noqa: E731
        c, inax_config.num_pes_per_pu, inax_config.pe_costs,
        inax_config.pu_costs,
    )
    pack_costs: list
    if pipeline.schedule == "arrival":
        pack_costs = [None] * len(net_configs)
    else:
        pack_costs = [
            float(length) * step_fn(config)
            for config, length in zip(net_configs, episode_lengths)
        ]
    waves = pack_waves(pack_costs, inax_config.num_pus, pipeline.schedule)
    wave_costs = [
        max((pack_costs[i] or 1.0) for i in indices) for indices in waves
    ]
    assignment = assign_waves(wave_costs, list(range(devices)))
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
