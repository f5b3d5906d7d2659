"""The INAX accelerator (§IV-C): a PU array behind a central controller.

Two execution paths are provided:

* the **stepwise device** (:class:`INAX`) — a functional simulator the
  E3 platform drives one synchronized inference at a time, exactly like
  the FPGA: ``begin_wave`` (set-up phase over the weight channel), then
  repeated ``step`` calls (input scatter, parallel PU inference, output
  gather), with early-terminated individuals simply dropping out of
  subsequent steps;
* the **analytic scheduler** (:func:`schedule_generation`) — a
  closed-form cycle-count evaluation for timing-only studies (the Fig
  6/7/9(a)/11 sweeps), exploiting the fact that an individual's
  per-inference latency is input-independent.

One closed-form wave pricer, a set-up half (:func:`_price_setup`) and
a compute half over the wave's episode-length horizons
(:func:`_price_compute`), prices every wave that is not stepped.  The
analytic scheduler prices through it, and so does the device when
nothing about a wave can make the data matter (no fault injector, no
fixed-point ``datapath``, no ``skip_zero_activations``): a slot's
outputs then depend on no other slot and its per-step latency is
static, so the host computes the episodes elsewhere (the backends run
a whole generation in one lock-step pass) and :meth:`INAX.replay_wave`
prices the wave from its members' cost descriptors and episode
lengths.  :meth:`INAX.step` is the independent reference: each live
slot's :meth:`~repro.inax.pu.ProcessingUnit.infer` runs node by node
on its PEs, and the tests assert the two agree cycle for cycle and
span for span.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.envs.rollout import check_observations, check_slots
from repro.inax.compiler import HWNetConfig
from repro.inax.dma import DMAModel
from repro.inax.pe import PECosts
from repro.inax.pipeline import PipelineConfig, pack_waves
from repro.inax.pu import ProcessingUnit, PUCosts
from repro.inax.timing import CycleReport
from repro.telemetry.spans import get_tracer

__all__ = [
    "INAXConfig",
    "INAX",
    "pack_generation",
    "schedule_generation",
    "schedule_waves",
    "waves_required",
]


@dataclass(frozen=True)
class INAXConfig:
    """Design-time accelerator configuration (the §V knobs)."""

    num_pus: int = 50
    num_pes_per_pu: int = 4
    pe_costs: PECosts = PECosts()
    pu_costs: PUCosts = PUCosts()
    dma: DMAModel = DMAModel()
    weight_buffer_capacity: int | None = None
    value_buffer_capacity: int | None = None
    #: controller cost to synchronize a wave step (start/done via sig)
    step_sync_cycles: int = 2
    #: double-buffered I/O: the input scatter / output gather DMA for
    #: step t+1/t-1 overlaps with step t's compute, so a step costs
    #: max(compute, io) instead of compute + io.  Costs one extra input
    #: and output buffer per PU (modeled in the resource estimate as a
    #: second value-buffer-class BRAM) — the ablation bench quantifies
    #: the trade
    overlap_io: bool = False
    #: None = float64 reference; a FixedPointFormat models the FPGA's
    #: quantized arithmetic (functional only; cycle costs are unchanged)
    datapath: object | None = None
    #: §VII future work: skip MACs on zero-valued activations.  Only the
    #: functional device honours this (cycles become data-dependent);
    #: the analytic scheduler keeps the dense-timing assumption.
    skip_zero_activations: bool = False

    def __post_init__(self) -> None:
        if self.num_pus < 1:
            raise ValueError("INAX needs at least one PU")
        if self.num_pes_per_pu < 1:
            raise ValueError("INAX needs at least one PE per PU")


class INAX:
    """Functional stepwise model of the accelerator.

    A wave opens with :meth:`begin_wave` and closes with
    :meth:`end_wave`.  In between, :meth:`step` runs each synchronized
    inference on the per-PU reference path.  :meth:`replay_wave` runs a
    whole wave from its episode lengths instead; it is only valid while
    :attr:`replayable` holds, and charges exactly what stepping the
    same live sets would.
    """

    def __init__(
        self,
        config: INAXConfig | None = None,
        fault_injector=None,
        **overrides,
    ):
        if config is None:
            config = INAXConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides")
        self.config = config
        #: optional :class:`repro.resilience.injectors.DeviceFaultInjector`;
        #: ``None`` (the default) keeps every hook on the zero-cost path
        self.fault_injector = fault_injector
        #: prepended to every emitted span track (the fabric sets
        #: ``"dev0."`` etc. so per-device timelines stay distinct)
        self.track_prefix = ""
        self.pus = [
            ProcessingUnit(
                config.num_pes_per_pu,
                pe_costs=config.pe_costs,
                pu_costs=config.pu_costs,
                weight_buffer_capacity=config.weight_buffer_capacity,
                value_buffer_capacity=config.value_buffer_capacity,
                datapath=config.datapath,
                skip_zero_activations=config.skip_zero_activations,
            )
            for _ in range(config.num_pus)
        ]
        self.report = CycleReport()
        self._wave_slots: list[HWNetConfig] = []
        #: cycles -> seconds for exported spans; ``None`` uses the
        #: calibrated FPGA clock (:data:`repro.hw.calibration.FPGA_CLOCK_HZ`)
        self.clock_hz: float | None = None
        # device-timeline cursor (cycles since reset) and per-wave slot
        # activity, kept only while a tracer is installed
        self._cycle = 0
        self._tracing = False
        # monotonic wave counter (never reset) and step-within-wave
        # counter: fault-injection sites embed both so a replayed plan
        # fires at the same physical points
        self._wave_index = -1
        self._wave_step = 0
        self._wave_start_cycle = 0
        self._wave_setup_cycles = 0
        self._slot_last_active: list[int] = []
        self._slot_active_cycles: list[int] = []
        self._slot_steps: list[int] = []
        # double-buffered prefetch window: compute cycles accumulated by
        # the wave in flight, and the finished previous wave's total —
        # the window a ``prefetched`` begin_wave can hide set-up behind
        self._compute_since_setup = 0
        self._prev_wave_compute = 0
        self._wave_hidden_setup = 0

    @property
    def replayable(self) -> bool:
        """Whether a wave's outputs and cycles follow from its
        configurations and episode lengths alone.

        False under anything that makes the data matter: an attached
        fault injector (per-slot hooks and their event log), a
        fixed-point ``datapath`` (outputs differ from the float64
        reference), or ``skip_zero_activations`` (data-dependent
        cycles).  Those runs must :meth:`step`.
        """
        cfg = self.config
        return (
            self.fault_injector is None
            and cfg.datapath is None
            and not cfg.skip_zero_activations
        )

    # -------------------------------------------------------------- wave
    def begin_wave(
        self, configs: list[HWNetConfig], prefetched: bool = False
    ) -> None:
        """Set-up phase: dispatch up to ``num_pus`` individuals.

        The batch "is controlled to match the number of PUs" (§IV-C2).
        Each PU loads its own individual; :func:`_price_setup` charges
        the set-up.

        With ``prefetched`` the controller double-buffered this wave's
        DMA/decode behind the *previous* wave's compute window, so only
        ``max(0, setup − prev_compute)`` cycles are exposed on the wall
        clock; the hidden remainder is accounted in
        :attr:`CycleReport.prefetch_hidden_cycles`.  The first wave of a
        generation has no window and must not pass ``prefetched``.
        """
        self._open_wave(configs)
        for pu, cfg in zip(self.pus, configs):
            pu.load(cfg)
        if self.fault_injector is not None:
            for slot in range(len(configs)):
                self.fault_injector.on_load(
                    self.pus[slot], self._wave_index, slot
                )
        self._set_up(prefetched)
        if self._tracing:
            self._slot_last_active = [self._cycle] * len(configs)
            self._slot_active_cycles = [0] * len(configs)
            self._slot_steps = [0] * len(configs)

    def _open_wave(self, configs: list) -> None:
        """Check the handshake and the wave's width, then open it."""
        if self._wave_slots:
            raise RuntimeError(
                "a wave is already in progress; the controller requires "
                "end_wave() before the next set-up phase (sig-channel "
                "handshake order)"
            )
        if len(configs) > self.config.num_pus:
            raise ValueError(
                f"wave of {len(configs)} exceeds {self.config.num_pus} PUs"
            )
        if not configs:
            raise ValueError("a wave needs at least one individual")
        self._wave_slots = list(configs)
        self._wave_index += 1
        self._wave_step = 0

    def _set_up(self, prefetched: bool) -> None:
        """Charge the open wave's set-up and start its timeline."""
        exposed, hidden = _price_setup(
            self.config,
            self._wave_slots,
            self.report,
            self._prev_wave_compute if prefetched else 0,
        )
        self._compute_since_setup = 0
        self._tracing = get_tracer() is not None
        self._wave_start_cycle = self._cycle
        self._wave_setup_cycles = exposed
        self._wave_hidden_setup = hidden
        self._cycle += exposed

    def step(self, slots: list[int], obs: np.ndarray) -> np.ndarray:
        """One synchronized inference across the wave's live slots.

        An :data:`repro.envs.rollout.InferFn`: ``slots`` lists the live
        slots in ascending order (slots whose episode already terminated
        are left out and idle), row ``i`` of ``obs`` is ``slots[i]``'s
        observation and row ``i`` of the result its output vector.
        Each live slot's PU infers its own row; fault hooks fire per
        slot in slot order.  The step is charged here, as it runs: the
        reference the closed-form wave pricer is checked against.
        """
        if not self._wave_slots:
            raise RuntimeError("no wave in progress; call begin_wave() first")
        check_slots(slots, len(self._wave_slots))
        obs = check_observations(
            obs, len(slots), self._wave_slots[slots[0]].num_inputs
        )
        injector = self.fault_injector
        wave, step_index = self._wave_index, self._wave_step
        self._wave_step += 1
        if injector is not None:
            injector.check_wedge(wave, step_index)
        rows = []
        slot_cycles = []
        slowest = 0
        pe_active = 0
        in_words = 0
        out_words = 0
        for slot, x in zip(slots, obs):
            if injector is not None:
                x = injector.corrupt_input(x, wave, step_index, slot)
            out, timing = self.pus[slot].infer(x)
            if injector is not None:
                out = injector.corrupt_output(out, wave, step_index, slot)
                stall = injector.stall_cycles(wave, step_index, slot)
                # a stalled PU holds the whole synchronized step hostage
                # but burns no useful PE/PU activity
                slowest = max(slowest, timing.cycles + stall)
            rows.append(out)
            slot_cycles.append(timing.cycles)
            slowest = max(slowest, timing.cycles)
            pe_active += timing.pe_active_cycles
            in_words += self._wave_slots[slot].num_inputs
            out_words += self._wave_slots[slot].num_outputs
        cfg = self.config
        dma = cfg.dma
        io = dma.transfer_cycles(in_words) + dma.transfer_cycles(out_words)
        if injector is not None:
            # a dropped input transfer is re-sent; the retry serializes
            # on the shared input channel
            retries = injector.input_retries(wave, step_index)
            if retries:
                io += dma.retry_cycles(in_words, retries)
        if cfg.overlap_io:
            step_wall = max(slowest, io) + cfg.step_sync_cycles
        else:
            step_wall = slowest + io + cfg.step_sync_cycles
        self._cycle += step_wall
        if self._tracing:
            for slot, cycles in zip(slots, slot_cycles):
                self._slot_last_active[slot] = self._cycle
                self._slot_active_cycles[slot] += cycles
                self._slot_steps[slot] += 1
        report = self.report
        report.compute_cycles += step_wall
        report.io_cycles += io
        report.pe_active_cycles += pe_active
        report.pe_provisioned_cycles += (
            cfg.num_pus * cfg.num_pes_per_pu * step_wall
        )
        report.pu_active_cycles += sum(slot_cycles)
        report.pu_provisioned_cycles += cfg.num_pus * step_wall
        report.steps += 1
        report.live_slot_steps += len(slots)
        report.slot_steps_provisioned += cfg.num_pus
        self._compute_since_setup += step_wall
        return np.array(rows, dtype=np.float64)

    def replay_wave(
        self,
        configs: list,
        lengths: list[int],
        prefetched: bool = False,
    ) -> None:
        """Run one whole wave from its episode lengths, without inputs.

        ``configs`` are the members' cost descriptors, each a compiled
        shape's :class:`~repro.compile.structure.ShapeCost` or an
        :class:`HWNetConfig`.  The wave opens like :meth:`begin_wave`
        but loads no PU, the wave pricer charges it in closed form, and
        :meth:`end_wave` closes it, so the report, the prefetch window
        and the wave spans equal a stepped wave's over the same live
        sets.  Only valid while :attr:`replayable` holds.
        """
        if len(lengths) != len(configs):
            raise ValueError("need one episode length per configuration")
        if any(length < 1 for length in lengths):
            raise ValueError("episode lengths must be >= 1")
        if not self.replayable:
            raise RuntimeError(
                "replay_wave needs a device whose data cannot matter: "
                "no fault injector, datapath or skip_zero_activations"
            )
        self._open_wave(configs)
        for pu, cfg in zip(self.pus, configs):
            pu.check_fits(cfg)
        self._set_up(prefetched)
        timings = [c.timing(self.config) for c in configs]
        wall, ends = _price_compute(
            self.config, configs, lengths, timings, self.report
        )
        if self._tracing:
            self._slot_last_active = [self._cycle + end for end in ends]
            self._slot_active_cycles = [
                n * cycles for n, (cycles, _) in zip(lengths, timings)
            ]
            self._slot_steps = list(lengths)
        self._cycle += wall
        self._compute_since_setup = wall
        self.end_wave()

    def end_wave(self) -> None:
        if not self._wave_slots:
            raise RuntimeError(
                "no wave in progress; end_wave() must pair with begin_wave()"
            )
        if self._tracing:
            self._emit_wave_spans()
        self._wave_slots = []
        self._tracing = False
        self._prev_wave_compute = self._compute_since_setup
        self._compute_since_setup = 0

    def abort_wave(self) -> None:
        """Discard an in-flight wave after a device fault.

        Unlike :meth:`end_wave` this is safe to call with no wave in
        progress (double-abort during error handling is a no-op) and
        emits no spans — the wave never completed.  Cycles already
        burned stay in the report: the hardware spent them.  The partial
        compute window still counts for the next wave's prefetch — the
        weight channel was idle during it either way.
        """
        if self._wave_slots:
            self._prev_wave_compute = self._compute_since_setup
            self._compute_since_setup = 0
        self._wave_slots = []
        self._tracing = False

    def _emit_wave_spans(self) -> None:
        """Record the finished wave as per-PU setup/compute/drain spans.

        Cycle counts map to seconds through the FPGA clock, so the
        device timeline lines up with host wall-clock spans in a trace
        viewer and Fig 9(a)'s three buckets are visible per PU: the
        serialized set-up window, the compute window (with the PU's
        true active cycles as an attribute), and the idle drain tail
        after the slot's episode terminated while the wave ran on
        (§V-B2's idle-PU effect).
        """
        tracer = get_tracer()
        if tracer is None:
            return
        clock = self.clock_hz
        if clock is None:
            from repro.hw.calibration import FPGA_CLOCK_HZ

            clock = FPGA_CLOCK_HZ
        scale = 1.0 / clock
        wave_end = self._cycle
        setup_start = self._wave_start_cycle
        setup_cycles = self._wave_setup_cycles
        setup_end = setup_start + setup_cycles
        if self._wave_hidden_setup:
            # the hidden DMA/decode window sits inside the previous
            # wave's compute span on the device timeline
            hidden = self._wave_hidden_setup
            tracer.add_span(
                "inax.prefetch",
                (setup_start - hidden) * scale,
                hidden * scale,
                track=f"{self.track_prefix}inax",
                cycles=hidden,
            )
        for slot, cfg in enumerate(self._wave_slots):
            track = f"{self.track_prefix}pu{slot}"
            tracer.add_span(
                "pu.setup",
                setup_start * scale,
                setup_cycles * scale,
                track=track,
                cycles=setup_cycles,
                config_words=cfg.config_words,
            )
            active_until = self._slot_last_active[slot]
            compute_cycles = active_until - setup_end
            tracer.add_span(
                "pu.compute",
                setup_end * scale,
                compute_cycles * scale,
                track=track,
                cycles=compute_cycles,
                active_cycles=self._slot_active_cycles[slot],
                steps=self._slot_steps[slot],
            )
            drain_cycles = wave_end - active_until
            if drain_cycles > 0:
                tracer.add_span(
                    "pu.drain",
                    active_until * scale,
                    drain_cycles * scale,
                    track=track,
                    cycles=drain_cycles,
                )
        tracer.add_span(
            "inax.wave",
            setup_start * scale,
            (wave_end - setup_start) * scale,
            track=f"{self.track_prefix}inax",
            individuals=len(self._wave_slots),
            cycles=wave_end - setup_start,
        )

    def reset_report(self) -> None:
        self.report = CycleReport()
        self._cycle = 0
        self._compute_since_setup = 0
        self._prev_wave_compute = 0
        self._wave_hidden_setup = 0


def schedule_generation(
    config: INAXConfig,
    net_configs: list[HWNetConfig],
    episode_lengths: list[int],
    step_cycles_fn=None,
    pe_active_fn=None,
    pipeline: PipelineConfig | None = None,
    predicted_costs: list[float | None] | None = None,
) -> CycleReport:
    """Closed-form cycle count for evaluating a population.

    Individuals are dispatched in waves of ``num_pus``; within a wave,
    step ``t`` runs every individual whose episode outlives ``t``, and
    the wave's wall clock follows the slowest live PU each step.  This
    reproduces exactly what the stepwise device would report, without
    functional execution — per-inference latency is input-independent.

    Each of ``net_configs`` (an :class:`HWNetConfig` or a compiled
    shape's :class:`~repro.compile.structure.ShapeCost`) is timed by
    its own :meth:`~repro.inax.compiler.ConfigWords.timing`;
    ``step_cycles_fn`` / ``pe_active_fn`` override the per-inference
    latency/activity models.  The systolic-array baseline (Fig 11)
    passes its own latency model through here so both accelerators
    share the identical wave/episode schedule.

    ``pipeline`` applies the :mod:`repro.inax.pipeline` policies: with
    ``schedule="lpt"`` waves are packed by ``predicted_costs`` (the
    predictions the *backend* used, so the analytic schedule replays the
    device's exact dispatch; when omitted, costs are derived from the
    actual ``episode_lengths`` — the timing-only-study convention), and
    with ``prefetch`` each wave after the first hides its set-up behind
    the previous wave's compute window.
    """
    if len(net_configs) != len(episode_lengths):
        raise ValueError("need one episode length per individual")
    if any(length < 1 for length in episode_lengths):
        raise ValueError("episode lengths must be >= 1")
    pipeline = pipeline or PipelineConfig()
    if predicted_costs is not None and len(predicted_costs) != len(net_configs):
        raise ValueError("need one predicted cost per individual")
    _, waves = pack_generation(
        config, net_configs, episode_lengths, pipeline.schedule,
        step_cycles_fn, predicted_costs,
    )
    return schedule_waves(
        config, net_configs, episode_lengths, waves,
        step_cycles_fn=step_cycles_fn, pe_active_fn=pe_active_fn,
        prefetch=pipeline.prefetch,
    )


def pack_generation(
    config: INAXConfig,
    net_configs: list[HWNetConfig],
    episode_lengths: list[int],
    schedule: str,
    step_cycles_fn=None,
    predicted_costs: list[float | None] | None = None,
) -> tuple[list[float | None], list[list[int]]]:
    """``(costs, waves)``: a generation's packing costs and waves.

    The one packing rule of the analytic schedules
    (:func:`schedule_generation`, and the farm's
    :func:`~repro.fabric.backend.price_farm`).  ``"arrival"`` packs in
    population order, with no costs.  ``"lpt"`` packs by
    ``predicted_costs`` when given; otherwise each individual costs its
    actual episode length times its per-inference latency
    (``step_cycles_fn``, INAX's by default).
    """
    costs: list[float | None]
    if schedule == "arrival":
        costs = [None] * len(net_configs)
    elif predicted_costs is not None:
        costs = list(predicted_costs)
    else:
        cycles = step_cycles_fn or (lambda c: c.timing(config)[0])
        costs = [
            float(length) * cycles(c)
            for c, length in zip(net_configs, episode_lengths)
        ]
    return costs, pack_waves(costs, config.num_pus, schedule)


def schedule_waves(
    config: INAXConfig,
    net_configs: list[HWNetConfig],
    episode_lengths: list[int],
    waves: list[list[int]],
    step_cycles_fn=None,
    pe_active_fn=None,
    prefetch: bool = False,
) -> CycleReport:
    """Price an explicit wave sequence (index lists) into a report.

    The device-subset entry point behind :func:`schedule_generation`:
    the fabric prices each farm device's assigned waves through here so
    multi-device scaling numbers use the exact single-device wave
    semantics (including per-device prefetch windows).  Each wave goes
    through the wave pricer the device replays with.
    """
    timing = _timing(config, step_cycles_fn, pe_active_fn)
    report = CycleReport()
    window = 0
    for indices in waves:
        wave = [net_configs[i] for i in indices]
        _price_setup(config, wave, report, window)
        compute, _ = _price_compute(
            config,
            wave,
            [episode_lengths[i] for i in indices],
            [timing(c) for c in wave],
            report,
        )
        window = compute if prefetch else 0
    return report


def _timing(config: INAXConfig, step_cycles_fn=None, pe_active_fn=None):
    """``descriptor -> (cycles, PE-active cycles)`` of one inference:
    the descriptor's own :meth:`~repro.inax.compiler.ConfigWords.timing`
    under ``config``, with either term replaced by its override."""
    if step_cycles_fn is None and pe_active_fn is None:
        return lambda c: c.timing(config)
    cycles = step_cycles_fn or (lambda c: c.timing(config)[0])
    pe_active = pe_active_fn or (lambda c: c.timing(config)[1])
    return lambda c: (cycles(c), pe_active(c))


def _price_setup(
    config: INAXConfig, wave: list, report: CycleReport, window: int = 0
) -> tuple[int, int]:
    """The wave pricer's set-up half: charge ``wave``'s set-up phase.

    Configuration words stream over the shared weight channel
    (serialized), then each PU decodes its own individual in parallel.
    A prefetch ``window`` (the previous wave's compute cycles, or 0)
    hides up to that much of it.  Returns ``(exposed, hidden)`` cycles.
    """
    decode = config.pu_costs.decode_cycles_per_word
    setup = config.dma.transfer_cycles(
        sum(c.config_words for c in wave)
    ) + max(c.config_words * decode for c in wave)
    exposed = max(0, setup - window)
    report.setup_cycles += exposed
    report.prefetch_hidden_cycles += setup - exposed
    report.pu_provisioned_cycles += config.num_pus * exposed
    report.pu_active_cycles += len(wave) * exposed
    report.individuals += len(wave)
    report.waves += 1
    return exposed, setup - exposed


def _price_compute(
    config: INAXConfig,
    wave: list,
    lengths: list[int],
    timings: list[tuple[int, int]],
    report: CycleReport,
) -> tuple[int, list[int]]:
    """The wave pricer's compute half: charge ``wave``'s steps.

    Slot ``i`` runs ``lengths[i]`` inferences at ``timings[i]``
    (cycles, PE-active cycles), and step ``t`` runs every slot whose
    episode is longer than ``t``.  Sorted by length, the slots live
    through horizon ``lengths[order[p]]`` are the suffix ``order[p:]``,
    so suffix maxima and sums price every horizon in one sweep; all
    terms are ints, so they equal re-summing each live set.  Returns
    the compute wall clock and each slot's end offset, the compute
    cycles until its last step ends.
    """
    dma = config.dma
    order = sorted(range(len(wave)), key=lengths.__getitem__)
    cycles = [timings[i][0] for i in order]
    slowest = _suffix(cycles, max)
    pu_active = _suffix(cycles)
    pe_active = _suffix([timings[i][1] for i in order])
    in_words = _suffix([wave[i].num_inputs for i in order])
    out_words = _suffix([wave[i].num_outputs for i in order])
    ends = [0] * len(wave)
    wall = 0
    done = 0
    for p, i in enumerate(order):
        horizon = lengths[i]
        if horizon > done:  # a length tie is priced already
            steps = horizon - done
            io = dma.transfer_cycles(in_words[p]) + dma.transfer_cycles(
                out_words[p]
            )
            if config.overlap_io:
                step_wall = max(slowest[p], io) + config.step_sync_cycles
            else:
                step_wall = slowest[p] + io + config.step_sync_cycles
            wall += steps * step_wall
            report.compute_cycles += steps * step_wall
            report.io_cycles += steps * io
            report.pe_active_cycles += steps * pe_active[p]
            report.pe_provisioned_cycles += (
                steps * config.num_pus * config.num_pes_per_pu * step_wall
            )
            report.pu_active_cycles += steps * pu_active[p]
            report.pu_provisioned_cycles += steps * config.num_pus * step_wall
            report.steps += steps
            report.live_slot_steps += steps * (len(order) - p)
            report.slot_steps_provisioned += steps * config.num_pus
            done = horizon
        ends[i] = wall
    return wall, ends


def _suffix(values: list[int], combine=operator.add) -> list[int]:
    """``combine`` folded over every suffix: entry ``p`` covers ``values[p:]``."""
    return list(accumulate(reversed(values), combine))[::-1]


def _static_pe_active(net: HWNetConfig, pe_costs: PECosts) -> int:
    """Sum of PE-active cycles for one inference of ``net`` (like
    :func:`~repro.inax.pu._static_step_cycles`, it reads only layers and
    fan-ins)."""
    return sum(
        pe_costs.node_cycles(plan.fan_in)
        for layer in net.layers
        for plan in layer
    )


def waves_required(population: int, num_pus: int) -> int:
    """Number of dispatch waves, ``ceil(p / num_pus)`` (§V-B)."""
    return math.ceil(population / num_pus)
