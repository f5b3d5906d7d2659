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

Both paths share the same per-PU timing semantics, and the tests assert
they agree cycle-for-cycle.

The stepwise device itself computes a step one of two ways, with
identical output bits and cycle counts.  The per-PU reference runs each
live slot's :meth:`~repro.inax.pu.ProcessingUnit.infer` node by node on
its PEs.  When nothing about the step can depend on the data, the wave's
configurations are instead lowered once at set-up into one flattened
plan (:class:`~repro.neat.vectorized.PopulationEvaluator`, the
``cpu-compiled`` engine), every live slot computes in one NumPy pass,
and each slot's input-independent latency is read from the per-slot
timing :meth:`INAX.begin_wave` precomputed — the same parallelism
across PUs that the paper's wave step exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.envs.rollout import INFER_MIN_WIDTH, check_observations, check_slots
from repro.inax.compiler import HWNetConfig
from repro.inax.dma import DMAModel
from repro.inax.pe import PECosts
from repro.inax.pipeline import PipelineConfig, pack_waves
from repro.inax.pu import ProcessingUnit, PUCosts, _static_step_cycles
from repro.inax.timing import CycleReport
from repro.neat.vectorized import PopulationEvaluator, _NetPlan
from repro.telemetry.spans import get_tracer

__all__ = [
    "INAXConfig",
    "INAX",
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

    :meth:`step` runs on the per-PU reference path whenever the data
    could matter or the wave cannot be flattened: a fixed-point
    ``datapath``, ``skip_zero_activations`` (data-dependent cycles), an
    attached fault injector (per-slot hook order and event log), a wave
    :meth:`begin_wave` could not lower (non-``sum`` aggregation, an
    activation without a vector twin, mixed arity), or a step with
    fewer than :data:`~repro.envs.rollout.INFER_MIN_WIDTH` live slots.
    Every other step is one flattened pass.
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
        # the wave's flattened plan (None: every step runs per PU), the
        # per-slot static timing beside it, and the last step's live
        # slots with their summed timing
        self._flat: PopulationEvaluator | None = None
        self._slot_timing: list[tuple[int, int]] = []
        self._live: list[int] | None = None
        self._live_timing: tuple[int, int, int, int, int] | None = None
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

    # -------------------------------------------------------------- wave
    def begin_wave(
        self, configs: list[HWNetConfig], prefetched: bool = False
    ) -> None:
        """Set-up phase: dispatch up to ``num_pus`` individuals.

        The batch "is controlled to match the number of PUs" (§IV-C2).
        Configuration words stream over the shared weight channel
        (serialized); each PU decodes its own individual in parallel.

        With ``prefetched`` the controller double-buffered this wave's
        DMA/decode behind the *previous* wave's compute window, so only
        ``max(0, setup − prev_compute)`` cycles are exposed on the wall
        clock; the hidden remainder is accounted in
        :attr:`CycleReport.prefetch_hidden_cycles`.  The first wave of a
        generation has no window and must not pass ``prefetched``.
        """
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
        self._live = None
        decode_cycles = []
        for pu, cfg in zip(self.pus, configs):
            decode_cycles.append(pu.load(cfg))
        if self.fault_injector is not None:
            for slot in range(len(configs)):
                self.fault_injector.on_load(
                    self.pus[slot], self._wave_index, slot
                )
        self._lower_wave(len(configs))
        dma_cycles = self.config.dma.transfer_cycles(
            sum(c.config_words for c in configs)
        )
        setup_wall = dma_cycles + max(decode_cycles)
        if prefetched:
            exposed = max(0, setup_wall - self._prev_wave_compute)
        else:
            exposed = setup_wall
        hidden = setup_wall - exposed
        self._compute_since_setup = 0
        self.report.setup_cycles += exposed
        self.report.prefetch_hidden_cycles += hidden
        self.report.pu_provisioned_cycles += self.config.num_pus * exposed
        self.report.pu_active_cycles += len(configs) * exposed
        self.report.individuals += len(configs)
        self.report.waves += 1
        self._tracing = get_tracer() is not None
        self._wave_start_cycle = self._cycle
        self._wave_setup_cycles = exposed
        self._wave_hidden_setup = hidden
        self._cycle += exposed
        if self._tracing:
            end_of_setup = self._cycle
            self._slot_last_active = [end_of_setup] * len(configs)
            self._slot_active_cycles = [0] * len(configs)
            self._slot_steps = [0] * len(configs)

    def _lower_wave(self, size: int) -> None:
        """Flatten the wave's loaded configs for batched steps, if allowed.

        Leaves :attr:`_flat` ``None`` — every step on the per-PU
        reference path — for a wave narrower than
        :data:`~repro.envs.rollout.INFER_MIN_WIDTH`, under any of the
        data-dependent settings, or when the configs do not lower.
        Otherwise also records each slot's input-independent per-step
        timing: the closed forms :func:`schedule_generation` prices with.
        """
        cfg = self.config
        self._flat = None
        if (
            size < INFER_MIN_WIDTH
            or cfg.datapath is not None
            or cfg.skip_zero_activations
            or self.fault_injector is not None
        ):
            return
        loaded = [pu.loaded for pu in self.pus[:size]]
        try:
            self._flat = PopulationEvaluator.from_plans(
                [_NetPlan(c.network()) for c in loaded]
            )
        except (KeyError, ValueError):  # not lowerable: steps run per PU
            return
        self._slot_timing = [
            (
                _static_step_cycles(
                    c, cfg.num_pes_per_pu, cfg.pe_costs, cfg.pu_costs
                ),
                _static_pe_active(c, cfg.pe_costs),
            )
            for c in loaded
        ]

    def step(self, slots: list[int], obs: np.ndarray) -> np.ndarray:
        """One synchronized inference across the wave's live slots.

        An :data:`repro.envs.rollout.InferFn`: ``slots`` lists the live
        slots in ascending order (slots whose episode already terminated
        are left out and idle), row ``i`` of ``obs`` is ``slots[i]``'s
        observation and row ``i`` of the result its output vector.
        """
        if not self._wave_slots:
            raise RuntimeError("no wave in progress; call begin_wave() first")
        if slots != self._live:
            check_slots(slots, len(self._wave_slots))
            self._live = list(slots)
            self._live_timing = None
        obs = check_observations(
            obs, len(slots), self._wave_slots[slots[0]].num_inputs
        )
        cfg = self.config
        self._wave_step += 1
        if self._flat is not None and len(slots) >= INFER_MIN_WIDTH:
            outputs, timing = self._step_flat(slots, obs)
        else:
            outputs, timing = self._step_per_pu(slots, obs)
        slowest, pe_active, pu_active, in_words, out_words = timing
        injector = self.fault_injector
        io = cfg.dma.transfer_cycles(in_words) + cfg.dma.transfer_cycles(out_words)
        if injector is not None:
            # a dropped input transfer is re-sent; the retry serializes
            # on the shared input channel
            io += cfg.dma.retry_cycles(
                in_words,
                injector.input_retries(self._wave_index, self._wave_step - 1),
            )
        if cfg.overlap_io:
            step_wall = max(slowest, io) + cfg.step_sync_cycles
        else:
            step_wall = slowest + io + cfg.step_sync_cycles
        self._cycle += step_wall
        if self._tracing:
            for slot in slots:
                self._slot_last_active[slot] = self._cycle
        report = self.report
        report.compute_cycles += step_wall
        report.io_cycles += io
        report.pe_active_cycles += pe_active
        report.pe_provisioned_cycles += (
            cfg.num_pus * cfg.num_pes_per_pu * step_wall
        )
        report.pu_active_cycles += pu_active
        report.pu_provisioned_cycles += cfg.num_pus * step_wall
        report.steps += 1
        report.live_slot_steps += len(slots)
        report.slot_steps_provisioned += cfg.num_pus
        self._compute_since_setup += step_wall
        return outputs

    def _step_flat(self, slots: list[int], obs: np.ndarray):
        """The flattened step: every live slot in one pass.

        Returns ``(outputs, (slowest, pe_active, pu_active, in_words,
        out_words))`` like :meth:`_step_per_pu`; the timing sums the
        slots' precomputed static numbers, once per live set.
        """
        outputs = self._flat.infer(slots, obs)
        if self._live_timing is None:
            timing = [self._slot_timing[slot] for slot in slots]
            configs = [self._wave_slots[slot] for slot in slots]
            self._live_timing = (
                max(cycles for cycles, _ in timing),
                sum(active for _, active in timing),
                sum(cycles for cycles, _ in timing),
                sum(c.num_inputs for c in configs),
                sum(c.num_outputs for c in configs),
            )
        if self._tracing:
            for slot in slots:
                self._slot_active_cycles[slot] += self._slot_timing[slot][0]
                self._slot_steps[slot] += 1
        return outputs, self._live_timing

    def _step_per_pu(self, slots: list[int], obs: np.ndarray):
        """The reference step: each live slot's PU infers its own row.

        Returns ``(outputs, (slowest, pe_active, pu_active, in_words,
        out_words))``; fault hooks fire per slot in slot order.
        """
        injector = self.fault_injector
        wave, step_index = self._wave_index, self._wave_step - 1
        if injector is not None:
            injector.check_wedge(wave, step_index)
        rows = []
        slowest = 0
        pe_active = 0
        pu_active = 0
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
            slowest = max(slowest, timing.cycles)
            pe_active += timing.pe_active_cycles
            pu_active += timing.cycles
            if self._tracing:
                self._slot_active_cycles[slot] += timing.cycles
                self._slot_steps[slot] += 1
            in_words += self._wave_slots[slot].num_inputs
            out_words += self._wave_slots[slot].num_outputs
        outputs = np.array(rows, dtype=np.float64)
        return outputs, (slowest, pe_active, pu_active, in_words, out_words)

    def end_wave(self) -> None:
        if not self._wave_slots:
            raise RuntimeError(
                "no wave in progress; end_wave() must pair with begin_wave()"
            )
        if self._tracing:
            self._emit_wave_spans()
        self._wave_slots = []
        self._flat = None
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
        self._flat = None
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


StepCycleFn = "Callable[[HWNetConfig], int]"


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

    ``step_cycles_fn`` / ``pe_active_fn`` override the per-inference
    latency/activity models; the defaults are INAX's.  The systolic-array
    baseline (Fig 11) passes its own latency model through here so both
    accelerators share the identical wave/episode schedule.

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
    if step_cycles_fn is None:
        step_cycles_fn = lambda c: _static_step_cycles(  # noqa: E731
            c, config.num_pes_per_pu, config.pe_costs, config.pu_costs
        )
    if pe_active_fn is None:
        pe_active_fn = lambda c: _static_pe_active(c, config.pe_costs)  # noqa: E731
    pipeline = pipeline or PipelineConfig()
    if predicted_costs is not None and len(predicted_costs) != len(net_configs):
        raise ValueError("need one predicted cost per individual")
    report = CycleReport()
    report.individuals = len(net_configs)
    num_pus = config.num_pus

    costs: list[float | None]
    if pipeline.schedule == "arrival":
        costs = [None] * len(net_configs)
    elif predicted_costs is not None:
        costs = list(predicted_costs)
    else:
        costs = [
            float(length) * step_cycles_fn(c)
            for c, length in zip(net_configs, episode_lengths)
        ]
    waves = pack_waves(costs, num_pus, pipeline.schedule)
    schedule_waves(
        config, net_configs, episode_lengths, waves, report,
        step_cycles_fn=step_cycles_fn, pe_active_fn=pe_active_fn,
        prefetch=pipeline.prefetch,
    )
    return report


def schedule_waves(
    config: INAXConfig,
    net_configs: list[HWNetConfig],
    episode_lengths: list[int],
    waves: list[list[int]],
    report: CycleReport | None = None,
    step_cycles_fn=None,
    pe_active_fn=None,
    prefetch: bool = False,
) -> CycleReport:
    """Price an explicit wave sequence (index lists) into a report.

    The device-subset entry point behind :func:`schedule_generation`:
    the fabric prices each farm device's assigned waves through here so
    multi-device scaling numbers use the exact single-device wave
    semantics (including per-device prefetch windows).
    """
    if step_cycles_fn is None:
        step_cycles_fn = lambda c: _static_step_cycles(  # noqa: E731
            c, config.num_pes_per_pu, config.pe_costs, config.pu_costs
        )
    if pe_active_fn is None:
        pe_active_fn = lambda c: _static_pe_active(c, config.pe_costs)  # noqa: E731
    if report is None:
        report = CycleReport()
        report.individuals = sum(len(indices) for indices in waves)
    prev_compute = 0.0
    for ordinal, indices in enumerate(waves):
        wave = [net_configs[i] for i in indices]
        lengths = [episode_lengths[i] for i in indices]
        window = prev_compute if (prefetch and ordinal > 0) else 0.0
        prev_compute = _schedule_wave(
            config, wave, lengths, report, step_cycles_fn, pe_active_fn,
            prefetch_window=window,
        )
    return report


def _schedule_wave(
    config: INAXConfig,
    wave: list[HWNetConfig],
    lengths: list[int],
    report: CycleReport,
    step_cycles_fn,
    pe_active_fn,
    prefetch_window: float = 0.0,
) -> float:
    """Price one wave into ``report``; returns its compute wall-clock."""
    pu_costs, dma = config.pu_costs, config.dma

    # --- set-up phase (the prefetch window hides the leading part) ---
    decode = [
        c.config_words * pu_costs.decode_cycles_per_word for c in wave
    ]
    setup_wall = dma.transfer_cycles(sum(c.config_words for c in wave)) + max(
        decode
    )
    exposed = max(0, setup_wall - prefetch_window)
    report.setup_cycles += exposed
    report.prefetch_hidden_cycles += setup_wall - exposed
    report.pu_provisioned_cycles += config.num_pus * exposed
    report.pu_active_cycles += len(wave) * exposed
    report.waves += 1

    # --- compute phase: group steps by the set of live individuals ---
    per_step_cycles = [step_cycles_fn(c) for c in wave]
    per_step_active = [pe_active_fn(c) for c in wave]
    compute_wall = 0.0

    order = sorted(range(len(wave)), key=lambda i: lengths[i])
    live = list(order)  # indices still alive, shortest-lived first
    t = 0
    while live:
        horizon = lengths[live[0]]  # all of `live` survive through horizon
        n_steps = horizon - t
        slowest = max(per_step_cycles[i] for i in live)
        in_words = sum(wave[i].num_inputs for i in live)
        out_words = sum(wave[i].num_outputs for i in live)
        io = dma.transfer_cycles(in_words) + dma.transfer_cycles(out_words)
        if config.overlap_io:
            step_wall = max(slowest, io) + config.step_sync_cycles
        else:
            step_wall = slowest + io + config.step_sync_cycles

        report.compute_cycles += n_steps * step_wall
        compute_wall += n_steps * step_wall
        report.io_cycles += n_steps * io
        report.pe_active_cycles += n_steps * sum(
            per_step_active[i] for i in live
        )
        report.pe_provisioned_cycles += (
            n_steps * config.num_pus * config.num_pes_per_pu * step_wall
        )
        report.pu_active_cycles += n_steps * sum(
            per_step_cycles[i] for i in live
        )
        report.pu_provisioned_cycles += n_steps * config.num_pus * step_wall
        report.steps += n_steps
        report.live_slot_steps += n_steps * len(live)
        report.slot_steps_provisioned += n_steps * config.num_pus
        t = horizon
        live = [i for i in live if lengths[i] > t]
    return compute_wall


def _static_pe_active(net: HWNetConfig, pe_costs: PECosts) -> int:
    """Sum of PE-active cycles for one inference of ``net``."""
    return sum(
        pe_costs.node_cycles(plan.fan_in)
        for layer in net.layers
        for plan in layer
    )


def waves_required(population: int, num_pus: int) -> int:
    """Number of dispatch waves, ``ceil(p / num_pus)`` (§V-B)."""
    return math.ceil(population / num_pus)
