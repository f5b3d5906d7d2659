"""Device-level fault injection against the functional INAX model."""

import dataclasses

import numpy as np
import pytest

from repro.inax.accelerator import INAX, INAXConfig
from repro.inax.synthetic import synthetic_population
from repro.resilience.faults import DeviceFault, FaultPlan
from repro.resilience.injectors import DeviceFaultInjector


NUM_PUS = 4
STEPS = 6


def _population(n=3, seed=0):
    return synthetic_population(
        num_individuals=n, num_hidden=6, seed=seed
    )


def _inputs(num_inputs, num_slots, step, base_seed=0):
    """``(slots, obs)`` for one device step with every slot live."""
    rng = np.random.default_rng(base_seed * 1000 + step)
    return list(range(num_slots)), rng.standard_normal((num_slots, num_inputs))


def _run_wave(device, configs, steps=STEPS):
    """Drive one wave and return (outputs-per-step, report)."""
    device.begin_wave(configs)
    trace = []
    for step in range(steps):
        outputs = device.step(
            *_inputs(configs[0].num_inputs, len(configs), step)
        )
        trace.append([row.tobytes() for row in outputs])
    device.end_wave()
    return trace, device.report


def _device(plan=None, num_pus=NUM_PUS):
    injector = DeviceFaultInjector(plan) if plan is not None else None
    return INAX(
        INAXConfig(num_pus=num_pus, num_pes_per_pu=2),
        fault_injector=injector,
    )


class TestWeightBitflip:
    def test_flip_replaces_config_copy_not_shared_object(self):
        pop = _population()
        plan = FaultPlan.parse("seed=3,inax.weight_bitflip@1.0")
        device = _device(plan)
        baseline = [cfg.layers for cfg in pop]
        device.begin_wave(pop)
        # the loaded config was replaced by a corrupted copy...
        for slot in range(len(pop)):
            assert device.pus[slot]._config is not pop[slot]
        # ...and the shared compiled objects are untouched
        assert [cfg.layers for cfg in pop] == baseline
        device.step(*_inputs(pop[0].num_inputs, len(pop), 0))
        device.end_wave()
        kinds = [e.kind for e in plan.events]
        assert kinds.count("inax.weight_bitflip") == len(pop)

    def test_unfired_plan_loads_shared_config(self):
        pop = _population()
        plan = FaultPlan.parse("seed=3,inax.weight_bitflip@0.0")
        device = _device(plan)
        device.begin_wave(pop)
        for slot in range(len(pop)):
            assert device.pus[slot]._config is pop[slot]
        device.abort_wave()
        assert plan.events == []


class TestWedge:
    def test_wedge_raises_and_abort_allows_next_wave(self):
        pop = _population()
        plan = FaultPlan.parse("seed=0,inax.wedge@1.0")
        device = _device(plan)
        device.begin_wave(pop)
        with pytest.raises(DeviceFault, match="inax.wedge"):
            device.step(*_inputs(pop[0].num_inputs, len(pop), 0))
        # the wedged wave is discarded; the device accepts a fresh wave
        device.abort_wave()
        device.abort_wave()  # double abort is a no-op
        clean = _device()
        clean_trace, _ = _run_wave(clean, pop)
        device.fault_injector = None
        retry_trace, _ = _run_wave(device, pop)
        assert retry_trace == clean_trace

    def test_wedge_event_site_names_wave_and_step(self):
        pop = _population()
        plan = FaultPlan.parse("seed=0,inax.wedge@1.0")
        device = _device(plan)
        device.begin_wave(pop)
        with pytest.raises(DeviceFault):
            device.step(*_inputs(pop[0].num_inputs, len(pop), 0))
        assert plan.events[0].site == "wave=0|step=0"


class TestCycleOnlyFaults:
    """Stall and input-drop perturb timing, never values."""

    def test_pu_stall_burns_cycles_but_keeps_outputs(self):
        pop = _population()
        clean_trace, clean_report = _run_wave(_device(), pop)
        plan = FaultPlan.parse("seed=2,inax.pu_stall@1.0:500")
        faulty_trace, faulty_report = _run_wave(_device(plan), pop)
        assert faulty_trace == clean_trace
        # every step's slowest PU carried the 500-cycle stall
        assert (
            faulty_report.compute_cycles
            >= clean_report.compute_cycles + STEPS * 500
        )
        assert len(plan.events) == STEPS * len(pop)

    def test_input_drop_inflates_io_cycles_only(self):
        pop = _population()
        clean_trace, clean_report = _run_wave(_device(), pop)
        plan = FaultPlan.parse("seed=2,dma.input_drop@1.0")
        faulty_trace, faulty_report = _run_wave(_device(plan), pop)
        assert faulty_trace == clean_trace
        assert faulty_report.io_cycles > clean_report.io_cycles
        assert [e.kind for e in plan.events] == ["dma.input_drop"] * STEPS


class TestDataFaults:
    def test_output_corrupt_changes_values(self):
        pop = _population()
        clean_trace, _ = _run_wave(_device(), pop)
        plan = FaultPlan.parse("seed=5,dma.output_corrupt@1.0")
        faulty_trace, _ = _run_wave(_device(plan), pop)
        assert faulty_trace != clean_trace
        event = plan.events[0]
        assert event.kind == "dma.output_corrupt"
        assert {"index", "bit", "before", "after"} <= event.details.keys()

    def test_value_bitflip_records_per_slot_sites(self):
        pop = _population()
        plan = FaultPlan.parse("seed=5,inax.value_bitflip@1.0")
        _run_wave(_device(plan), pop, steps=1)
        sites = {e.site for e in plan.events}
        assert sites == {
            f"wave=0|step=0|slot={slot}|in" for slot in range(len(pop))
        }


class TestDeterminism:
    def test_same_plan_replays_identical_outputs_and_events(self):
        pop = _population()
        spec = "seed=7,dma.output_corrupt@0.3,inax.pu_stall@0.2:100"
        plan_a = FaultPlan.parse(spec)
        plan_b = FaultPlan.parse(spec)
        trace_a, report_a = _run_wave(_device(plan_a), pop)
        trace_b, report_b = _run_wave(_device(plan_b), pop)
        assert trace_a == trace_b
        assert plan_a.event_log() == plan_b.event_log()
        assert report_a.compute_cycles == report_b.compute_cycles
        assert report_a.io_cycles == report_b.io_cycles

    def test_wave_counter_is_monotonic_across_waves(self):
        pop = _population()
        plan = FaultPlan.parse("seed=5,inax.value_bitflip@1.0")
        device = _device(plan)
        for _ in range(2):
            device.begin_wave(pop)
            device.step(*_inputs(pop[0].num_inputs, len(pop), 0))
            device.end_wave()
        waves = {e.site.split("|")[0] for e in plan.events}
        assert waves == {"wave=0", "wave=1"}

    def test_no_injector_path_matches_disarmed_plan(self):
        """Without an injector the device can replay a wave from its
        episode lengths, which is what the backends do; an attached
        injector, even an unarmed one, keeps it stepping per PU.  The
        replay must charge every report field the stepped wave does,
        and the stepped outputs must not notice the unarmed hooks."""
        width = 8
        pop = _population(n=width)
        clean = _device(num_pus=width)
        assert clean.replayable
        clean.replay_wave(pop, [STEPS] * width)
        plan = FaultPlan(seed=1)  # armed with nothing
        noop = _device(plan, num_pus=width)
        assert not noop.replayable
        noop_trace, noop_report = _run_wave(noop, pop)
        stepped_trace, _ = _run_wave(_device(num_pus=width), pop)
        # the PEs count the nodes they compute: only the stepped wave
        # ran node by node
        assert _nodes_computed(clean) == 0
        assert _nodes_computed(noop) > 0
        assert noop_trace == stepped_trace
        assert dataclasses.asdict(noop_report) == dataclasses.asdict(
            clean.report
        )


def _nodes_computed(device):
    return sum(pe.nodes_computed for pu in device.pus for pe in pu.pes)
