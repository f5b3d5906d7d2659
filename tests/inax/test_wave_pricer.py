"""The one-pass wave pricer against a per-step reference.

The wave pricer's compute half (``_price_compute``) prices each
horizon of a wave from suffix maxima and sums over its episode-length
order.  The reference here walks every step ``t`` instead, with the
live set re-derived as every individual whose episode is longer than
``t``; every ``CycleReport`` field must come out equal, through
``schedule_waves`` (the fabric's entry), ``schedule_generation`` and
``schedule_generation_sa``.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.inax.accelerator import (
    INAXConfig,
    _static_pe_active,
    schedule_generation,
    schedule_waves,
)
from repro.inax.pipeline import PipelineConfig, pack_waves
from repro.inax.pu import _static_step_cycles
from repro.inax.synthetic import synthetic_population
from repro.inax.systolic import (
    SACosts,
    sa_pe_active_cycles,
    sa_step_cycles,
    schedule_generation_sa,
)
from repro.inax.timing import CycleReport

POOL = [
    config
    for layers, seed in ((1, 3), (2, 4), (3, 5))
    for config in synthetic_population(
        num_individuals=4,
        num_inputs=4,
        num_outputs=2,
        num_hidden=7,
        sparsity=0.5,
        num_hidden_layers=layers,
        seed=seed,
    )
]


def _models(config: INAXConfig, model: str):
    if model == "sa":
        costs = SACosts()
        return (
            lambda c: sa_step_cycles(c, config.num_pes_per_pu, costs),
            lambda c: sa_pe_active_cycles(c, costs),
        )
    return (
        lambda c: _static_step_cycles(
            c, config.num_pes_per_pu, config.pe_costs, config.pu_costs
        ),
        lambda c: _static_pe_active(c, config.pe_costs),
    )


def _reference(config, pop, lengths, waves, model, prefetch):
    """Every wave priced step by step, the live set re-derived each step."""
    step_cycles, pe_active = _models(config, model)
    dma = config.dma
    report = CycleReport()
    report.individuals = sum(len(indices) for indices in waves)
    prev_compute = 0.0
    for ordinal, indices in enumerate(waves):
        wave = [pop[i] for i in indices]
        wave_lengths = [lengths[i] for i in indices]
        setup = dma.transfer_cycles(sum(c.config_words for c in wave)) + max(
            c.config_words * config.pu_costs.decode_cycles_per_word
            for c in wave
        )
        window = prev_compute if prefetch and ordinal > 0 else 0.0
        exposed = max(0, setup - window)
        report.setup_cycles += exposed
        report.prefetch_hidden_cycles += setup - exposed
        report.pu_provisioned_cycles += config.num_pus * exposed
        report.pu_active_cycles += len(wave) * exposed
        report.waves += 1
        compute = 0.0
        for t in range(max(wave_lengths)):
            live = [c for c, n in zip(wave, wave_lengths) if n > t]
            slowest = max(step_cycles(c) for c in live)
            io = dma.transfer_cycles(
                sum(c.num_inputs for c in live)
            ) + dma.transfer_cycles(sum(c.num_outputs for c in live))
            if config.overlap_io:
                wall = max(slowest, io) + config.step_sync_cycles
            else:
                wall = slowest + io + config.step_sync_cycles
            compute += wall
            report.compute_cycles += wall
            report.io_cycles += io
            report.pe_active_cycles += sum(pe_active(c) for c in live)
            report.pe_provisioned_cycles += (
                config.num_pus * config.num_pes_per_pu * wall
            )
            report.pu_active_cycles += sum(step_cycles(c) for c in live)
            report.pu_provisioned_cycles += config.num_pus * wall
            report.steps += 1
            report.live_slot_steps += len(live)
            report.slot_steps_provisioned += config.num_pus
        prev_compute = compute
    return report


@st.composite
def workloads(draw):
    num_pus = draw(st.integers(1, 6))
    size = draw(st.integers(1, 3 * num_pus))
    pop = [POOL[draw(st.integers(0, len(POOL) - 1))] for _ in range(size)]
    # a narrow range forces length ties; a wide one long horizons
    lengths = draw(
        st.lists(
            st.one_of(st.integers(1, 3), st.integers(1, 80)),
            min_size=size,
            max_size=size,
        )
    )
    config = INAXConfig(
        num_pus=num_pus,
        num_pes_per_pu=draw(st.integers(1, 4)),
        overlap_io=draw(st.booleans()),
    )
    return config, pop, lengths


def _chunks(draw, size, num_pus):
    """An explicit dispatch: a permutation cut into waves of 1..num_pus."""
    order = draw(st.permutations(range(size)))
    waves, start = [], 0
    while start < size:
        width = draw(st.integers(1, num_pus))
        waves.append(list(order[start : start + width]))
        start += width
    return waves


def _fields(report):
    return dataclasses.asdict(report)


@settings(max_examples=60, deadline=None)
@given(
    workload=workloads(),
    model=st.sampled_from(["inax", "sa"]),
    prefetch=st.booleans(),
    data=st.data(),
)
def test_schedule_waves_matches_per_step_reference(
    workload, model, prefetch, data
):
    config, pop, lengths = workload
    waves = _chunks(data.draw, len(pop), config.num_pus)
    step_cycles, pe_active = _models(config, model)
    priced = schedule_waves(
        config, pop, lengths, waves,
        step_cycles_fn=step_cycles, pe_active_fn=pe_active,
        prefetch=prefetch,
    )
    expected = _reference(config, pop, lengths, waves, model, prefetch)
    assert _fields(priced) == _fields(expected)


@settings(max_examples=60, deadline=None)
@given(
    workload=workloads(),
    model=st.sampled_from(["inax", "sa"]),
    schedule=st.sampled_from(["arrival", "lpt"]),
    prefetch=st.booleans(),
)
def test_schedule_generation_matches_per_step_reference(
    workload, model, schedule, prefetch
):
    config, pop, lengths = workload
    pipeline = PipelineConfig(schedule=schedule, prefetch=prefetch)
    step_cycles, _ = _models(config, model)
    if schedule == "arrival":
        costs = [None] * len(pop)
    else:  # the analytic convention: costs from the actual lengths
        costs = [float(n) * step_cycles(c) for c, n in zip(pop, lengths)]
    waves = pack_waves(costs, config.num_pus, schedule)
    if model == "sa":
        priced = schedule_generation_sa(config, pop, lengths, pipeline=pipeline)
    else:
        priced = schedule_generation(config, pop, lengths, pipeline=pipeline)
    expected = _reference(config, pop, lengths, waves, model, prefetch)
    assert _fields(priced) == _fields(expected)


def test_ties_single_and_full_waves():
    """Fixed corner cases: a full wave of equal lengths, a single-member
    wave, and a wave whose lengths tie at several horizons."""
    config = INAXConfig(num_pus=4, num_pes_per_pu=2)
    pop = POOL[:9]
    lengths = [5, 5, 5, 5, 7, 2, 2, 9, 9]
    waves = [[0, 1, 2, 3], [4], [5, 6, 7, 8]]
    for prefetch in (False, True):
        priced = schedule_waves(config, pop, lengths, waves, prefetch=prefetch)
        expected = _reference(config, pop, lengths, waves, "inax", prefetch)
        assert _fields(priced) == _fields(expected)
