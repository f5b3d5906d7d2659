"""Unit tests for the generation-pipelining policies (repro.inax.pipeline)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.inax.accelerator import INAXConfig
from repro.inax.heuristics import wave_occupancy
from repro.inax.pipeline import (
    SCHEDULES,
    PipelineConfig,
    pack_waves,
    predict_costs,
)
from repro.inax.pu import _static_step_cycles
from repro.inax.synthetic import synthetic_population
from repro.inax.timing import CycleReport


class TestPipelineConfig:
    def test_defaults_are_the_paper_baseline(self):
        cfg = PipelineConfig()
        assert cfg.schedule == "arrival"
        assert cfg.prefetch is False
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "schedule",
            "prefetch",
        ]

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            PipelineConfig(schedule="sjf")

    def test_frozen(self):
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.schedule = "lpt"

    def test_schedules_registry(self):
        assert SCHEDULES == ("arrival", "lpt")


class TestPackWaves:
    def test_arrival_is_population_order(self):
        waves = pack_waves([5.0, 1.0, 9.0, 2.0, 7.0], 2, "arrival")
        assert waves == [[0, 1], [2, 3], [4]]

    def test_arrival_ignores_costs(self):
        a = pack_waves([None] * 5, 3, "arrival")
        b = pack_waves([9.0, 1.0, 5.0, 2.0, 7.0], 3, "arrival")
        assert a == b

    def test_lpt_sorts_longest_first(self):
        waves = pack_waves([5.0, 1.0, 9.0, 2.0, 7.0], 2, "lpt")
        assert waves == [[2, 4], [0, 3], [1]]

    def test_lpt_ties_break_by_arrival(self):
        waves = pack_waves([3.0, 3.0, 3.0], 2, "lpt")
        assert waves == [[0, 1], [2]]

    def test_lpt_unknown_costs_keep_arrival_order_at_tail(self):
        waves = pack_waves([None, 4.0, None, 9.0], 2, "lpt")
        assert waves == [[3, 1], [0, 2]]

    def test_all_unknown_degenerates_to_arrival(self):
        assert pack_waves([None] * 4, 3, "lpt") == [[0, 1, 2], [3]]

    def test_empty_population(self):
        assert pack_waves([], 3, "lpt") == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            pack_waves([1.0], 0)

    def test_schedule_validated(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            pack_waves([1.0], 2, "sjf")

    @given(
        costs=st.lists(
            st.one_of(st.none(), st.floats(0.0, 1e6)), max_size=40
        ),
        capacity=st.integers(1, 7),
        schedule=st.sampled_from(SCHEDULES),
    )
    @settings(max_examples=100, deadline=None)
    def test_waves_are_a_partition(self, costs, capacity, schedule):
        waves = pack_waves(costs, capacity, schedule)
        flat = [i for wave in waves for i in wave]
        assert sorted(flat) == list(range(len(costs)))
        assert all(1 <= len(wave) <= capacity for wave in waves)
        # every wave but the last is full
        assert all(len(wave) == capacity for wave in waves[:-1])

    @given(
        costs=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30),
        capacity=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_lpt_minimizes_sum_of_wave_maxima(self, costs, capacity):
        """LPT chunking is optimal for the sum-of-per-wave-maxima
        objective on a sequential device: no other packing does better
        than sorting descending and chunking."""
        waves = pack_waves(costs, capacity, "lpt")
        lpt_total = sum(max(costs[i] for i in wave) for wave in waves)
        arrival = pack_waves(costs, capacity, "arrival")
        arrival_total = sum(max(costs[i] for i in wave) for wave in arrival)
        # relative slack: both totals sum the same values in different
        # orders at capacity=1, and float addition is not associative
        assert lpt_total <= arrival_total * (1.0 + 1e-12) + 1e-9


class TestPredictCosts:
    def test_known_and_unknown_keys(self):
        pop = synthetic_population(num_individuals=3, seed=0)
        config = INAXConfig(num_pus=4, num_pes_per_pu=2)
        costs = predict_costs(
            pop,
            keys=["a", "b", "c"],
            last_lengths={"a": 10, "c": 3},
            num_pes_per_pu=config.num_pes_per_pu,
            pe_costs=config.pe_costs,
            pu_costs=config.pu_costs,
        )
        per_step = [
            _static_step_cycles(
                c, config.num_pes_per_pu, config.pe_costs, config.pu_costs
            )
            for c in pop
        ]
        assert costs == [10.0 * per_step[0], None, 3.0 * per_step[2]]

    def test_empty(self):
        assert predict_costs([], [], {}, 2, None, None) == []


class TestWaveOccupancy:
    def test_uniform_lengths_full_waves(self):
        assert wave_occupancy([7, 7, 7, 7], 2) == 1.0

    def test_skew_hurts_arrival(self):
        # arrival pairs the 100 with a 1: provisioned 2*(100+100),
        # lpt pairs the two 100s: provisioned 2*(100+1)
        lengths = [100, 1, 100, 1]
        arrival = wave_occupancy(lengths, 2, "arrival")
        lpt = wave_occupancy(lengths, 2, "lpt")
        assert lpt > arrival
        assert arrival == pytest.approx(202 / 400)
        assert lpt == pytest.approx(202 / 202)

    def test_empty_is_zero(self):
        assert wave_occupancy([], 3) == 0.0

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            wave_occupancy([5, 0], 2)


class TestCycleReportPipelineFields:
    def test_packing_efficiency(self):
        report = CycleReport(live_slot_steps=30, slot_steps_provisioned=40)
        assert report.packing_efficiency == pytest.approx(0.75)

    def test_packing_efficiency_empty(self):
        assert CycleReport().packing_efficiency == 0.0

    def test_merge_accumulates_new_fields(self):
        a = CycleReport(
            waves=2,
            prefetch_hidden_cycles=5.0,
            live_slot_steps=10,
            slot_steps_provisioned=12,
        )
        b = CycleReport(
            waves=1,
            prefetch_hidden_cycles=2.5,
            live_slot_steps=3,
            slot_steps_provisioned=6,
        )
        a.merge(b)
        assert a.waves == 3
        assert a.prefetch_hidden_cycles == 7.5
        assert a.live_slot_steps == 13
        assert a.slot_steps_provisioned == 18

    def test_total_cycles_excludes_hidden_setup(self):
        report = CycleReport(
            setup_cycles=10.0, compute_cycles=90.0, prefetch_hidden_cycles=40.0
        )
        assert report.total_cycles == 100.0
