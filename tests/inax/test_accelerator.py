"""Unit and property tests for the INAX device and analytic scheduler."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.inax.accelerator import (
    INAX,
    INAXConfig,
    schedule_generation,
    waves_required,
)
from repro.inax.synthetic import synthetic_population
from repro.inax.timing import CycleReport


def _drive_device(config, pop, lengths):
    """Run the functional device over the same schedule the analytic
    scheduler assumes, returning its report."""
    device = INAX(config)
    num_pus = config.num_pus
    for start in range(0, len(pop), num_pus):
        wave = pop[start : start + num_pus]
        wave_lengths = lengths[start : start + num_pus]
        device.begin_wave(wave)
        t = 0
        while True:
            live = [i for i in range(len(wave)) if wave_lengths[i] > t]
            if not live:
                break
            device.step(live, np.zeros((len(live), wave[0].num_inputs)))
            t += 1
        device.end_wave()
    return device.report


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            INAXConfig(num_pus=0)
        with pytest.raises(ValueError):
            INAXConfig(num_pes_per_pu=0)

    def test_device_kwargs(self):
        device = INAX(num_pus=3, num_pes_per_pu=2)
        assert device.config.num_pus == 3
        with pytest.raises(TypeError):
            INAX(INAXConfig(), num_pus=3)


class TestDevice:
    def test_wave_too_large_rejected(self):
        pop = synthetic_population(num_individuals=5, seed=0)
        device = INAX(num_pus=2, num_pes_per_pu=1)
        with pytest.raises(ValueError, match="exceeds"):
            device.begin_wave(pop)

    def test_empty_wave_rejected(self):
        device = INAX(num_pus=2, num_pes_per_pu=1)
        with pytest.raises(ValueError):
            device.begin_wave([])

    def test_step_without_wave_rejected(self):
        device = INAX(num_pus=2, num_pes_per_pu=1)
        with pytest.raises(RuntimeError):
            device.step([0], np.zeros((1, 8)))

    def test_step_bad_slot_rejected(self):
        pop = synthetic_population(num_individuals=1, seed=0)
        device = INAX(num_pus=2, num_pes_per_pu=1)
        device.begin_wave(pop)
        with pytest.raises(IndexError):
            device.step([1], np.zeros((1, 8)))

    def test_outputs_per_slot(self):
        pop = synthetic_population(num_individuals=3, seed=1)
        device = INAX(num_pus=4, num_pes_per_pu=2)
        device.begin_wave(pop)
        outs = device.step([0, 1, 2], np.zeros((3, 8)))
        assert outs.shape == (3, 4)
        for out in outs:
            assert out.shape == (4,)


class TestAnalyticAgreement:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        num_pus=st.integers(1, 6),
        num_pes=st.integers(1, 4),
    )
    def test_analytic_matches_device(self, seed, num_pus, num_pes):
        """schedule_generation must agree with the stepwise device."""
        rng = np.random.default_rng(seed)
        pop = synthetic_population(
            num_individuals=7, num_hidden=10, seed=seed
        )
        lengths = [int(rng.integers(1, 6)) for _ in pop]
        config = INAXConfig(num_pus=num_pus, num_pes_per_pu=num_pes)
        analytic = schedule_generation(config, pop, lengths)
        measured = _drive_device(config, pop, lengths)
        assert analytic.total_cycles == measured.total_cycles
        fields = dataclasses.fields(CycleReport)
        assert len(fields) == 13
        for field in fields:
            assert getattr(analytic, field.name) == getattr(
                measured, field.name
            ), field.name

    def test_length_mismatch_rejected(self):
        pop = synthetic_population(num_individuals=3, seed=0)
        with pytest.raises(ValueError):
            schedule_generation(INAXConfig(), pop, [1, 2])

    def test_zero_length_rejected(self):
        pop = synthetic_population(num_individuals=2, seed=0)
        with pytest.raises(ValueError):
            schedule_generation(INAXConfig(), pop, [1, 0])


class TestScalingProperties:
    def test_more_pus_never_slower(self):
        pop = synthetic_population(num_individuals=40, seed=3)
        lengths = [10] * 40
        previous = float("inf")
        for num_pus in (1, 2, 5, 10, 20, 40):
            cfg = INAXConfig(num_pus=num_pus, num_pes_per_pu=2)
            total = schedule_generation(cfg, pop, lengths).total_cycles
            assert total <= previous
            previous = total

    def test_more_pes_never_slower(self):
        pop = synthetic_population(num_individuals=10, seed=4)
        lengths = [10] * 10
        previous = float("inf")
        for num_pes in (1, 2, 4, 8, 16):
            cfg = INAXConfig(num_pus=5, num_pes_per_pu=num_pes)
            total = schedule_generation(cfg, pop, lengths).total_cycles
            assert total <= previous
            previous = total

    def test_utilization_bounds(self):
        pop = synthetic_population(num_individuals=20, seed=5)
        rng = np.random.default_rng(0)
        lengths = [int(rng.integers(1, 20)) for _ in pop]
        for num_pus, num_pes in [(1, 1), (7, 3), (20, 8)]:
            cfg = INAXConfig(num_pus=num_pus, num_pes_per_pu=num_pes)
            rep = schedule_generation(cfg, pop, lengths)
            assert 0.0 <= rep.u_pe <= 1.0
            assert 0.0 <= rep.u_pu <= 1.0

    def test_full_wave_beats_almost_full_wave_utilization(self):
        # §V-B: 100 PUs finish 200 individuals in 2 full waves; 99 PUs
        # need 3 waves with the last one nearly empty
        pop = synthetic_population(num_individuals=200, seed=6)
        lengths = [10] * 200
        u_100 = schedule_generation(
            INAXConfig(num_pus=100, num_pes_per_pu=1), pop, lengths
        ).u_pu
        u_99 = schedule_generation(
            INAXConfig(num_pus=99, num_pes_per_pu=1), pop, lengths
        ).u_pu
        assert u_100 > u_99

    def test_early_termination_lowers_pu_utilization(self):
        pop = synthetic_population(num_individuals=10, seed=7)
        cfg = INAXConfig(num_pus=10, num_pes_per_pu=1)
        uniform = schedule_generation(cfg, pop, [20] * 10)
        skewed = schedule_generation(cfg, pop, [1] * 9 + [20])
        assert skewed.u_pu < uniform.u_pu

    def test_waves_required(self):
        assert waves_required(200, 100) == 2
        assert waves_required(200, 99) == 3
        assert waves_required(1, 50) == 1


class TestReportInvariants:
    def test_breakdown_sums_to_one(self):
        pop = synthetic_population(num_individuals=10, seed=8)
        cfg = INAXConfig(num_pus=4, num_pes_per_pu=3)
        rep = schedule_generation(cfg, pop, [5] * 10)
        breakdown = rep.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        # the Fig 9(a) bars fold set-up into the normalization, so the
        # active fraction is a lower bound on the compute-phase U(PE)
        assert breakdown["pe_active"] <= rep.u_pe
        expected = rep.pe_active_cycles / (
            rep.setup_cycles + rep.pe_provisioned_cycles
        )
        assert breakdown["pe_active"] == pytest.approx(expected)

    def test_merge_accumulates(self):
        pop = synthetic_population(num_individuals=6, seed=9)
        cfg = INAXConfig(num_pus=3, num_pes_per_pu=1)
        a = schedule_generation(cfg, pop[:3], [4, 4, 4])
        b = schedule_generation(cfg, pop[3:], [4, 4, 4])
        total_a = a.total_cycles
        a.merge(b)
        assert a.total_cycles == total_a + b.total_cycles
        assert a.individuals == 6


class TestControllerProtocol:
    """The sig-channel handshake order (§IV-B2) is enforced."""

    def test_begin_wave_twice_rejected(self):
        pop = synthetic_population(num_individuals=2, seed=10)
        device = INAX(num_pus=2, num_pes_per_pu=1)
        device.begin_wave(pop[:1])
        with pytest.raises(RuntimeError, match="already in progress"):
            device.begin_wave(pop[1:])

    def test_end_wave_without_begin_rejected(self):
        device = INAX(num_pus=2, num_pes_per_pu=1)
        with pytest.raises(RuntimeError, match="no wave in progress"):
            device.end_wave()

    def test_full_handshake_cycle(self):
        pop = synthetic_population(num_individuals=2, seed=11)
        device = INAX(num_pus=2, num_pes_per_pu=1)
        for _ in range(3):  # repeated waves are fine when paired
            device.begin_wave(pop)
            device.step([0, 1], np.zeros((2, 8)))
            device.end_wave()
        assert device.report.individuals == 6


class TestIOOverlap:
    def test_overlap_never_slower(self):
        pop = synthetic_population(num_individuals=12, seed=12)
        lengths = [6] * 12
        serial = schedule_generation(
            INAXConfig(num_pus=4, num_pes_per_pu=2), pop, lengths
        )
        overlapped = schedule_generation(
            INAXConfig(num_pus=4, num_pes_per_pu=2, overlap_io=True),
            pop,
            lengths,
        )
        assert overlapped.total_cycles <= serial.total_cycles
        assert overlapped.pe_active_cycles == serial.pe_active_cycles

    def test_overlap_device_matches_analytic(self):
        pop = synthetic_population(num_individuals=5, seed=13)
        lengths = [4] * 5
        config = INAXConfig(num_pus=3, num_pes_per_pu=2, overlap_io=True)
        analytic = schedule_generation(config, pop, lengths)
        measured = _drive_device(config, pop, lengths)
        assert analytic.total_cycles == measured.total_cycles

    def test_overlap_functional_results_unchanged(self):
        pop = synthetic_population(num_individuals=2, seed=14)
        a = INAX(INAXConfig(num_pus=2, num_pes_per_pu=2))
        b = INAX(INAXConfig(num_pus=2, num_pes_per_pu=2, overlap_io=True))
        for device in (a, b):
            device.begin_wave(pop)
        x = np.array([np.ones(8), np.zeros(8)])
        out_a = a.step([0, 1], x)
        out_b = b.step([0, 1], x)
        for slot in range(2):
            assert np.array_equal(out_a[slot], out_b[slot])
