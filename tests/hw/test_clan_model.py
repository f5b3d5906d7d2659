"""Unit tests for the CLAN distributed-platform model."""

import pytest

from repro.hw.clan_model import CLANConfig, CLANModel
from repro.hw.workload import GenerationWorkload, IndividualWork
from repro.inax.synthetic import synthetic_population


def _generation(n=40, steps=50, seed=0):
    pop = synthetic_population(num_individuals=n, seed=seed)
    return GenerationWorkload(
        individuals=[IndividualWork.from_config(c, steps) for c in pop]
    )


class TestConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            CLANConfig(num_workers=0)
        with pytest.raises(ValueError):
            CLANConfig(edge_slowdown=0)


class TestCLANModel:
    def test_more_workers_faster_evaluate(self):
        gen = _generation()
        t1 = CLANModel(CLANConfig(num_workers=1)).generation_times(gen)
        t8 = CLANModel(CLANConfig(num_workers=8)).generation_times(gen)
        assert t8.evaluate < t1.evaluate

    def test_edge_slowdown_scales_compute(self):
        gen = _generation()
        slow = CLANModel(
            CLANConfig(num_workers=1, edge_slowdown=8.0)
        ).generation_times(gen)
        fast = CLANModel(
            CLANConfig(num_workers=1, edge_slowdown=2.0)
        ).generation_times(gen)
        assert slow.evaluate > 3.5 * fast.evaluate

    def test_communication_grows_with_workers(self):
        gen = _generation()
        small = CLANModel(CLANConfig(num_workers=2)).communication_seconds(gen)
        large = CLANModel(CLANConfig(num_workers=32)).communication_seconds(gen)
        assert large > small

    def test_scaling_saturates(self):
        # past some worker count, communication flattens the speedup
        gen = _generation(n=64, steps=20)
        model = CLANModel(
            CLANConfig(num_workers=1, network_latency_seconds=5e-3)
        )
        scaling = model.scaling_efficiency(gen, max_workers=256)
        speedups = [s for _, s in scaling]
        # speedup is sublinear at the tail
        workers_tail, speedup_tail = scaling[-1]
        assert speedup_tail < workers_tail * 0.5

    def test_evolve_runs_on_coordinator_at_edge_rate(self):
        gen = _generation()
        clan = CLANModel(CLANConfig(num_workers=4, edge_slowdown=4.0))
        desktop = clan.host.generation_times(gen)
        times = clan.generation_times(gen)
        assert times.evolve == pytest.approx(4.0 * desktop.evolve)

    def test_energy_counts_all_nodes(self):
        gen = _generation()
        small = CLANModel(CLANConfig(num_workers=2))
        large = CLANModel(CLANConfig(num_workers=16))
        t_small = small.generation_times(gen)
        t_large = large.generation_times(gen)
        # the big cluster is faster but each second costs 17 nodes
        assert large.energy_joules(t_large) > 0
        power_small = small.energy_joules(t_small) / t_small.total
        power_large = large.energy_joules(t_large) / t_large.total
        assert power_large > power_small
