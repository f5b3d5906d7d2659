"""Unit tests for farm topology, the wave-to-device LPT assigner, and
the farm's analytic pricer."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.backend import price_farm
from repro.fabric.topology import FarmTopology, assign_waves
from repro.inax.accelerator import INAXConfig, schedule_generation
from repro.inax.pipeline import PipelineConfig
from repro.inax.synthetic import synthetic_population

#: generated networks of one to three hidden layers
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


class TestFarmTopology:
    def test_defaults_are_single_device(self):
        topo = FarmTopology()
        assert topo.devices == 1
        assert topo.islands == 1
        assert not topo.migrates(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"devices": 0},
            {"islands": 0},
            {"migration_interval": -1},
            {"migration_size": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FarmTopology(**kwargs)

    def test_island_homing_wraps_over_devices(self):
        topo = FarmTopology(devices=2, islands=5)
        assert [topo.island_device(i) for i in range(5)] == [0, 1, 0, 1, 0]

    def test_migration_barriers(self):
        topo = FarmTopology(
            devices=2, islands=2, migration_interval=3, migration_size=1
        )
        fires = [g for g in range(9) if topo.migrates(g)]
        assert fires == [2, 5, 8]

    def test_migration_disabled_without_all_three_knobs(self):
        base = dict(devices=2, migration_interval=2, migration_size=1)
        assert not FarmTopology(islands=1, **base).migrates(1)
        assert not FarmTopology(
            islands=2, devices=2, migration_interval=0, migration_size=1
        ).migrates(1)
        assert not FarmTopology(
            islands=2, devices=2, migration_interval=2, migration_size=0
        ).migrates(1)

    def test_to_dict_round_trips(self):
        topo = FarmTopology(devices=4, islands=4, migration_interval=5,
                            migration_size=2)
        assert FarmTopology(**topo.to_dict()) == topo


class TestAssignWaves:
    def test_heaviest_first_to_least_loaded(self):
        # costs 40, 30, 20, 10 over two devices: LPT gives {40,10} / {30,20}
        queues = assign_waves([40.0, 30.0, 20.0, 10.0], [0, 1])
        assert queues == {0: [0, 3], 1: [1, 2]}

    def test_ties_break_by_ordinal_then_device_id(self):
        queues = assign_waves([1.0, 1.0, 1.0, 1.0], [0, 1])
        assert queues == {0: [0, 2], 1: [1, 3]}

    def test_per_device_lists_stay_in_ordinal_order(self):
        queues = assign_waves([5.0, 1.0, 9.0, 2.0, 7.0], [0, 1, 2])
        for ordinals in queues.values():
            assert ordinals == sorted(ordinals)

    def test_pure_function_of_inputs(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        assert assign_waves(costs, [2, 0, 1]) == assign_waves(costs, [0, 1, 2])

    def test_survivor_subset_is_the_repack_rule(self):
        costs = [4.0, 3.0, 2.0, 1.0]
        degraded = assign_waves(costs, [1])
        assert degraded == {1: [0, 1, 2, 3]}

    def test_no_alive_devices_raises(self):
        with pytest.raises(ValueError):
            assign_waves([1.0], [])


class TestPriceFarm:
    @settings(max_examples=48, deadline=None)
    @given(
        num_pus=st.integers(1, 6),
        num_pes=st.integers(1, 4),
        picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=18),
        data=st.data(),
        schedule=st.sampled_from(["arrival", "lpt"]),
        prefetch=st.booleans(),
    )
    def test_one_device_equals_schedule_generation(
        self, num_pus, num_pes, picks, data, schedule, prefetch
    ):
        """On one healthy device the farm packs and prices a generation
        exactly as the closed-form single-device schedule does."""
        config = INAXConfig(num_pus=num_pus, num_pes_per_pu=num_pes)
        nets = [POOL[i] for i in picks]
        # a narrow range forces length ties; a wide one long horizons
        lengths = data.draw(
            st.lists(
                st.one_of(st.integers(1, 3), st.integers(1, 80)),
                min_size=len(nets),
                max_size=len(nets),
            )
        )
        pipeline = PipelineConfig(schedule=schedule, prefetch=prefetch)
        farm = price_farm(config, nets, lengths, devices=1, pipeline=pipeline)
        single = schedule_generation(config, nets, lengths, pipeline=pipeline)
        assert dataclasses.asdict(farm["per_device"][0]) == (
            dataclasses.asdict(single)
        )
        assert farm["wall_cycles"] == single.total_cycles
