"""Island-model determinism: migration, device loss, key disjointness.

Island runs are :class:`~repro.core.platform.E3` runs whose topology has
more than one island.
"""

import numpy as np
import pytest

from repro.core.backends import create_backend
from repro.core.platform import E3
from repro.fabric.topology import KEY_STRIDE, FarmTopology, island_seed
from repro.inax.accelerator import INAXConfig
from repro.neat.config import NEATConfig
from repro.neat.population import Population
from repro.resilience.faults import FaultPlan
from repro.telemetry import TelemetrySession


def _model(topology, plan_text=None, seed=3, population=12, generations=None):
    return E3(
        "cartpole",
        backend="fabric",
        topology=topology,
        neat_config=NEATConfig(population_size=population),
        inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
        seed=seed,
        fault_plan=(
            FaultPlan.parse(plan_text) if plan_text is not None else None
        ),
    )


def _trajectory(result):
    return [
        (stats.best_fitness, stats.mean_fitness) for stats in result.history
    ]


class TestSeeding:
    def test_island_seeds_are_distinct_pure_functions(self):
        seeds = [island_seed(3, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [island_seed(3, i) for i in range(8)]

    def test_genome_keys_never_collide_across_islands(self):
        model = _model(FarmTopology(devices=2, islands=3))
        keys = [g.key for pop in model.islands for g in pop.population]
        assert len(keys) == len(set(keys))
        for index, pop in enumerate(model.islands):
            for genome in pop.population:
                assert index * KEY_STRIDE <= genome.key < (
                    (index + 1) * KEY_STRIDE
                )

    def test_population_splits_with_remainder_to_first_islands(self):
        model = _model(FarmTopology(devices=2, islands=3), population=13)
        assert [len(p.population) for p in model.islands] == [5, 4, 4]


class TestMigration:
    TOPO = FarmTopology(
        devices=2, islands=2, migration_interval=2, migration_size=1
    )

    def test_same_seed_runs_are_identical(self):
        results = [
            _model(self.TOPO).run(max_generations=4) for _ in range(2)
        ]
        assert _trajectory(results[0]) == _trajectory(results[1])
        assert results[0].best_fitness == results[1].best_fitness

    def test_ring_exchange_fires_at_barriers(self):
        model = _model(self.TOPO)
        result = model.run(max_generations=4)
        # barriers after generations 1 and 3 -> two exchanges of 2 edges
        # (unless the run solved early at the first barrier)
        assert model.migrations in (2, 4)
        assert model.migrations_skipped == 0
        assert result.generations >= 2

    def test_corrupt_edges_skip_and_log(self):
        model = _model(
            self.TOPO, plan_text="seed=0,fabric.migration_corrupt@1.0"
        )
        model.run(max_generations=4)
        assert model.migrations == 0
        assert model.migrations_skipped > 0
        events = [e for e in model.resilience_log()
                  if e["kind"] == "fabric.migration_skip"]
        assert events
        assert all(e["details"]["reason"] == "corrupt" for e in events)

    def test_skipped_migration_equals_no_migration(self):
        """Skips never perturb island RNG streams: a run whose every
        edge is corrupt is trajectory-identical to a migration-free
        run of the same seed."""
        isolated = _model(
            FarmTopology(devices=2, islands=2)
        ).run(max_generations=4)
        corrupted = _model(
            self.TOPO, plan_text="seed=0,fabric.migration_corrupt@1.0"
        ).run(max_generations=4)
        assert _trajectory(corrupted) == _trajectory(isolated)


class TestMidMigrationDeviceLoss:
    def test_dead_home_device_skips_both_ring_edges(self):
        topo = FarmTopology(
            devices=2, islands=2, migration_interval=1, migration_size=1
        )
        model = _model(topo, plan_text="seed=0,fabric.device_drop@1.0")
        result = model.run(max_generations=3)
        # device 0 is evicted (device 1's eviction is refused), so
        # island 0's home is down and every edge touches island 0:
        # the whole ring skips at every barrier, yet the run completes
        assert model.backend.fabric.alive() == [1]
        assert model.migrations == 0
        assert model.migrations_skipped == 2 * result.generations
        skip_reasons = {
            e["details"]["reason"]
            for e in model.resilience_log()
            if e["kind"] == "fabric.migration_skip"
        }
        assert skip_reasons == {"device_down"}
        assert result.best_fitness > 0

    def test_device_loss_replays_byte_identically(self):
        topo = FarmTopology(
            devices=2, islands=2, migration_interval=1, migration_size=1
        )
        logs = []
        for _ in range(2):
            model = _model(
                topo, plan_text="seed=5,fabric.device_drop@0.6"
            )
            model.run(max_generations=3)
            logs.append(model.resilience_log())
        assert logs[0] == logs[1]
        assert logs[0]


class TestResult:
    def test_result_carries_per_island_histories(self):
        model = _model(FarmTopology(devices=2, islands=3))
        result = model.run(max_generations=2)
        island_histories = [island.history for island in model.islands]
        assert len(island_histories) == 3
        assert all(history for history in island_histories)
        assert 0 <= result.best_island < 3
        champion = max(
            (g for pop in model.islands for g in pop.population
             if g.fitness is not None),
            key=lambda g: g.fitness,
        )
        assert result.best_fitness >= champion.fitness

    def test_phases_cover_the_farm_and_match_the_counters(self):
        session = TelemetrySession()
        model = E3(
            "cartpole",
            backend="fabric",
            topology=FarmTopology(devices=2, islands=2),
            neat_config=NEATConfig(population_size=24),
            seed=1,
            telemetry=session,
        )
        result = model.run(max_generations=3)
        assert set(result.phases) == {
            "evaluate", "stagnation", "reproduce", "speciate"
        }
        counters = {
            name[len("phase.") : -len("_seconds")]: state["value"]
            for name, state in session.metrics.snapshot().items()
            if name.startswith("phase.") and name.endswith("_seconds")
        }
        assert result.phases == counters
        assert all(pop.phases is model.phases for pop in model.islands)

    def test_run_end_gauges_include_quarantine_and_oversize(self):
        # NaN rewards quarantine genomes and a 12-word weight buffer
        # turns some away: the island driver publishes the same run-end
        # backend gauges as a single-population E3 run
        session = TelemetrySession()
        model = E3(
            "cartpole",
            backend="fabric",
            topology=FarmTopology(devices=2, islands=2),
            neat_config=NEATConfig(population_size=24),
            inax_config=INAXConfig(
                num_pus=4, num_pes_per_pu=2, weight_buffer_capacity=12
            ),
            seed=3,
            telemetry=session,
            fault_plan=FaultPlan.parse("seed=9,env.reward_nan@0.05"),
            fallback="cpu-fast",
        )
        model.run(max_generations=2)
        backend = model.backend
        assert backend.quarantine_count > 0 and backend.oversize_count > 0
        gauges = session.metrics.snapshot()
        assert (
            gauges["resilience.quarantined_genomes"]["value"]
            == backend.quarantine_count
        )
        assert (
            gauges["inax.oversize_genomes"]["value"] == backend.oversize_count
        )


class TestOneRunLoop:
    def test_islands_need_the_fabric_backend(self):
        with pytest.raises(ValueError, match="need the fabric backend"):
            E3(
                "cartpole",
                backend="inax",
                topology=FarmTopology(islands=2),
                neat_config=NEATConfig(population_size=12),
            )

    def test_adopted_population_is_one_island(self):
        single = _model(FarmTopology())
        with pytest.raises(ValueError, match="single island"):
            E3(
                "cartpole",
                backend="fabric",
                topology=FarmTopology(devices=2, islands=2),
                population=single.population,
            )

    def test_one_island_is_the_single_population_run(self):
        """A one-island run seeds, evaluates and reports exactly as
        ``Population.run`` over the same backend does."""
        e3 = E3(
            "cartpole",
            backend="inax",
            neat_config=NEATConfig(population_size=12),
            seed=3,
        )
        result = e3.run(max_generations=3, fitness_threshold=float("inf"))
        backend = create_backend(
            "inax", "cartpole", e3.neat_config, base_seed=3
        )
        population = Population(e3.neat_config, seed=3)
        population.stat_sources.append(backend.reporter_columns)
        expected = population.run(
            backend.evaluate, max_generations=3, fitness_threshold=float("inf")
        )
        assert result.history == expected.history
        assert (result.best_island, result.best_genome.key) == (
            0, expected.best_genome.key
        )
        with pytest.raises(AttributeError):
            _model(FarmTopology(devices=2, islands=2)).population

    @pytest.mark.parametrize("islands", [1, 2])
    def test_neat_metrics_describe_the_reported_row(self, islands):
        """The ``neat.*`` metrics count the run's generations and hold
        its last reported row: pooled over the islands for K > 1."""
        session = TelemetrySession()
        model = E3(
            "cartpole",
            backend="fabric",
            topology=FarmTopology(
                devices=2,
                islands=islands,
                migration_interval=1,
                migration_size=1,
            ),
            neat_config=NEATConfig(population_size=24),
            seed=3,
            telemetry=session,
        )
        result = model.run(max_generations=2, fitness_threshold=float("inf"))
        last = result.history[-1]
        snapshot = session.metrics.snapshot()
        assert snapshot["neat.generations"]["value"] == 2
        published = {
            field: snapshot[f"neat.{field}"]["value"]
            for field in (
                "best_fitness", "mean_fitness", "num_species", "population_size"
            )
        }
        assert published == {
            "best_fitness": last.best_fitness,
            "mean_fitness": last.mean_fitness,
            "num_species": float(last.num_species),
            "population_size": 24.0,
        }

    def test_pooled_row_covers_every_island(self):
        model = _model(FarmTopology(devices=2, islands=3), population=13)
        rows = []

        class Probe:
            def on_generation(self, stats):
                genomes = [g for pop in model.islands for g in pop.population]
                rows.append((stats, genomes))

        model.reporters.add(Probe())
        result = model.run(max_generations=2)
        assert [stats for stats, _ in rows] == result.history
        for stats, genomes in rows:
            assert stats.population_size == 13
            assert stats.mean_nodes == float(
                np.mean([g.num_nodes(model.neat_config) for g in genomes])
            )
            assert stats.mean_connections == float(
                np.mean([g.num_enabled_connections for g in genomes])
            )
            assert stats.mean_nodes > 0
            assert stats.best_fitness == max(g.fitness for g in genomes)
            assert "migrations" in stats.extras
