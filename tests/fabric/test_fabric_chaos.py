"""Chaos determinism for the fabric backend.

The farm's recovery contract, asserted end-to-end on CartPole:

* **placement transparency** — a clean N-device farm is fitness
  bit-identical to the single-device INAX backend (the per-(genome,
  episode) seeding contract makes device placement invisible), and a
  one-device farm records exactly what ``inax`` records, while only the
  farm emits farm output;
* **fault transparency** — killing a device mid-generation recovers
  through eviction + deterministic re-pack and still finishes fitness
  bit-identical to the clean run;
* **replayability** — the same FaultPlan over the same run yields the
  same structured resilience log, byte for byte.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.backends import INAXBackend
from repro.core.platform import E3
from repro.fabric.backend import FabricINAXBackend
from repro.fabric.topology import FarmTopology
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import DeviceFault, FaultPlan
from repro.telemetry import TelemetrySession

from tests.conftest import evolved_genome


def _cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=8)


def _genomes(cfg, n=8, mutations=6, seed=0):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(n)
    ]


INAX_CFG = dict(num_pus=3, num_pes_per_pu=2)


def _fabric(devices=2, plan_text=None, **kwargs):
    return FabricINAXBackend(
        "cartpole",
        _cfg(),
        inax_config=INAXConfig(**INAX_CFG),
        base_seed=1,
        devices=devices,
        fault_plan=(
            FaultPlan.parse(plan_text) if plan_text is not None else None
        ),
        **kwargs,
    )


def _fitness(backend):
    genomes = _genomes(_cfg())
    try:
        backend.evaluate(genomes)
    finally:
        backend.close()
    return [g.fitness for g in genomes]


def _records(env, backend, pipeline):
    """Every record field of three evolved one-device generations."""
    e3 = E3(
        env,
        backend=backend,
        neat_config=NEATConfig(population_size=60),
        seed=7,
        pipeline=pipeline,
        topology=FarmTopology(devices=1),
    )
    result = e3.run(max_generations=3, fitness_threshold=float("inf"))
    return [
        (
            record.episode_lengths,
            record.configs,
            record.predicted_costs,
            dataclasses.asdict(record.cycle_report),
        )
        for record in result.records
    ]


#: the reporter columns only a farm adds
FARM_COLUMNS = {
    "devices_up", "device_evictions", "device_readmissions", "repacked_waves"
}


def _farm_surface(backend):
    """Which farm outputs a traced one-device run emits, under a plan
    whose PU stalls fire without aborting a wave."""
    session = TelemetrySession()
    e3 = E3(
        "cartpole",
        backend=backend,
        neat_config=NEATConfig(population_size=20),
        seed=3,
        telemetry=session,
        fault_plan=FaultPlan.parse("seed=7,inax.pu_stall@0.2:50"),
        fallback="cpu-fast",
        topology=FarmTopology(devices=1),
    )
    e3.run(max_generations=2)
    spans = session.tracer.spans
    names = [s.name for s in spans] + list(session.metrics.snapshot())
    sites = [s.attrs["site"] for s in spans if "site" in s.attrs]
    tracks = {s.track for s in spans}
    assert sites, "the plan fired no fault"
    return {
        "fabric names": any(name.startswith("fabric.") for name in names),
        "dev= sites": any("dev=" in site for site in sites),
        "dev tracks": any(track.startswith("dev") for track in tracks),
        "pu tracks": any(track.startswith("pu") for track in tracks),
        "columns": set(e3.backend.reporter_columns()),
    }


class TestPlacementTransparency:
    def test_clean_farm_matches_single_device_bitwise(self):
        single = _fitness(
            INAXBackend(
                "cartpole",
                _cfg(),
                inax_config=INAXConfig(**INAX_CFG),
                base_seed=1,
            )
        )
        for devices in (1, 2, 3):
            assert _fitness(_fabric(devices=devices)) == single
        # a one-device farm dispatches exactly like the single device
        for env in ("cartpole", "lunar_lander"):
            for pipeline in (
                PipelineConfig(),
                PipelineConfig(schedule="lpt", prefetch=True),
            ):
                assert _records(env, "fabric", pipeline) == _records(
                    env, "inax", pipeline
                )

    def test_only_the_fabric_emits_farm_output(self):
        # inax is a farm of one with no site or track prefix (sites feed
        # the fault hashes) and no fabric spans, gauges or columns
        inax = _farm_surface("inax")
        assert inax == {
            "fabric names": False,
            "dev= sites": False,
            "dev tracks": False,
            "pu tracks": True,
            "columns": {
                "quarantined", "oversize", "pack_eff", "fallback_waves"
            },
        }
        fabric = _farm_surface("fabric")
        assert fabric["fabric names"] and fabric["dev= sites"]
        assert fabric["dev tracks"] and not fabric["pu tracks"]
        assert fabric["columns"] == inax["columns"] | FARM_COLUMNS

    def test_farm_walls_cover_every_device(self):
        backend = _fabric(devices=2)
        try:
            backend.evaluate(_genomes(_cfg()))
        finally:
            backend.close()
        walls = backend.last_device_walls
        assert set(walls) == {0, 1}
        # 8 genomes over num_pus=3 = 3 waves; both devices worked
        assert all(wall > 0 for wall in walls.values())
        assert backend.last_wall_cycles == max(walls.values())


class TestMidGenerationKill:
    def test_device_kill_recovers_through_eviction_and_repack(self):
        clean = _fitness(_fabric(devices=2))
        backend = _fabric(
            devices=2, plan_text="seed=0,fabric.device_drop@1.0"
        )
        chaotic = _fitness(backend)
        assert chaotic == clean
        sup = backend.fabric
        # device 0 walked the ladder and was evicted mid-generation;
        # device 1's eviction was refused (last alive) and it carried
        # the whole re-packed queue
        assert sup.device_evictions == 1
        assert sup.alive() == [1]
        assert sup.repacked_waves > 0
        kinds = [e.kind for e in sup.events]
        assert "fabric.evict" in kinds
        assert "fabric.evict_refused" in kinds
        log_kinds = [e["kind"] for e in backend.resilience_log()]
        assert "fabric.repack" in log_kinds

    def test_heartbeat_delays_move_cycles_not_fitness(self):
        clean_backend = _fabric(devices=2)
        clean = _fitness(clean_backend)
        delayed_backend = _fabric(
            devices=2, plan_text="seed=0,fabric.heartbeat_delay@1.0:500"
        )
        delayed = _fitness(delayed_backend)
        assert delayed == clean
        assert (
            delayed_backend.last_wall_cycles
            > clean_backend.last_wall_cycles
        )
        assert delayed_backend.fabric.device_evictions == 0

    def test_hard_fault_on_last_device_without_fallback_raises(self):
        backend = _fabric(devices=1, plan_text="seed=0,inax.wedge@1.0")
        with pytest.raises(DeviceFault):
            backend.evaluate(_genomes(_cfg()))
        backend.close()

    def test_hard_fault_on_last_device_degrades_with_fallback(self):
        clean = _fitness(_fabric(devices=1))
        backend = _fabric(
            devices=1,
            plan_text="seed=0,inax.wedge@1.0",
            fallback="cpu-fast",
        )
        chaotic = _fitness(backend)
        assert chaotic == clean
        assert backend.fallback_waves > 0
        assert backend.fabric.device_evictions == 0


class TestReplayability:
    def test_same_plan_yields_identical_logs_and_fitness(self):
        plan_text = (
            "seed=4,fabric.device_drop@0.4,fabric.heartbeat_delay@0.5:128"
        )
        logs, fitnesses = [], []
        for _ in range(2):
            backend = _fabric(devices=3, plan_text=plan_text)
            fitnesses.append(_fitness(backend))
            logs.append(backend.resilience_log())
        assert logs[0] == logs[1]
        assert logs[0]  # the chaos actually happened
        assert fitnesses[0] == fitnesses[1]

    def test_chaos_is_fitness_identical_across_probabilities(self):
        clean = _fitness(_fabric(devices=3))
        for probability in (0.2, 0.5, 1.0):
            backend = _fabric(
                devices=3,
                plan_text=f"seed=7,fabric.device_drop@{probability}",
            )
            assert _fitness(backend) == clean


class TestReporterColumns:
    def test_fabric_columns_extend_inax(self):
        backend = _fabric(devices=2)
        try:
            backend.evaluate(_genomes(_cfg()))
            columns = backend.reporter_columns()
        finally:
            backend.close()
        assert {
            "pack_eff",
            "devices_up",
            "device_evictions",
            "device_readmissions",
            "repacked_waves",
        } <= set(columns)
        assert columns["devices_up"] == 2.0
        # farm-wide occupancy, not device 0's
        assert 0.0 < columns["pack_eff"] <= 1.0
