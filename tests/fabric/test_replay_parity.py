"""Replayed device waves against stepped ones, through whole backends.

``inax`` and a 2-device ``fabric`` with no device faults run each
generation's episodes in one lock-step pass and replay every
wave-episode's cycle accounting on its device.  Attaching a disarmed
:class:`DeviceFaultInjector` forces the same backend onto the stepped
per-PU path.  On generated multi-level populations, under ``lpt``
packing with prefetch, the two must agree on every fitness bit, every
episode length and every record's :class:`CycleReport`.  Only a stepped
generation lowers its genomes to HW configurations, once each, and its
waves load them once per episode.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import create_backend
from repro.inax.accelerator import INAXConfig
from repro.inax.compiler import HWNetConfig
from repro.inax.pipeline import PipelineConfig
from repro.inax.pu import ProcessingUnit
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan
from repro.resilience.injectors import DeviceFaultInjector

from tests.conftest import evolved_genome

ENVS = {"cartpole": (4, 2), "lunar_lander": (8, 4)}


def _genomes(env, seed, mutations, n=10):
    inputs, outputs = ENVS[env]
    cfg = NEATConfig(num_inputs=inputs, num_outputs=outputs)
    tracker = InnovationTracker(outputs)
    rng = np.random.default_rng(seed)
    genomes = [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=key)
        for key in range(n)
    ]
    return cfg, genomes


def _run(kind, env, episodes, seed, mutations, stepped):
    """Two generations of one population: the first packs cold, the
    second by LPT from the first's lengths."""
    cfg, genomes = _genomes(env, seed, mutations)
    backend = create_backend(
        kind,
        env,
        cfg,
        episodes_per_genome=episodes,
        base_seed=seed,
        inax_config=INAXConfig(num_pus=4, num_pes_per_pu=cfg.num_outputs),
        pipeline=PipelineConfig(schedule="lpt", prefetch=True),
        devices=2,
    )
    if stepped:
        for device in backend.farm:
            device.fault_injector = DeviceFaultInjector(FaultPlan(seed=0))
    fitness = []
    try:
        for _ in range(2):
            backend.evaluate(genomes)
            fitness.append([float(g.fitness).hex() for g in genomes])
    finally:
        backend.close()
    nodes = sum(
        pe.nodes_computed
        for device in backend.farm
        for pu in device.pus
        for pe in pu.pes
    )
    records = [
        (
            record.episode_lengths,
            record.configs,
            dataclasses.asdict(record.cycle_report),
        )
        for record in backend.records
    ]
    return fitness, records, nodes


@pytest.mark.parametrize("kind", ["inax", "fabric"])
@pytest.mark.parametrize("episodes", [1, 2])
@pytest.mark.parametrize("env", sorted(ENVS))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16 - 1), mutations=st.integers(0, 10))
def test_replayed_backend_equals_stepped(kind, env, episodes, seed, mutations):
    replayed = _run(kind, env, episodes, seed, mutations, stepped=False)
    stepped = _run(kind, env, episodes, seed, mutations, stepped=True)
    assert replayed[0] == stepped[0]  # fitness bits
    assert replayed[1] == stepped[1]  # lengths, configs, cycle reports
    # the replay path really ran: its devices computed no node
    assert replayed[2] == 0 < stepped[2]


@pytest.mark.parametrize("kind", ["inax", "fabric"])
def test_stepped_farm_lowers_the_configs_its_waves_load(kind, monkeypatch):
    """A stepped farm lowers each genome once per generation and loads
    that HW configuration into a PU once per episode; it lowers none
    for the record until the record's configs are read."""
    cfg, genomes = _genomes("lunar_lander", 3, 6)
    backend = create_backend(
        kind,
        "lunar_lander",
        cfg,
        episodes_per_genome=2,
        base_seed=3,
        inax_config=INAXConfig(num_pus=4, num_pes_per_pu=cfg.num_outputs),
        pipeline=PipelineConfig(schedule="lpt", prefetch=True),
        devices=2,
    )
    for device in backend.farm:
        device.fault_injector = DeviceFaultInjector(FaultPlan(seed=0))
    built, loaded = [], []
    original_init, original_load = HWNetConfig.__init__, ProcessingUnit.load

    def counting_init(config, *args, **kwargs):
        built.append(config)
        original_init(config, *args, **kwargs)

    def recording_load(pu, config):
        loaded.append(config)
        return original_load(pu, config)

    monkeypatch.setattr(HWNetConfig, "__init__", counting_init)
    monkeypatch.setattr(ProcessingUnit, "load", recording_load)
    try:
        for _ in range(2):
            backend.evaluate(genomes)
    finally:
        backend.close()
    # two generations of two episodes of every genome; ``built`` keeps
    # every configuration alive, so no id is reused
    assert len(built) == 2 * len(genomes)
    assert Counter(id(c) for c in loaded) == {id(c): 2 for c in built}
