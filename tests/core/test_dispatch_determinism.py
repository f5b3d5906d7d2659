"""S4: dispatch order can never change a fitness bit.

Episode seeds are keyed on (run seed, genome key, episode) and fitness
is per-genome, so *any* permutation of the population — and any wave
packing the LPT scheduler chooses — must produce bit-identical
per-genome fitness on every backend."""

import numpy as np
import pytest

from repro.core.backends import (
    CompiledCPUBackend,
    CPUBackend,
    INAXBackend,
    create_backend,
)
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.resilience.faults import FaultPlan

from tests.conftest import evolved_genome

ENVS = ["cartpole", "lunar_lander"]
BACKENDS = ["cpu", "cpu-fast", "cpu-compiled", "inax"]


def _cfg(env_name):
    if env_name == "lunar_lander":
        return NEATConfig(num_inputs=8, num_outputs=4, population_size=6)
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=6)


def _genomes(cfg):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(0)
    return [
        evolved_genome(cfg, tracker, rng, mutations=6, key=i)
        for i in range(cfg.population_size)
    ]


def _backend(name, env_name, cfg, pipeline=None):
    kwargs = dict(base_seed=1)
    if name == "cpu":
        return CPUBackend(env_name, cfg, pipeline=pipeline, **kwargs)
    if name == "cpu-fast":
        return create_backend(
            name, env_name, cfg, pipeline=pipeline, **kwargs
        )
    if name == "cpu-compiled":
        return CompiledCPUBackend(env_name, cfg, pipeline=pipeline, **kwargs)
    return INAXBackend(
        env_name,
        cfg,
        inax_config=INAXConfig(num_pus=3, num_pes_per_pu=cfg.num_outputs),
        pipeline=pipeline,
        **kwargs,
    )


def _fitness_by_key(backend, genomes):
    try:
        backend.evaluate(genomes)
    finally:
        backend.close()
    return {g.key: g.fitness for g in genomes}


@pytest.mark.parametrize("env_name", ENVS)
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_permutations_and_lpt_are_bit_identical(env_name, backend_name):
    cfg = _cfg(env_name)
    baseline = _fitness_by_key(
        _backend(backend_name, env_name, cfg), _genomes(cfg)
    )
    assert all(f is not None for f in baseline.values())

    rng = np.random.default_rng(42)
    for trial in range(3):
        genomes = _genomes(cfg)
        order = rng.permutation(len(genomes))
        shuffled = [genomes[i] for i in order]
        pipeline = PipelineConfig(schedule="lpt", prefetch=True)
        backend = _backend(backend_name, env_name, cfg, pipeline=pipeline)
        # seed the length history so the second generation packs by LPT
        permuted = _fitness_by_key(backend, shuffled)
        assert permuted == baseline, (trial, "first generation")

        genomes = _genomes(cfg)
        backend2 = _backend(backend_name, env_name, cfg, pipeline=pipeline)
        try:
            backend2.evaluate(genomes)
            second = _genomes(cfg)
            backend2.evaluate(second)  # now packs on real predictions
        finally:
            backend2.close()
        assert {g.key: g.fitness for g in second} == baseline, (
            trial,
            "second generation (lpt-packed)",
        )


class TestQuarantinedCostPrediction:
    """A quarantined episode's length must not feed next-gen LPT costs.

    ``env.reward_nan`` ends an episode wherever the fault fired, so the
    recorded length says nothing about the genome's real cost.  Before
    the fix, that poisoned length flowed into ``predict_costs`` and the
    wave packer priced the genome off a fault artifact; quarantine now
    drops the key from the length history so the next generation packs
    it in arrival order (prediction ``None``), exactly like a genome
    never seen before.
    """

    def _faulty_backend(self):
        cfg = _cfg("cartpole")
        return cfg, INAXBackend(
            "cartpole",
            cfg,
            inax_config=INAXConfig(
                num_pus=3, num_pes_per_pu=cfg.num_outputs
            ),
            base_seed=1,
            fault_plan=FaultPlan.parse("seed=11,env.reward_nan@0.4"),
            pipeline=PipelineConfig(schedule="lpt"),
        )

    def test_quarantined_keys_predict_none_next_generation(self):
        cfg, backend = self._faulty_backend()
        try:
            first = _genomes(cfg)
            backend.evaluate(first)
            quarantined = backend.quarantine_count
            assert 0 < quarantined < len(first), (
                "fault seed must quarantine some but not all genomes "
                "for this test to discriminate"
            )
            # the poisoned lengths were dropped at quarantine time
            surviving = set(backend._last_lengths)
            assert len(surviving) == len(first) - quarantined

            backend.evaluate(_genomes(cfg))
            predicted = backend.records[1].predicted_costs
            assert predicted is not None
        finally:
            backend.close()

        # same keys next generation: survivors price off history, the
        # quarantined fall back to arrival-order placement
        assert sum(cost is None for cost in predicted) == quarantined
        known = [cost for cost in predicted if cost is not None]
        assert len(known) == len(surviving)
        assert all(cost > 0.0 for cost in known)

    def test_clean_run_predicts_every_key(self):
        cfg = _cfg("cartpole")
        backend = INAXBackend(
            "cartpole",
            cfg,
            inax_config=INAXConfig(
                num_pus=3, num_pes_per_pu=cfg.num_outputs
            ),
            base_seed=1,
            pipeline=PipelineConfig(schedule="lpt"),
        )
        try:
            backend.evaluate(_genomes(cfg))
            backend.evaluate(_genomes(cfg))
            predicted = backend.records[1].predicted_costs
        finally:
            backend.close()
        assert predicted is not None
        assert all(cost is not None for cost in predicted)


class TestLengthHistory:
    """The LPT length history holds the last recorded generation only.

    Reproduction gives every child, elites included, a fresh key, so a
    history that kept older keys would grow by a population per
    generation without ever serving a prediction.
    """

    @pytest.mark.parametrize("name", ["cpu-compiled", "inax"])
    def test_history_holds_the_last_generation_only(self, name):
        cfg = _cfg("cartpole")
        backend = create_backend(
            name,
            "cartpole",
            cfg,
            base_seed=1,
            pipeline=PipelineConfig(schedule="lpt", prefetch=True),
        )
        first = _genomes(cfg)
        second = [genome.copy(new_key=genome.key + 100) for genome in first]
        try:
            backend.evaluate(first)
            backend.evaluate(second)
        finally:
            backend.close()
        assert backend._last_lengths == dict(
            zip(
                [genome.key for genome in second],
                backend.records[1].episode_lengths,
            )
        )
