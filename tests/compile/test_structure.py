"""Unit contract of the structural-batching compiler pieces.

Everything here pins the bit-identity chain the ``cpu-compiled``
backend rests on: recipe-lowered HW configs equal ``compile_genome``,
filled parameter blocks equal a fresh decode's plan, and the population
evaluator reproduces each genome's interpreted forward pass exactly.
"""

import numpy as np
import pytest

from repro.compile import (
    CompileCache,
    CompiledPopulationEvaluator,
    CompiledStructure,
)
from repro.inax.compiler import compile_genome
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork
from repro.neat.vectorized import _NetPlan

from tests.conftest import evolved_genome


def _cfg(num_inputs=4, num_outputs=2):
    return NEATConfig(
        num_inputs=num_inputs, num_outputs=num_outputs, population_size=8
    )


def _genomes(cfg, count=6, mutations=8, seed=0):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(count)
    ]


def _perturbed(genome, new_key, delta=0.125):
    """A weight/bias-mutated clone: same shape, different parameters."""
    clone = genome.copy(new_key=new_key)
    for conn in clone.connections.values():
        conn.weight += delta
    for node in clone.nodes.values():
        node.bias -= delta
    return clone


class TestCompiledStructure:
    def test_hw_config_matches_compile_genome(self):
        cfg = _cfg()
        for genome in _genomes(cfg):
            structure = CompiledStructure.from_genome(genome, cfg)
            assert structure.hw_config(genome) == compile_genome(genome, cfg)

    def test_hw_config_for_same_shape_clone(self):
        """One structure lowers *any* same-shape genome correctly."""
        cfg = _cfg()
        for genome in _genomes(cfg):
            structure = CompiledStructure.from_genome(genome, cfg)
            clone = _perturbed(genome, 100 + genome.key)
            assert clone.shape_key() == genome.shape_key()
            assert structure.hw_config(clone) == compile_genome(clone, cfg)

    def test_parameter_blocks_match_fresh_decode(self):
        """Filled blocks equal a from-scratch ``_NetPlan`` bit for bit,
        row by row, also for a genome listed in several slots."""
        cfg = _cfg()
        for genome in _genomes(cfg):
            structure = CompiledStructure.from_genome(genome, cfg)
            clone = _perturbed(genome, 100 + genome.key)
            members = [clone, genome, clone]
            weights, biases = structure.parameter_blocks(members)
            for row, member in enumerate(members):
                fresh = _NetPlan(FeedForwardNetwork.create(member, cfg))
                assert len(weights) == len(biases) == len(fresh.layers)
                for level, layer in enumerate(fresh.layers):
                    assert np.array_equal(weights[level][row], layer.weights)
                    assert np.array_equal(biases[level][row], layer.biases)

    def test_unvectorizable_shape_still_lowers(self):
        cfg = _cfg()
        genome = _genomes(cfg, count=1)[0]
        for node in genome.nodes.values():
            node.aggregation = "mean"  # vectorizer only supports sum
            break
        structure = CompiledStructure.from_genome(genome, cfg)
        assert structure.plan is None
        assert structure.hw_config(genome) == compile_genome(genome, cfg)
        with pytest.raises(ValueError):
            structure.parameter_blocks([genome])
        with pytest.raises(ValueError):
            CompiledPopulationEvaluator([(structure, genome)])


class TestCompileCache:
    def test_shape_reuse_hits(self):
        cfg = _cfg()
        genome = _genomes(cfg, count=1)[0]
        cache = CompileCache(8)
        first = cache.get(genome, cfg)
        clone = _perturbed(genome, 500)
        assert cache.get(clone, cfg) is first
        assert cache.info() == {
            "hits": 1, "misses": 1, "size": 1, "warmed": 0,
        }

    def test_lru_eviction(self):
        cfg = _cfg()
        genomes = _genomes(cfg, count=3, mutations=10, seed=3)
        keys = {g.shape_key() for g in genomes}
        assert len(keys) == 3, "need three distinct shapes for this test"
        cache = CompileCache(2)
        for genome in genomes:
            cache.get(genome, cfg)
        assert len(cache) == 2
        # the oldest shape was evicted: re-getting it misses again
        cache.get(genomes[0], cfg)
        assert cache.info()["misses"] == 4

    def test_warm_counts_separately(self):
        cfg = _cfg()
        genome = _genomes(cfg, count=1)[0]
        cache = CompileCache(8)
        assert cache.warm(genome, cfg) is True
        assert cache.warm(genome, cfg) is False  # already cached
        info = cache.info()
        assert info == {"hits": 0, "misses": 0, "size": 1, "warmed": 1}
        # a later get is a hit, not a miss — warming restored the state
        cache.get(_perturbed(genome, 500), cfg)
        assert cache.info()["hits"] == 1


class TestFusedEvaluation:
    def test_one_bucket_matches_vectorized(self):
        """One shape's batched step == each member's own forward pass."""
        cfg = _cfg()
        genome = _genomes(cfg, count=1)[0]
        members = [genome] + [
            _perturbed(genome, 200 + i, delta=0.05 * (i + 1))
            for i in range(5)
        ]
        structure = CompiledStructure.from_genome(genome, cfg)
        evaluator = CompiledPopulationEvaluator(
            [(structure, member) for member in members]
        )
        assert evaluator.num_buckets == 1
        obs = np.random.default_rng(7).normal(size=(len(members), 4))
        out = evaluator.infer(list(range(len(members))), obs)
        for row, member in enumerate(members):
            reference = FeedForwardNetwork.create(member, cfg)
            assert np.array_equal(out[row], reference.activate(obs[row]))

    def test_population_evaluator_mixed_shapes(self):
        cfg = _cfg()
        genomes = _genomes(cfg)
        cache = CompileCache(32)
        members = [
            (cache.get(g, cfg), g) for g in genomes for _ in range(2)
        ]
        evaluator = CompiledPopulationEvaluator(members)
        assert evaluator.num_buckets == len(
            {g.shape_key() for g in genomes}
        )
        rng = np.random.default_rng(11)
        slots = list(range(len(members)))
        observations = rng.normal(size=(len(members), 4))
        results = evaluator.infer(slots, observations)
        for slot, (_, genome) in enumerate(members):
            reference = FeedForwardNetwork.create(genome, cfg)
            assert np.array_equal(
                results[slot], reference.activate(observations[slot])
            )

    def test_rebuild_on_shrink_keeps_bits(self):
        """Dropping to a small alive set (episode terminations) rebuilds
        the flat tensors from the evaluator's own tables without
        changing any output bit."""
        cfg = _cfg()
        genomes = _genomes(cfg)
        cache = CompileCache(32)
        members = [(cache.get(g, cfg), g) for g in genomes]
        evaluator = CompiledPopulationEvaluator(members)
        rebuilds = evaluator.rebuilds
        rng = np.random.default_rng(13)
        alive = [0, 3]  # well under REBUILD_FRACTION of 6
        observations = rng.normal(size=(len(alive), 4))
        results = evaluator.infer(alive, observations)
        assert evaluator.rebuilds == rebuilds + 1
        for row, slot in enumerate(alive):
            reference = FeedForwardNetwork.create(genomes[slot], cfg)
            assert np.array_equal(
                results[row], reference.activate(observations[row])
            )
