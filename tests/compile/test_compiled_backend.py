"""``cpu-compiled`` backend contract: bit-identical, cached, observable.

The determinism contract is the same one every backend signs: identical
fitness trajectories to ``cpu`` under identical seeds.  On top of that,
the compiled backend must reuse structures across weight mutations
(the whole point), report compile-cache stats, emit its telemetry
spans, and stay bit-identical for non-vectorizable shapes and sharded
runs.
"""

import numpy as np
import pytest

from repro.core.backends import (
    BACKENDS,
    CompiledCPUBackend,
    CPUBackend,
    FastCPUBackend,
)
from repro.inax.compiler import compile_genome
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.telemetry.metrics import MetricsRegistry, set_metrics
from repro.telemetry.spans import Tracer, set_tracer

from tests.conftest import evolved_genome


def _cfg(env_name="cartpole"):
    if env_name == "lunar_lander":
        return NEATConfig(num_inputs=8, num_outputs=4, population_size=6)
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=6)


def _genomes(cfg, seed=0, mutations=6):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(cfg.population_size)
    ]


def _evaluate(backend, genomes):
    try:
        backend.evaluate(genomes)
        backend.drain()
    finally:
        backend.close()
    return {g.key: g.fitness for g in genomes}


class TestRegistration:
    def test_registered(self):
        assert BACKENDS["cpu-compiled"] is CompiledCPUBackend
        assert CompiledCPUBackend.name == "cpu-compiled"
        # cpu-fast is a name-only alias of the compiled path
        assert BACKENDS["cpu-fast"] is FastCPUBackend
        assert FastCPUBackend.__bases__ == (CompiledCPUBackend,)
        own = {k for k in vars(FastCPUBackend) if not k.startswith("__")}
        assert own == {"name"}
        assert FastCPUBackend.name == "cpu-fast"


@pytest.mark.parametrize("env_name", ["cartpole", "lunar_lander"])
class TestParity:
    def test_bit_identical_to_cpu(self, env_name):
        cfg = _cfg(env_name)
        baseline = _evaluate(
            CPUBackend(env_name, cfg, base_seed=1, episodes_per_genome=2),
            _genomes(cfg),
        )
        compiled = _evaluate(
            CompiledCPUBackend(
                env_name, cfg, base_seed=1, episodes_per_genome=2
            ),
            _genomes(cfg),
        )
        assert compiled == baseline

    def test_second_generation_reuses_structures(self, env_name):
        """Weight-mutated offspring hit the compile cache and still
        match the reference bits."""
        cfg = _cfg(env_name)
        offspring = []
        for genome in _genomes(cfg):
            clone = genome.copy(new_key=100 + genome.key)
            for conn in clone.connections.values():
                conn.weight += 0.0625
            offspring.append(clone)

        baseline = _evaluate(
            CPUBackend(env_name, cfg, base_seed=1),
            [g.copy() for g in offspring],
        )
        backend = CompiledCPUBackend(env_name, cfg, base_seed=1)
        try:
            backend.evaluate(_genomes(cfg))  # gen 0: builds structures
            misses_after_first = backend.compile_cache_info()["misses"]
            backend.evaluate(offspring)  # gen 1: weight mutations only
            info = backend.compile_cache_info()
        finally:
            backend.close()
        assert {g.key: g.fitness for g in offspring} == baseline
        # every offspring shares a parent's shape: zero new compiles
        assert info["misses"] == misses_after_first
        assert info["hits"] >= len(offspring)

    def test_sharded_matches_inprocess(self, env_name):
        cfg = _cfg(env_name)
        baseline = _evaluate(
            CompiledCPUBackend(env_name, cfg, base_seed=1), _genomes(cfg)
        )
        sharded = _evaluate(
            CompiledCPUBackend(env_name, cfg, base_seed=1, workers=2),
            _genomes(cfg),
        )
        assert sharded == baseline

    def test_records_match_cpu_fast(self, env_name):
        """Workload records (recipe-lowered HW configs, lengths) equal
        the ``compile_genome`` records the ``cpu`` reference writes."""
        cfg = _cfg(env_name)
        cpu = CPUBackend(env_name, cfg, base_seed=1)
        compiled = CompiledCPUBackend(env_name, cfg, base_seed=1)
        genomes = _genomes(cfg)
        try:
            cpu.evaluate(_genomes(cfg))
            compiled.evaluate(genomes)
        finally:
            compiled.close()
        assert cpu.records[0].configs == compiled.records[0].configs
        assert compiled.records[0].configs == [
            compile_genome(genome, cfg) for genome in genomes
        ]
        assert (
            cpu.records[0].episode_lengths
            == compiled.records[0].episode_lengths
        )


class TestFallbacks:
    def test_unvectorizable_genome_uses_reference_path(self):
        cfg = _cfg()
        genomes = _genomes(cfg)
        exotic = _genomes(cfg)
        for battery in (genomes, exotic):
            for node in battery[2].nodes.values():
                node.aggregation = "mean"  # vectorizer only supports sum
                break
        baseline = _evaluate(CPUBackend("cartpole", cfg, base_seed=1), genomes)
        compiled = _evaluate(
            CompiledCPUBackend("cartpole", cfg, base_seed=1), exotic
        )
        assert compiled == baseline


class TestObservability:
    def test_compile_spans_emitted(self):
        cfg = _cfg()
        tracer = Tracer()
        set_tracer(tracer)
        try:
            _evaluate(
                CompiledCPUBackend("cartpole", cfg, base_seed=1),
                _genomes(cfg),
            )
        finally:
            set_tracer(None)
        names = {span.name for span in tracer.spans}
        assert "compile.build" in names
        assert "compile.batch_step" in names
        assert "compile.lookup" in names
        batch = next(
            s for s in tracer.spans if s.name == "compile.batch_step"
        )
        assert batch.attrs["buckets"] >= 1
        assert batch.attrs["slots"] == cfg.population_size

    def test_compile_cache_gauges_published(self):
        cfg = _cfg()
        registry = MetricsRegistry()
        set_metrics(registry)
        try:
            _evaluate(
                CompiledCPUBackend("cartpole", cfg, base_seed=1),
                _genomes(cfg),
            )
        finally:
            set_metrics(None)
        snapshot = registry.snapshot()
        assert "compile.cache.hits" in snapshot
        assert "compile.cache.misses" in snapshot
        assert "compile.cache.size" in snapshot
