"""``cpu-compiled`` backend contract: bit-identical, cached, observable.

The determinism contract is the same one every backend signs: identical
fitness trajectories to ``cpu`` under identical seeds.  On top of that,
the compiled backend must reuse structures across weight mutations
(the whole point), report compile-cache stats, emit its telemetry
spans, and stay bit-identical for non-vectorizable shapes and sharded
runs.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.compile import CompiledStructure
from repro.core.backends import (
    ALIASES,
    BACKENDS,
    COMPILE_CACHE_SIZE,
    CompiledCPUBackend,
    CPUBackend,
    create_backend,
    default_inax_config,
)
from repro.core.platform import E3, effective_neat_config
from repro.inax.compiler import HWNetConfig, compile_genome
from repro.inax.pipeline import PipelineConfig
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
    finally:
        backend.close()
    return {g.key: g.fitness for g in genomes}


class TestRegistration:
    def test_registered(self):
        assert BACKENDS["cpu-compiled"] is CompiledCPUBackend
        assert CompiledCPUBackend.name == "cpu-compiled"
        # cpu-fast is a name-only alias of the compiled path
        assert "cpu-fast" not in BACKENDS
        assert ALIASES["cpu-fast"] == "cpu-compiled"
        fast = create_backend("cpu-fast", "cartpole", _cfg())
        assert type(fast) is CompiledCPUBackend
        assert fast.name == "cpu-fast"


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


class TestRecords:
    """``cpu-compiled`` prices and records from shape descriptors; its
    records must equal the ``cpu`` oracle's, field for field."""

    PIPELINE = PipelineConfig(schedule="lpt", prefetch=True)
    CONFIG = effective_neat_config(
        "lunar_lander", NEATConfig(population_size=30)
    )

    def _run(self, backend):
        """Three evolved generations, then the next generation evaluated
        twice: reproduction re-keys every genome, so only a repeated
        key gives the LPT predictor a last length to price."""
        e3 = E3(
            "lunar_lander",
            backend=backend,
            neat_config=self.CONFIG,
            seed=4,
            pipeline=self.PIPELINE,
        )
        e3.run(max_generations=3, fitness_threshold=float("inf"))
        for _ in range(2):
            e3.backend.evaluate([g.copy() for g in e3.population.population])
        e3.backend.close()
        return e3.backend.records

    def _compiled(self, cache_size=COMPILE_CACHE_SIZE):
        return CompiledCPUBackend(
            "lunar_lander",
            self.CONFIG,
            base_seed=4,
            inax_config=default_inax_config(self.CONFIG.num_outputs),
            pipeline=self.PIPELINE,
            cache_size=cache_size,
        )

    def test_records_equal_the_oracle(self, monkeypatch):
        oracle = self._run("cpu")
        built = []
        original_init = HWNetConfig.__init__

        def counting_init(config, *args, **kwargs):
            built.append(config)
            original_init(config, *args, **kwargs)

        monkeypatch.setattr(HWNetConfig, "__init__", counting_init)
        compiled = self._run(self._compiled())
        # a cpu-compiled run lowers nothing until its configs are read
        assert built == []
        assert len(compiled) == len(oracle) == 5
        assert None not in compiled[-1].predicted_costs
        # every generation's configs are read only now, after later
        # generations evolved from its genomes
        for expected, record in zip(oracle, compiled):
            assert dataclasses.asdict(record.cycle_report) == (
                dataclasses.asdict(expected.cycle_report)
            )
            assert record.predicted_costs == expected.predicted_costs
            assert record.episode_lengths == expected.episode_lengths
            assert record.workload == expected.workload
            assert record.configs == expected.configs

    def test_replayed_inax_records_equal_cpu_compiled(self, monkeypatch):
        """A replayable ``inax`` run prices its waves from shape costs
        and records like ``cpu-compiled``: it lowers no genome until
        its records' configs are read, and its records equal
        ``cpu-compiled``'s."""
        compiled = self._run(self._compiled())
        built = []
        original_init = HWNetConfig.__init__

        def counting_init(config, *args, **kwargs):
            built.append(config)
            original_init(config, *args, **kwargs)

        monkeypatch.setattr(HWNetConfig, "__init__", counting_init)
        device = self._run("inax")
        assert built == []
        assert len(device) == len(compiled) == 5
        for expected, record in zip(compiled, device):
            assert dataclasses.asdict(record.cycle_report) == (
                dataclasses.asdict(expected.cycle_report)
            )
            assert record.predicted_costs == expected.predicted_costs
            assert record.episode_lengths == expected.episode_lengths
            assert record.workload == expected.workload
            assert record.configs == expected.configs

    def test_evicted_structure_is_freed_while_records_live(
        self, monkeypatch
    ):
        structures = []
        from_genome = CompiledStructure.from_genome.__func__

        def tracked(cls, genome, config, shape_key=None):
            structure = from_genome(cls, genome, config, shape_key)
            structures.append(weakref.ref(structure))
            return structure

        monkeypatch.setattr(
            CompiledStructure, "from_genome", classmethod(tracked)
        )
        backend = self._compiled(cache_size=2)
        records = self._run(backend)
        gc.collect()
        cached = list(backend._compile_cache._entries.values())
        alive = [ref() for ref in structures if ref() is not None]
        assert len(structures) > len(cached) == 2
        assert len(alive) == 2
        assert all(any(s is c for c in cached) for s in alive)
        # the records still price and lower every generation
        for record in records:
            assert record.workload.population_size == len(record.configs)

    def test_records_keep_no_genome_alive(self):
        """A record keeps its generation's parameters, not its genomes,
        so a run's records do not pin every genome it evaluated."""
        backend = self._compiled()
        evaluated = []
        evaluate = backend.evaluate

        def tracking(genomes):
            evaluated.extend(weakref.ref(genome) for genome in genomes)
            evaluate(genomes)

        backend.evaluate = tracking
        records = self._run(backend)
        gc.collect()
        assert len(evaluated) == 5 * 30
        assert [ref for ref in evaluated if ref() is not None] == []
        # ... and still lower every generation on first read
        for record in records:
            assert len(record.configs) == record.workload.population_size

    def test_read_records_keep_only_what_they_were_built_from(self):
        """Reading a record lowers its configs and workload and keeps
        neither: a run's read records keep a tenth or less of what
        caching the reads would (cartpole, population 1000, 3
        generations, measured with tracemalloc)."""
        tracemalloc.start()
        try:
            e3 = E3(
                "cartpole",
                backend="cpu-compiled",
                neat_config=NEATConfig(population_size=1000),
                seed=1,
                workers=0,
            )
            e3.run(max_generations=3, fitness_threshold=float("inf"))
            records = list(e3.backend.records)
            e3.backend.records.clear()
            gc.collect()
            unread = tracemalloc.get_traced_memory()[0]
            for record in records:
                assert len(record.configs) == 1000
                assert record.workload.population_size == 1000
            gc.collect()
            read = tracemalloc.get_traced_memory()[0]
            lowered = [(record.configs, record.workload) for record in records]
            gc.collect()
            holding = tracemalloc.get_traced_memory()[0]
            del lowered, records
            gc.collect()
            gone = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        kept, reads = read - gone, holding - read
        assert read - unread <= reads / 100
        assert 10 * kept <= kept + reads
