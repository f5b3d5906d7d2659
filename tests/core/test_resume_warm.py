"""Resume must not restart with cold structural caches.

``load_checkpoint`` restores the population but no cache state; before
the fix, the first post-resume generation silently re-compiled every
genome, so "resumed" benchmark numbers lied and the compile phase paid
a full-population cold start.  The resume path now warms the
structural caches from the restored population, and this roundtrip
pins the contract:

* fitness stays bit-identical to the continuous run (warming is purely
  a cache effect);
* the first post-resume generation misses **zero** times — its genomes
  are exactly the ones the caches were warmed from;
* the post-resume hit rate is at least the continuous run's over the
  same generations (warm entries land as ``warmed``, never as
  hits/misses, so the rates compare honestly).
"""

from repro.core.backends import CompiledCPUBackend, INAXBackend
from repro.neat.checkpoint import load_checkpoint, save_checkpoint
from repro.neat.config import NEATConfig
from repro.neat.population import Population

SPLIT = 3  # generations before the checkpoint
TAIL = 2  # generations after it


def _cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=8)


def _run(backend, population, generations):
    for _ in range(generations):
        population.advance(backend.evaluate)


def _roundtrip(tmp_path, backend_cls):
    path = str(tmp_path / "run.json")

    # continuous reference: SPLIT + TAIL generations on one backend
    continuous = backend_cls("cartpole", _cfg(), base_seed=1)
    population = Population(_cfg(), seed=7)
    try:
        _run(continuous, population, SPLIT)
        save_checkpoint(population, path)
        before_tail = continuous.compile_cache_info()
        _run(continuous, population, TAIL)
        continuous_tail = continuous.compile_cache_info()
    finally:
        continuous.close()
    continuous_history = [row.best_fitness for row in population.history]
    tail_hits = continuous_tail["hits"] - before_tail["hits"]
    tail_misses = continuous_tail["misses"] - before_tail["misses"]

    # resumed run: fresh backend, caches warmed from the checkpoint
    restored = load_checkpoint(path)
    resumed = backend_cls("cartpole", _cfg(), base_seed=1)
    try:
        warmed = resumed.warm_caches(restored.population)
        assert warmed >= 1
        info = resumed.compile_cache_info()
        assert info["warmed"] == warmed
        # warming is bookkept separately, not as lookup traffic
        assert info["hits"] == 0
        assert info["misses"] == 0

        restored.advance(resumed.evaluate)
        first = resumed.compile_cache_info()
        # the first post-resume generation is exactly the warm set:
        # nothing may rebuild
        assert first["misses"] == 0, (
            "cold cache after resume: first generation re-compiled"
        )
        _run(resumed, restored, TAIL - 1)
        resumed_tail = resumed.compile_cache_info()
    finally:
        resumed.close()

    # checkpoints do not carry history, so the restored run's rows start
    # at the split point
    resumed_history = [row.best_fitness for row in restored.history]
    assert resumed_history == continuous_history[SPLIT:], (
        "resume changed the fitness trajectory"
    )

    # hit-rate parity over the tail: the warm cache can only do better
    # than the continuous run's organically-filled one
    lookups = resumed_tail["hits"] + resumed_tail["misses"]
    continuous_rate = tail_hits / (tail_hits + tail_misses)
    resumed_rate = resumed_tail["hits"] / lookups
    assert resumed_rate >= continuous_rate


class TestResumeWarmStart:
    def test_compile_cache_roundtrip(self, tmp_path):
        _roundtrip(tmp_path, CompiledCPUBackend)

    def test_device_cache_roundtrip(self, tmp_path):
        """The device backend lowers through the same shape-keyed
        cache, so resume warms its cache too."""
        _roundtrip(tmp_path, INAXBackend)

    def test_cold_resume_shows_the_bug(self, tmp_path):
        """Without warming, the first resumed generation re-compiles
        every shape in the population — the regression this suite
        guards against."""
        path = str(tmp_path / "run.json")
        backend = CompiledCPUBackend("cartpole", _cfg(), base_seed=1)
        population = Population(_cfg(), seed=7)
        try:
            _run(backend, population, SPLIT)
            save_checkpoint(population, path)
        finally:
            backend.close()

        restored = load_checkpoint(path)
        evaluated = list(restored.population)
        cold = CompiledCPUBackend("cartpole", _cfg(), base_seed=1)
        try:
            restored.advance(cold.evaluate)
            info = cold.compile_cache_info()
        finally:
            cold.close()
        distinct = len({g.shape_key() for g in evaluated})
        assert info["misses"] == distinct, (
            "cold resume should re-compile every distinct shape"
        )
