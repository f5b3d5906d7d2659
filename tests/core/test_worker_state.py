"""Regression: worker cache accounting must not leak between runs.

``_fastcpu_worker_evaluate`` used to diff the worker backend's
cumulative compile-cache counters against *module-level* reported
dicts that survived pool re-initialization — so the second run in a
process inherited the first run's cumulative counts and shipped
garbage (negative) deltas to its parent.  The state now lives on the
:class:`~repro.core.backends._WorkerState` object rebuilt by every
``_fastcpu_worker_init`` call.

The tests drive the worker protocol *in-process* (init + evaluate are
plain functions; running them here is exactly what a pool worker does
after fork), which makes the cross-run contamination deterministic to
observe without spawning pools.
"""

from repro.core import backends
from repro.core.backends import (
    _fastcpu_worker_evaluate,
    _fastcpu_worker_init,
)
from repro.core.platform import E3, effective_neat_config
from repro.neat.config import NEATConfig
from repro.neat.population import Population

CONFIG = effective_neat_config("cartpole", NEATConfig(population_size=8))


def worker_init() -> None:
    _fastcpu_worker_init(
        env_name="cartpole",
        neat_config=CONFIG,
        episodes_per_genome=1,
        env_kwargs={},
        cache_size=128,
    )


def evaluate_once(genomes) -> dict:
    _, telemetry = _fastcpu_worker_evaluate(
        (genomes, False, "gen=0|shard=0", 0)
    )
    return telemetry


def sample_genomes():
    return list(Population(CONFIG, seed=0).population)


class TestWorkerStateScoping:
    def teardown_method(self):
        backends._WORKER_STATE = None

    def test_deltas_reset_with_reinitialized_pool(self):
        genomes = sample_genomes()
        worker_init()
        first = evaluate_once(genomes)["compile_delta"]
        assert first["misses"] > 0

        # a second run's pool re-runs the initializer in the same
        # process; its first report must be a fresh, self-contained
        # delta — not a diff against the previous run's totals
        worker_init()
        second = evaluate_once(genomes)["compile_delta"]
        assert second == first
        assert second["hits"] >= 0
        assert second["misses"] >= 0

    def test_within_run_deltas_still_accumulate(self):
        genomes = sample_genomes()
        worker_init()
        first = evaluate_once(genomes)
        again = evaluate_once(genomes)
        # same genomes, same worker: second call is pure cache hits,
        # and its delta reflects only the activity since the first
        assert first["compile_delta"]["misses"] > 0
        assert again["compile_delta"]["misses"] == 0
        assert again["compile_delta"]["hits"] == len(genomes)

    def test_worker_state_object_is_rebuilt(self):
        worker_init()
        state_a = backends._WORKER_STATE
        worker_init()
        state_b = backends._WORKER_STATE
        assert state_a is not state_b
        assert state_b.reported_compile == {"hits": 0, "misses": 0}


class TestBackToBackRuns:
    def test_two_e3_runs_have_independent_cache_stats(self):
        """End-to-end satellite check: two E3 instances back-to-back in
        one process report run-local (non-negative, sane) cache stats."""

        def run_once():
            e3 = E3(
                "cartpole",
                backend="cpu-fast",
                neat_config=NEATConfig(population_size=8),
                seed=3,
            )
            result = e3.run(max_generations=2)
            info = e3.backend.compile_cache_info()
            history = [s.best_fitness for s in result.history]
            return info, history

        first_info, first_history = run_once()
        second_info, second_history = run_once()
        assert second_history == first_history
        # both runs saw identical genome streams, so their run-local
        # cache activity is identical — the leak made run 2 diverge
        assert second_info["hits"] == first_info["hits"]
        assert second_info["misses"] == first_info["misses"]
        assert second_info["hits"] >= 0
        assert second_info["misses"] > 0

    def test_sharded_e3_runs_back_to_back(self):
        """Same contract through real worker pools (workers=2): the
        second run's merged shard deltas must match the first's."""

        def run_once():
            e3 = E3(
                "cartpole",
                backend="cpu-fast",
                neat_config=NEATConfig(population_size=8),
                seed=3,
                workers=2,
            )
            result = e3.run(max_generations=2)
            info = e3.backend.compile_cache_info()
            e3.backend.close()
            history = [s.best_fitness for s in result.history]
            return info, history

        first_info, first_history = run_once()
        second_info, second_history = run_once()
        assert second_history == first_history
        assert second_info["hits"] == first_info["hits"]
        assert second_info["misses"] == first_info["misses"]
