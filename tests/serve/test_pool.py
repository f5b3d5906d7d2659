"""BackendPool leasing, reuse, reset, and bit-identity guarantees."""

import pytest

from repro.core.platform import E3, effective_neat_config
from repro.neat.config import NEATConfig
from repro.serve.pool import BackendPool, PoolExhausted

CONFIG = NEATConfig(population_size=8)


def run_fitness_history(backend_or_name, seed: int) -> list[float]:
    result = E3(
        "cartpole", backend=backend_or_name, neat_config=CONFIG, seed=seed
    ).run(max_generations=3)
    return [stats.best_fitness for stats in result.history]


class TestLeasing:
    def test_fresh_then_reused(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-fast", config)
        first_backend = lease.backend
        lease.release()
        again = pool.lease("cartpole", "cpu-fast", config)
        assert again.backend is first_backend
        assert pool.stats()["created"] == 1
        assert pool.stats()["reused"] == 1

    def test_key_mismatch_builds_fresh(self):
        pool = BackendPool(max_leases=4)
        config = effective_neat_config("cartpole", CONFIG)
        a = pool.lease("cartpole", "cpu-fast", config)
        a.release()
        b = pool.lease("cartpole", "cpu", config)  # different backend
        assert b.backend is not a.backend
        other = effective_neat_config(
            "cartpole", NEATConfig(population_size=12)
        )
        c = pool.lease("cartpole", "cpu-fast", other)  # different config
        assert c.backend is not a.backend

    def test_capacity_raises_instead_of_blocking(self):
        pool = BackendPool(max_leases=1)
        config = effective_neat_config("cartpole", CONFIG)
        held = pool.lease("cartpole", "cpu", config)
        with pytest.raises(PoolExhausted):
            pool.lease("cartpole", "cpu", config)
        held.release()
        pool.lease("cartpole", "cpu", config)  # slot is free again

    def test_discard_drops_backend(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-fast", config)
        broken = lease.backend
        lease.release(discard=True)
        fresh = pool.lease("cartpole", "cpu-fast", config)
        assert fresh.backend is not broken
        assert pool.stats()["discarded"] == 1

    def test_release_is_idempotent(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu", config)
        lease.release()
        lease.release()
        assert pool.stats()["active"] == 0
        assert pool.stats()["idle"] == 1


class TestCapacity:
    def test_same_key_burst_reuses_every_backend(self):
        # four same-key jobs released together: the next burst of four
        # reuses all of them instead of closing and rebuilding extras
        pool = BackendPool(max_leases=8)
        config = effective_neat_config("cartpole", CONFIG)
        first = [pool.lease("cartpole", "cpu", config) for _ in range(4)]
        for lease in first:
            lease.release()
        second = [pool.lease("cartpole", "cpu", config) for _ in range(4)]
        stats = pool.stats()
        assert stats["created"] == 4
        assert stats["reused"] == 4
        assert stats["discarded"] == 0
        assert {id(lease.backend) for lease in second} == {
            id(lease.backend) for lease in first
        }

    def test_idle_backends_count_against_max_leases(self):
        pool = BackendPool(max_leases=2)
        configs = [
            effective_neat_config("cartpole", NEATConfig(population_size=n))
            for n in (8, 12, 16)
        ]
        closed = []
        oldest = pool.lease("cartpole", "cpu", configs[0])
        oldest.backend.close = lambda: closed.append("oldest")
        oldest.release()
        pool.lease("cartpole", "cpu", configs[1]).release()
        # a third key needs a build while two backends sit idle: the
        # least recently released one is closed to make room
        third = pool.lease("cartpole", "cpu", configs[2])
        assert closed == ["oldest"]
        stats = pool.stats()
        assert stats["active"] + stats["idle"] == 2
        assert stats["discarded"] == 1
        third.release()
        assert pool.stats()["idle"] == 2
        again = pool.lease("cartpole", "cpu", configs[0])
        assert again.backend is not oldest.backend
        assert pool.stats()["created"] == 4

    def test_exhausted_only_when_every_lease_is_active(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        other = effective_neat_config(
            "cartpole", NEATConfig(population_size=12)
        )
        held = pool.lease("cartpole", "cpu", config)
        pool.lease("cartpole", "cpu", other).release()
        # one active + one idle of another key: the idle one makes room
        pool.lease("cartpole", "cpu", config)
        with pytest.raises(PoolExhausted):
            pool.lease("cartpole", "cpu", other)
        held.release()


class TestResetRunState:
    def test_reused_backend_starts_clean(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-fast", config, base_seed=0)
        run_fitness_history(lease.backend, seed=0)
        assert lease.backend.records  # first run accumulated state
        assert lease.backend.compile_cache_info()["hits"] > 0
        lease.release()
        again = pool.lease("cartpole", "cpu-fast", config, base_seed=1)
        backend = again.backend
        assert backend.records == []
        assert backend._generation == 0
        assert backend.compile_cache_info()["hits"] == 0
        assert backend.compile_cache_info()["misses"] == 0
        assert backend.base_seed == 1
        # structural cache entries deliberately survive the reset
        assert backend.compile_cache_info()["size"] > 0

    def test_reused_backend_is_bit_identical_to_fresh(self):
        # the acceptance contract: a leased backend that already ran a
        # different job produces the same bits a fresh backend would
        fresh = run_fitness_history("cpu-fast", seed=3)
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-fast", config, base_seed=11)
        run_fitness_history(lease.backend, seed=11)  # pollute with job A
        lease.release()
        again = pool.lease("cartpole", "cpu-fast", config, base_seed=3)
        reused = run_fitness_history(again.backend, seed=3)
        assert reused == fresh

    def test_compiled_backend_reset(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        lease = pool.lease("cartpole", "cpu-compiled", config, base_seed=0)
        run_fitness_history(lease.backend, seed=0)
        assert lease.backend.compile_cache_info()["misses"] > 0
        lease.release()
        again = pool.lease("cartpole", "cpu-compiled", config, base_seed=0)
        info = again.backend.compile_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 0
        assert info["size"] > 0  # compiled structures stay warm

    def test_close_closes_idle_backends(self):
        pool = BackendPool(max_leases=2)
        config = effective_neat_config("cartpole", CONFIG)
        pool.lease("cartpole", "cpu", config).release()
        pool.close()
        assert pool.stats()["idle"] == 0
