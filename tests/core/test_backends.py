"""Unit and integration tests for the evaluation backends.

The headline property: a NEAT run's fitness values are identical on the
CPU backend and the functional INAX backend, because the decoded
networks and the accelerator agree bit-for-bit and episodes are seeded
per genome.
"""

import numpy as np
import pytest

from repro.core.backends import (
    CompiledCPUBackend,
    CPUBackend,
    INAXBackend,
    create_backend,
)
from repro.inax.accelerator import INAXConfig
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.population import Population

from tests.conftest import evolved_genome


def _genomes(cfg, n=6, mutations=6, seed=0):
    tracker = InnovationTracker(cfg.num_outputs)
    rng = np.random.default_rng(seed)
    return [
        evolved_genome(cfg, tracker, rng, mutations=mutations, key=i)
        for i in range(n)
    ]


@pytest.fixture
def cartpole_cfg():
    return NEATConfig(num_inputs=4, num_outputs=2, population_size=6)


class TestCPUBackend:
    def test_sets_fitness_on_all(self, cartpole_cfg):
        backend = CPUBackend("cartpole", cartpole_cfg, base_seed=1)
        genomes = _genomes(cartpole_cfg)
        backend.evaluate(genomes)
        assert all(g.fitness is not None for g in genomes)

    def test_records_workload(self, cartpole_cfg):
        backend = CPUBackend(
            "cartpole",
            cartpole_cfg,
            base_seed=1,
            inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
        )
        genomes = _genomes(cartpole_cfg)
        backend.evaluate(genomes)
        assert len(backend.records) == 1
        record = backend.records[0]
        assert record.workload.population_size == 6
        assert record.workload.total_env_steps == sum(record.episode_lengths)
        assert record.cycle_report is not None
        assert record.cycle_report.individuals == 6

    def test_no_inax_config_no_report(self, cartpole_cfg):
        backend = CPUBackend("cartpole", cartpole_cfg, inax_config=None)
        genomes = _genomes(cartpole_cfg)
        backend.evaluate(genomes)
        assert backend.records[0].cycle_report is None

    def test_deterministic_across_calls(self, cartpole_cfg):
        a = CPUBackend("cartpole", cartpole_cfg, base_seed=7)
        b = CPUBackend("cartpole", cartpole_cfg, base_seed=7)
        ga, gb = _genomes(cartpole_cfg), _genomes(cartpole_cfg)
        a.evaluate(ga)
        b.evaluate(gb)
        assert [g.fitness for g in ga] == [g.fitness for g in gb]

    def test_multiple_episodes_averaged(self, cartpole_cfg):
        backend = CPUBackend(
            "cartpole", cartpole_cfg, episodes_per_genome=3, base_seed=2
        )
        genomes = _genomes(cartpole_cfg, n=2)
        backend.evaluate(genomes)
        record = backend.records[0]
        # episode lengths accumulate across the 3 episodes
        assert all(
            steps >= 3 for steps in record.episode_lengths
        )


class TestINAXBackend:
    def test_fitness_identical_to_cpu(self, cartpole_cfg):
        """The backend-equivalence integration property."""
        cpu = CPUBackend("cartpole", cartpole_cfg, base_seed=5)
        inax = INAXBackend(
            "cartpole",
            cartpole_cfg,
            inax_config=INAXConfig(num_pus=4, num_pes_per_pu=2),
            base_seed=5,
        )
        genomes_cpu = _genomes(cartpole_cfg, seed=3)
        genomes_inax = _genomes(cartpole_cfg, seed=3)
        cpu.evaluate(genomes_cpu)
        inax.evaluate(genomes_inax)
        for a, b in zip(genomes_cpu, genomes_inax):
            assert a.fitness == b.fitness

    def test_episode_lengths_identical_to_cpu(self, cartpole_cfg):
        cpu = CPUBackend("cartpole", cartpole_cfg, base_seed=5)
        inax = INAXBackend(
            "cartpole",
            cartpole_cfg,
            inax_config=INAXConfig(num_pus=2, num_pes_per_pu=1),
            base_seed=5,
        )
        gc, gi = _genomes(cartpole_cfg, seed=4), _genomes(cartpole_cfg, seed=4)
        cpu.evaluate(gc)
        inax.evaluate(gi)
        assert cpu.records[0].episode_lengths == inax.records[0].episode_lengths

    def test_device_report_attached(self, cartpole_cfg):
        inax = INAXBackend(
            "cartpole",
            cartpole_cfg,
            inax_config=INAXConfig(num_pus=3, num_pes_per_pu=2),
            base_seed=1,
        )
        genomes = _genomes(cartpole_cfg)
        inax.evaluate(genomes)
        report = inax.records[0].cycle_report
        assert report is not None
        assert report.individuals == 6
        assert report.steps == max(inax.records[0].episode_lengths[:3]) + max(
            inax.records[0].episode_lengths[3:]
        )  # two waves of 3, lock-step until the slowest finishes

    def test_wave_count_respects_pu_limit(self, cartpole_cfg):
        inax = INAXBackend(
            "cartpole",
            cartpole_cfg,
            inax_config=INAXConfig(num_pus=2, num_pes_per_pu=1),
            base_seed=1,
        )
        genomes = _genomes(cartpole_cfg, n=5)
        inax.evaluate(genomes)  # 3 waves: 2 + 2 + 1; must not raise
        assert all(g.fitness is not None for g in genomes)


class TestFastCPUBackend:
    """The compiled software path, also reachable as ``cpu-fast``."""

    def test_single_generation_bitwise_identical_to_cpu(self, cartpole_cfg):
        cpu = CPUBackend("cartpole", cartpole_cfg, base_seed=5,
                         episodes_per_genome=3)
        fast = CompiledCPUBackend("cartpole", cartpole_cfg, base_seed=5,
                                  episodes_per_genome=3)
        gc = _genomes(cartpole_cfg, seed=3)
        gf = _genomes(cartpole_cfg, seed=3)
        cpu.evaluate(gc)
        fast.evaluate(gf)
        assert [g.fitness for g in gc] == [g.fitness for g in gf]
        assert cpu.records[0].episode_lengths == fast.records[0].episode_lengths

    def test_five_generation_trajectory_identical_to_cpu(self, cartpole_cfg):
        """The tentpole acceptance property: a seeded 5-generation
        CartPole run produces the exact same fitness trajectory on both
        software backends (same floats, same champions, same history)."""
        def run(backend):
            population = Population(cartpole_cfg, seed=9)
            result = population.run(backend.evaluate, max_generations=5)
            return result

        cpu_result = run(CPUBackend("cartpole", cartpole_cfg, base_seed=9))
        fast = CompiledCPUBackend("cartpole", cartpole_cfg, base_seed=9)
        fast_result = run(fast)
        fast.close()
        assert [s.best_fitness for s in cpu_result.history] == [
            s.best_fitness for s in fast_result.history
        ]
        assert [s.mean_fitness for s in cpu_result.history] == [
            s.mean_fitness for s in fast_result.history
        ]
        assert (
            cpu_result.best_genome.structural_hash()
            == fast_result.best_genome.structural_hash()
        )

    def test_sharded_matches_serial(self, cartpole_cfg):
        serial = CompiledCPUBackend("cartpole", cartpole_cfg, base_seed=2,
                                    episodes_per_genome=2)
        sharded = CompiledCPUBackend("cartpole", cartpole_cfg, base_seed=2,
                                     episodes_per_genome=2, workers=2)
        gs = _genomes(cartpole_cfg, seed=1)
        gp = _genomes(cartpole_cfg, seed=1)
        serial.evaluate(gs)
        sharded.evaluate(gp)
        sharded.close()
        serial.close()
        assert [g.fitness for g in gs] == [g.fitness for g in gp]
        assert (
            serial.records[0].episode_lengths
            == sharded.records[0].episode_lengths
        )

    def test_unvectorizable_genome_falls_back(self, cartpole_cfg):
        genomes_fast = _genomes(cartpole_cfg, n=4)
        genomes_cpu = _genomes(cartpole_cfg, n=4)
        for gs in (genomes_fast, genomes_cpu):
            node = gs[1].nodes[0]
            node.aggregation = "mean"  # vectorizer only supports sum
        cpu = CPUBackend("cartpole", cartpole_cfg, base_seed=3)
        fast = CompiledCPUBackend("cartpole", cartpole_cfg, base_seed=3)
        cpu.evaluate(genomes_cpu)
        fast.evaluate(genomes_fast)
        assert [g.fitness for g in genomes_cpu] == [
            g.fitness for g in genomes_fast
        ]

    def test_negative_workers_rejected(self, cartpole_cfg):
        with pytest.raises(ValueError, match="workers"):
            CompiledCPUBackend("cartpole", cartpole_cfg, workers=-1)

    def test_close_is_idempotent(self, cartpole_cfg):
        backend = CompiledCPUBackend("cartpole", cartpole_cfg)
        backend.close()
        backend.close()

    def test_e3_accepts_cpu_fast(self):
        from repro.core.platform import E3

        platform = E3(
            "cartpole",
            backend="cpu-fast",
            neat_config=NEATConfig(population_size=15),
            seed=2,
        )
        result = platform.run(max_generations=1)
        platform.backend.close()
        assert result.backend_name == "cpu-fast"


class TestSeeding:
    def test_seed_depends_on_genome_key(self, cartpole_cfg):
        backend = CPUBackend("cartpole", cartpole_cfg, base_seed=1)
        a = backend._episode_seed(Genome(key=1), 0)
        b = backend._episode_seed(Genome(key=2), 0)
        assert a != b

    def test_seed_depends_on_episode(self, cartpole_cfg):
        backend = CPUBackend("cartpole", cartpole_cfg, base_seed=1)
        g = Genome(key=1)
        assert backend._episode_seed(g, 0) != backend._episode_seed(g, 1)

    def test_no_collisions_across_key_episode_grid(self, cartpole_cfg):
        """Regression: the old ``key * 31 + episode`` mix collided as
        soon as (key, episode) pairs aliased — e.g. genome 1 episode 31
        vs genome 2 episode 0 — silently evaluating different genomes
        on identical episode streams."""
        backend = CPUBackend("cartpole", cartpole_cfg, base_seed=1)
        seeds = {
            backend._episode_seed(Genome(key=k), e)
            for k in range(200)
            for e in range(50)
        }
        assert len(seeds) == 200 * 50

    def test_deterministic_and_backend_independent(self, cartpole_cfg):
        cpu = CPUBackend("cartpole", cartpole_cfg, base_seed=6)
        fast = CompiledCPUBackend("cartpole", cartpole_cfg, base_seed=6)
        inax = INAXBackend("cartpole", cartpole_cfg, base_seed=6)
        g = Genome(key=17)
        assert (
            cpu._episode_seed(g, 4)
            == fast._episode_seed(g, 4)
            == inax._episode_seed(g, 4)
        )

    def test_seed_depends_on_base_seed(self, cartpole_cfg):
        a = CPUBackend("cartpole", cartpole_cfg, base_seed=1)
        b = CPUBackend("cartpole", cartpole_cfg, base_seed=2)
        g = Genome(key=1)
        assert a._episode_seed(g, 0) != b._episode_seed(g, 0)

    def test_seed_fits_numpy_seeding(self, cartpole_cfg):
        backend = CPUBackend("cartpole", cartpole_cfg, base_seed=1)
        seed = backend._episode_seed(Genome(key=3), 2)
        assert 0 <= seed < 2**63
        np.random.default_rng(seed)  # must be accepted


class TestOversizePolicy:
    def _tiny_buffer_backend(self, cartpole_cfg, policy):
        return INAXBackend(
            "cartpole",
            cartpole_cfg,
            inax_config=INAXConfig(
                num_pus=3, num_pes_per_pu=1, weight_buffer_capacity=4
            ),
            base_seed=1,
            oversize_policy=policy,
        )

    def test_invalid_policy_rejected(self, cartpole_cfg):
        with pytest.raises(ValueError, match="oversize_policy"):
            self._tiny_buffer_backend(cartpole_cfg, "shrink")

    def test_raise_policy(self, cartpole_cfg):
        backend = self._tiny_buffer_backend(cartpole_cfg, "raise")
        genomes = _genomes(cartpole_cfg)
        from repro.inax.pu import BufferOverflowError

        with pytest.raises(BufferOverflowError):
            backend.evaluate(genomes)

    def test_penalize_policy_prunes_oversized(self, cartpole_cfg):
        backend = self._tiny_buffer_backend(cartpole_cfg, "penalize")
        genomes = _genomes(cartpole_cfg)
        backend.evaluate(genomes)
        # everything got a fitness; the oversized ones the penalty
        assert all(g.fitness is not None for g in genomes)
        assert backend.oversize_count > 0
        assert any(g.fitness == backend.oversize_penalty for g in genomes)

    def test_fitting_genomes_still_evaluated(self, cartpole_cfg):
        backend = INAXBackend(
            "cartpole",
            cartpole_cfg,
            inax_config=INAXConfig(
                num_pus=3, num_pes_per_pu=1, weight_buffer_capacity=100
            ),
            base_seed=1,
            oversize_policy="penalize",
        )
        genomes = _genomes(cartpole_cfg)
        backend.evaluate(genomes)
        assert backend.oversize_count == 0
        assert all(g.fitness > backend.oversize_penalty for g in genomes)


class TestGPUBackend:
    def test_functionally_identical_to_cpu(self, cartpole_cfg):
        cpu = CPUBackend("cartpole", cartpole_cfg, base_seed=5)
        gpu = create_backend("gpu", "cartpole", cartpole_cfg, base_seed=5)
        assert type(gpu) is CPUBackend
        gc, gg = _genomes(cartpole_cfg, seed=6), _genomes(cartpole_cfg, seed=6)
        cpu.evaluate(gc)
        gpu.evaluate(gg)
        assert [g.fitness for g in gc] == [g.fitness for g in gg]
        assert gpu.name == "gpu"

    def test_e3_accepts_gpu_backend(self):
        from repro.core.platform import E3

        platform = E3(
            "cartpole",
            backend="gpu",
            neat_config=NEATConfig(population_size=15),
            seed=2,
        )
        result = platform.run(max_generations=1)
        assert result.backend_name == "gpu"
