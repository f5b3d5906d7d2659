"""Unit and integration tests for the E3 platform."""

import pytest

from repro.core.platform import E3, default_inax_config
from repro.inax.accelerator import INAXConfig
from repro.neat.config import NEATConfig


def _small_neat(pop=30):
    return NEATConfig(population_size=pop, max_generations=10)


def test_default_inax_config_follows_paper():
    cfg = default_inax_config(num_outputs=4)
    assert cfg.num_pus == 50
    assert cfg.num_pes_per_pu == 4  # PE = output nodes


def test_unknown_env_rejected():
    with pytest.raises(KeyError):
        E3("walker3d")


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        E3("cartpole", backend="tpu")


def test_neat_config_sized_for_env():
    platform = E3("cartpole", neat_config=_small_neat())
    assert platform.neat_config.num_inputs == 4
    assert platform.neat_config.num_outputs == 2
    assert platform.neat_config.fitness_threshold == 475.0


def test_run_cartpole_cpu_backend():
    platform = E3("cartpole", backend="cpu", neat_config=_small_neat(), seed=2)
    result = platform.run(max_generations=8, fitness_threshold=100.0)
    assert result.generations <= 8
    assert result.best_fitness > 0
    assert result.records  # workload captured
    assert result.history
    net = result.best_network()
    assert net.activate([0, 0, 0, 0]).shape == (2,)


def test_run_cartpole_inax_backend_solves_same_as_cpu():
    cpu = E3("cartpole", backend="cpu", neat_config=_small_neat(), seed=3)
    inax = E3(
        "cartpole",
        backend="inax",
        neat_config=_small_neat(),
        inax_config=INAXConfig(num_pus=10, num_pes_per_pu=2),
        seed=3,
    )
    r_cpu = cpu.run(max_generations=3)
    r_inax = inax.run(max_generations=3)
    # identical seeds + bit-exact accelerator => identical trajectories
    assert [h.best_fitness for h in r_cpu.history] == [
        h.best_fitness for h in r_inax.history
    ]
    assert r_cpu.best_fitness == r_inax.best_fitness


def test_phases_populated():
    platform = E3("cartpole", neat_config=_small_neat(20), seed=0)
    result = platform.run(max_generations=2)
    assert result.phases["evaluate"] > 0
    assert "speciate" in result.phases
    # the result holds a copy of the population's table
    assert result.phases == platform.population.phases
    result.phases["evaluate"] = 99.0
    assert platform.population.phases["evaluate"] != 99.0


def test_custom_backend_instance():
    from repro.core.backends import CPUBackend

    neat_cfg = NEATConfig(
        num_inputs=4, num_outputs=2, population_size=20, max_generations=5
    )
    backend = CPUBackend("cartpole", neat_cfg, base_seed=0)
    platform = E3("cartpole", backend=backend, neat_config=neat_cfg, seed=0)
    result = platform.run(max_generations=1)
    assert result.backend_name == "cpu"
