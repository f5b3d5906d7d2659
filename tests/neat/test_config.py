"""Unit tests for NEATConfig validation."""

import pytest

from repro.envs.cartpole import CartPole
from repro.neat.config import NEATConfig


def test_defaults_follow_paper():
    cfg = NEATConfig()
    assert cfg.population_size == 200  # §VI-C
    assert cfg.crossover_rate == 0.5  # §VI-C
    assert cfg.initial_connection_fraction == 1.0


def test_input_output_keys():
    cfg = NEATConfig(num_inputs=3, num_outputs=2)
    assert cfg.input_keys == (-1, -2, -3)
    assert cfg.output_keys == (0, 1)


def test_for_env_sizes_interface():
    cfg = NEATConfig().for_env(CartPole())
    assert cfg.num_inputs == 4
    assert cfg.num_outputs == 2
    assert cfg.fitness_threshold == CartPole.reward_threshold


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_inputs": 0},
        {"num_outputs": 0},
        {"population_size": 1},
        {"initial_connection_fraction": 1.5},
        {"survival_threshold": 0.0},
        {"elitism": -1},
        {"weight_min": 5.0, "weight_max": -5.0},
        {"bias_min": 1.0, "bias_max": 1.0},
        {"weight_min": float("nan")},
        {"bias_max": float("nan")},
        {"weight_mutate_power": -0.5},
        {"weight_init_stdev": -1.0},
        {"bias_mutate_power": float("nan")},
        {"bias_init_stdev": -1.0},
        {"weight_mutate_power": -0.0},
        {"weight_init_stdev": -0.0},
        {"bias_mutate_power": -0.0},
        {"bias_init_stdev": -0.0},
        {"crossover_rate": 1.2},
        {"conn_add_rate": -0.1},
        {"compatibility_threshold": 0.0},
        {"compatibility_threshold": float("nan")},
        {"excess_coefficient": float("nan")},
        {"disjoint_coefficient": float("nan")},
        {"weight_coefficient": float("nan")},
        {"excess_coefficient": -1.0},
        {"disjoint_coefficient": -1.0},
        {"weight_coefficient": -1.0},
        {"default_activation": "nope"},
        {"activation_options": ("tanh", "nope")},
        {"default_aggregation": "median"},
        {"aggregation_options": ("sum", "median")},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        NEATConfig(**kwargs)


def test_all_rates_validated():
    # every *_rate field must live in [0, 1]
    for field_name in (
        "weight_mutate_rate",
        "weight_replace_rate",
        "bias_mutate_rate",
        "bias_replace_rate",
        "node_add_rate",
        "node_delete_rate",
        "conn_delete_rate",
        "enable_mutate_rate",
        "activation_mutate_rate",
        "aggregation_mutate_rate",
    ):
        with pytest.raises(ValueError, match=field_name):
            NEATConfig(**{field_name: 1.01})
