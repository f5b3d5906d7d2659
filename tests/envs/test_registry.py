"""Unit tests for the environment registry."""

import pytest

from repro.envs.registry import ENV_SUITE, make, registered_names, spec


def test_suite_matches_paper_order():
    # footnote 4: Env1 cartpole .. Env6 pendulum
    expected = [
        ("cartpole", "Env1"),
        ("acrobot", "Env2"),
        ("mountain_car", "Env3"),
        ("bipedal_walker", "Env4"),
        ("lunar_lander", "Env5"),
        ("pendulum", "Env6"),
        ("pong", "Env7"),
    ]
    assert [(s.name, s.paper_id) for s in ENV_SUITE] == expected


def test_make_returns_fresh_instances():
    a = make("cartpole", seed=0)
    b = make("cartpole", seed=0)
    assert a is not b


def test_make_unknown_env():
    with pytest.raises(KeyError, match="unknown environment"):
        make("walker3d")


def test_spec_unknown_env():
    with pytest.raises(KeyError, match="unknown environment"):
        spec("doom")


def test_required_fitness_matches_reward_threshold():
    for env_spec in ENV_SUITE:
        env = env_spec.make()
        assert env_spec.required_fitness == env.reward_threshold


def test_registered_names_includes_extras():
    names = registered_names()
    assert "mountain_car_continuous" in names
    assert len(names) == 8


def test_spec_make_seeds():
    env = spec("pendulum").make(seed=5)
    obs_a = env.reset()
    env2 = spec("pendulum").make(seed=5)
    obs_b = env2.reset()
    assert (obs_a == obs_b).all()


#: physics overrides the model-tuning scenario passes, per env
PHYSICS = {
    "cartpole": dict(pole_mass=0.4, pole_half_length=0.8, force_mag=6.0),
    "pendulum": dict(mass=1.4, length=1.2, gravity=9.0),
}


@pytest.mark.parametrize("name", registered_names())
def test_instances_share_read_only_spaces(name):
    a = make(name, seed=0)
    b = make(name, seed=1, **PHYSICS.get(name, {}))
    assert a.observation_space is b.observation_space
    assert a.action_space is b.action_space
    for space in (a.observation_space, a.action_space):
        for bounds in (getattr(space, "low", None), getattr(space, "high", None)):
            if bounds is not None:
                with pytest.raises(ValueError, match="read-only"):
                    bounds[0] = 0.0
