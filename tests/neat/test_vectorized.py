"""Tests for the vectorized network evaluator.

One network over a batch of observations runs through
:meth:`PopulationEvaluator.from_plans` with one member per observation
row, all sharing the network's plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork
from repro.neat.vectorized import (
    _VECTOR_ACTIVATIONS,
    PopulationEvaluator,
    _NetPlan,
)

from tests.conftest import evolved_genome
from tests.neat.test_network import _genome_from_edges


def _reference(seed=0, mutations=15, activation="tanh"):
    cfg = NEATConfig(
        num_inputs=4,
        num_outputs=3,
        default_activation=activation,
        activation_options=(activation,),
    )
    tracker = InnovationTracker(3)
    rng = np.random.default_rng(seed)
    genome = evolved_genome(cfg, tracker, rng, mutations=mutations)
    return FeedForwardNetwork.create(genome, cfg), rng


def _batch(net, obs):
    """(batch, num_inputs) -> (batch, num_outputs) through one plan."""
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    evaluator = PopulationEvaluator.from_plans([_NetPlan(net)] * len(obs))
    return evaluator.infer(list(range(len(obs))), obs)


def _one(net, x):
    """One observation through the evaluator."""
    return _batch(net, x)[0]


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        activation=st.sampled_from(["tanh", "sigmoid", "relu", "identity"]),
    )
    def test_matches_reference(self, seed, activation):
        net, rng = _reference(seed=seed, activation=activation)
        for _ in range(4):
            x = rng.standard_normal(4)
            assert np.allclose(_one(net, x), net.activate(x), atol=1e-12)

    def test_batch_matches_loop(self):
        net, rng = _reference(seed=3)
        batch = rng.standard_normal((16, 4))
        out = _batch(net, batch)
        assert out.shape == (16, 3)
        for i in range(16):
            assert np.allclose(out[i], net.activate(batch[i]), atol=1e-12)

    def test_skip_connections_handled(self):
        cfg = NEATConfig(num_inputs=1, num_outputs=1)
        edges = [(-1, 2, 2.0), (2, 0, 3.0), (-1, 0, 1.0)]  # direct skip
        genome = _genome_from_edges(cfg, edges)
        net = FeedForwardNetwork.create(genome, cfg)
        x = np.array([1.5])
        assert np.allclose(_one(net, x), net.activate(x))

    def test_bias_only_output(self):
        cfg = NEATConfig(num_inputs=1, num_outputs=2)
        genome = _genome_from_edges(cfg, [(-1, 0, 1.0)], biases={1: 0.5})
        net = FeedForwardNetwork.create(genome, cfg)
        ref = net.activate(np.array([2.0]))
        assert np.allclose(_one(net, np.array([2.0])), ref)


class TestBitwiseParity:
    """The fast path's headline guarantee: not close — *equal*.

    ``cpu-compiled``'s claim of a bit-identical fitness trajectory rests
    on the vectorized forward pass producing the same 64-bit floats as
    the interpreted one, for every supported activation — NaN/±inf
    sensor readings included.
    """

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        activation=st.sampled_from(sorted(_VECTOR_ACTIVATIONS)),
    )
    def test_activate_batch_bit_for_bit(self, seed, activation):
        net, rng = _reference(seed=seed, activation=activation)
        batch = rng.standard_normal((8, 4)) * 3.0
        # sensor faults: a few NaN/±inf readings among the clean rows
        cells = rng.integers(8, size=3), rng.integers(4, size=3)
        batch[cells] = rng.choice([np.nan, np.inf, -np.inf], 3)
        out = _batch(net, batch)
        expected = np.stack([net.activate(batch[i]) for i in range(8)])
        assert out.tobytes() == expected.tobytes()

    def test_mixed_activations_bit_for_bit(self):
        options = tuple(sorted(_VECTOR_ACTIVATIONS))
        cfg = NEATConfig(
            num_inputs=4,
            num_outputs=3,
            default_activation="tanh",
            activation_options=options,
            activation_mutate_rate=0.5,
        )
        tracker = InnovationTracker(3)
        rng = np.random.default_rng(11)
        for trial in range(10):
            genome = evolved_genome(cfg, tracker, rng, mutations=12, key=trial)
            net = FeedForwardNetwork.create(genome, cfg)
            for _ in range(4):
                x = rng.standard_normal(4) * 2.0
                assert _one(net, x).tobytes() == net.activate(x).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_colliding_nans_keep_the_first(self):
        """``inf - inf`` makes the default NaN (negative on x86); a
        sensor NaN after it is positive.  The interpreted sum keeps the
        first NaN, so every vectorized path must too, although a NumPy
        add may return either operand's."""
        cfg = NEATConfig(num_inputs=3, num_outputs=1)
        # ingress runs in source-key order: -3 (inf), -2 (-inf), -1 (nan)
        edges = [(-1, 0, 1.0), (-2, 0, 1.0), (-3, 0, 1.0)]
        net = FeedForwardNetwork.create(_genome_from_edges(cfg, edges), cfg)
        obs = np.array([[np.nan, -np.inf, np.inf]])
        expected = net.activate(obs[0])
        default_nan = np.array([float("inf") + float("-inf")])
        assert expected.tobytes() == default_nan.tobytes()
        assert _batch(net, obs)[0].tobytes() == expected.tobytes()
        plan = _NetPlan(net)
        evaluator = PopulationEvaluator.from_plans([plan, plan])
        outputs = evaluator.infer([0, 1], np.repeat(obs, 2, axis=0))
        for row in outputs:
            assert row.tobytes() == expected.tobytes()

    def test_population_evaluator_bit_for_bit(self):
        nets = [_reference(seed=s, mutations=10)[0] for s in range(12)]
        evaluator = PopulationEvaluator.from_plans(
            [_NetPlan(n) for n in nets]
        )
        rng = np.random.default_rng(0)
        alive = list(range(12))
        while alive:
            obs = rng.standard_normal((len(alive), 4))
            # member 0's NaN sensor reading must stay member 0's
            obs[0][0] = np.nan
            outputs = evaluator.infer(alive, obs)
            assert outputs.shape == (len(alive), 3)
            for row, m in enumerate(alive):
                expected = nets[m].activate(obs[row])
                assert outputs[row].tobytes() == expected.tobytes()
            # shrink the alive set so the evaluator's lazy rebuild and
            # post-rebuild indexing are both exercised
            alive = alive[: len(alive) - 3]
        assert evaluator.rebuilds >= 1

    def test_population_evaluator_revives_left_out_members(self):
        """A member a rebuild left out may come back: the evaluator
        rebuilds for it.  Slots outside the population still raise."""
        nets = [_reference(seed=s, mutations=10)[0] for s in range(12)]
        evaluator = PopulationEvaluator.from_plans(
            [_NetPlan(n) for n in nets]
        )
        rng = np.random.default_rng(1)
        built = evaluator.rebuilds
        for alive in ([0, 1], [0, 1, 7, 11], list(range(12))):
            obs = rng.standard_normal((len(alive), 4))
            outputs = evaluator.infer(alive, obs)
            for row, m in enumerate(alive):
                expected = nets[m].activate(obs[row])
                assert outputs[row].tobytes() == expected.tobytes()
        assert evaluator.rebuilds == built + 3
        with pytest.raises(IndexError):
            evaluator.infer([0, 12], np.zeros((2, 4)))


class TestValidation:
    def test_non_sum_aggregation_rejected(self):
        cfg = NEATConfig(num_inputs=1, num_outputs=1)
        genome = _genome_from_edges(cfg, [(-1, 0, 1.0)])
        genome.nodes[0].aggregation = "max"
        net = FeedForwardNetwork.create(genome, cfg)
        with pytest.raises(ValueError, match="sum"):
            _NetPlan(net)
