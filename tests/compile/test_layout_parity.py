"""Generated-input parity of the per-shape lock-step engine.

``CompiledPopulationEvaluator`` lays every member out level by level
from its shape's row templates and its parameters, and re-lays a
shrunk or revived live set by gathering rows.  Every output row must still
equal the interpreted ``FeedForwardNetwork.activate`` bit for bit, for
mixed-shape populations (same-shape members with different weights,
one genome in several slots), live-set walks that shrink below
``REBUILD_FRACTION``, revive left-out slots and shrink again, and
observations holding NaN and ±inf.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compile import CompileCache, CompiledPopulationEvaluator
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork
from repro.neat.vectorized import (
    _VECTOR_ACTIVATIONS,
    PopulationEvaluator,
    _NetPlan,
)

from tests.conftest import evolved_genome

NUM_INPUTS = 4
NUM_OUTPUTS = 3
CONFIG = NEATConfig(
    num_inputs=NUM_INPUTS,
    num_outputs=NUM_OUTPUTS,
    default_activation="tanh",
    activation_options=tuple(sorted(_VECTOR_ACTIVATIONS)),
    activation_mutate_rate=0.4,
)


def _population(seed, copies, episodes):
    """Slot-ordered genomes: ``len(copies)`` shapes, ``copies[s]``
    differently weighted members of shape ``s``, each member in
    ``episodes`` consecutive slots, shapes interleaved."""
    rng = np.random.default_rng(seed)
    tracker = InnovationTracker(NUM_OUTPUTS)
    genomes = []
    for shape, count in enumerate(copies):
        base = evolved_genome(
            CONFIG, tracker, rng, mutations=int(rng.integers(2, 14)),
            key=100 * shape,
        )
        genomes.append(base)
        for copy in range(1, count):
            clone = base.copy(new_key=100 * shape + copy)
            for conn in clone.connections.values():
                conn.weight += float(rng.normal(0.0, 0.5))
            for node in clone.nodes.values():
                node.bias += float(rng.normal(0.0, 0.5))
            genomes.append(clone)
    order = rng.permutation(len(genomes))
    return [genomes[i] for i in order for _ in range(episodes)], rng


def _observations(rng, rows):
    obs = rng.standard_normal((rows, NUM_INPUTS)) * 3.0
    cells = rng.integers(rows, size=3), rng.integers(NUM_INPUTS, size=3)
    obs[cells] = rng.choice([np.nan, np.inf, -np.inf], 3)
    return obs


def _walk(data, count):
    """Live sets: everyone, a shrink below REBUILD_FRACTION, a revival
    of left-out slots, and a second shrink."""
    everyone = list(range(count))
    below = max(1, int(PopulationEvaluator.REBUILD_FRACTION * count) - 1)
    shrunk = sorted(
        data.draw(
            st.lists(
                st.sampled_from(everyone), min_size=1, max_size=below,
                unique=True,
            )
        )
    )
    left_out = [slot for slot in everyone if slot not in shrunk]
    revived = shrunk
    if left_out:
        revived = sorted(
            set(shrunk)
            | set(
                data.draw(
                    st.lists(
                        st.sampled_from(left_out), min_size=1, unique=True
                    )
                )
            )
        )
    again = sorted(
        data.draw(
            st.lists(
                st.sampled_from(revived), min_size=1,
                max_size=max(1, len(revived) // 2), unique=True,
            )
        )
    )
    return [everyone, shrunk, revived, again]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    copies=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    episodes=st.integers(1, 3),
    data=st.data(),
)
def test_outputs_match_interpreted_bits(seed, copies, episodes, data):
    slots, rng = _population(seed, copies, episodes)
    cache = CompileCache(64)
    entries = [cache.get(genome, CONFIG) for genome in slots]
    assert all(entry.plan is not None for entry in entries)
    nets = {id(g): FeedForwardNetwork.create(g, CONFIG) for g in slots}
    evaluators = [
        CompiledPopulationEvaluator(list(zip(entries, slots))),
        PopulationEvaluator.from_plans(
            [_NetPlan(nets[id(genome)]) for genome in slots]
        ),
    ]
    assert evaluators[0].num_buckets == len({id(e) for e in entries})
    for live in _walk(data, len(slots)):
        for _ in range(2):  # a repeated live set re-uses the layout
            obs = _observations(rng, len(live))
            expected = np.stack(
                [nets[id(slots[slot])].activate(row)
                 for slot, row in zip(live, obs)]
            )
            for evaluator in evaluators:
                outputs = evaluator.infer(live, obs)
                assert outputs.shape == (len(live), NUM_OUTPUTS)
                for row in range(len(live)):
                    assert (
                        outputs[row].tobytes() == expected[row].tobytes()
                    ), (live[row], row)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_walk_rebuilds_by_gather():
    """A fixed walk: shrink, revive, shrink again — three rebuilds after
    the initial layout, every output still the interpreted bits."""
    slots, rng = _population(seed=5, copies=[3, 2, 4], episodes=2)
    cache = CompileCache(64)
    entries = [cache.get(genome, CONFIG) for genome in slots]
    assert all(entry.plan is not None for entry in entries)
    evaluator = CompiledPopulationEvaluator(list(zip(entries, slots)))
    assert evaluator.rebuilds == 1
    count = len(slots)
    walk = [
        list(range(count)),
        [1, 4],
        [0, 1, 4, count - 1],
        [4],
    ]
    for live in walk:
        obs = _observations(rng, len(live))
        outputs = evaluator.infer(live, obs)
        for row, slot in enumerate(live):
            net = FeedForwardNetwork.create(slots[slot], CONFIG)
            assert outputs[row].tobytes() == net.activate(obs[row]).tobytes()
    assert evaluator.rebuilds == 4
