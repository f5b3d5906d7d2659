"""Shape-key contract: the weights-excluded topology signature.

Satellite coverage for the structural-batching compiler:

* (hypothesis) two genomes with equal topology signature but different
  weights land in the **same compile bucket** and still produce
  **independent** outputs — each member's row equals its own network's
  forward pass, not its bucket-mate's;
* a signature-collision sanity sweep across every registered env's
  champion genome: equal shape keys must mean identical decoded
  structure, never two different topologies sharing a bucket.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compile import (
    CompileCache,
    CompiledPopulationEvaluator,
    CompiledStructure,
)
from repro.core.platform import E3
from repro.envs.registry import registered_names
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork

from tests.conftest import evolved_genome


@st.composite
def evolved_setup(draw):
    num_inputs = draw(st.integers(1, 5))
    num_outputs = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    mutations = draw(st.integers(0, 16))
    config = NEATConfig(num_inputs=num_inputs, num_outputs=num_outputs)
    tracker = InnovationTracker(num_outputs)
    rng = np.random.default_rng(seed)
    genome = evolved_genome(config, tracker, rng, mutations=mutations)
    return config, genome


@settings(max_examples=30, deadline=None)
@given(setup=evolved_setup(), delta=st.floats(0.01, 2.0))
def test_weight_mutated_clone_shares_bucket_with_independent_outputs(
    setup, delta
):
    """Equal topology signature + different weights -> one bucket, two
    independent rows."""
    config, genome = setup
    clone = genome.copy(new_key=genome.key + 1)
    for conn in clone.connections.values():
        conn.weight += delta
    for node in clone.nodes.values():
        node.bias -= delta

    # the signature ignores parameters; the weighted hash must not
    assert clone.shape_key() == genome.shape_key()
    assert clone.structural_hash() != genome.structural_hash()

    cache = CompileCache(8)
    first = cache.get(genome, config)
    second = cache.get(clone, config)
    assert second is first, "same shape key must reuse the structure"
    assert cache.info()["hits"] == 1

    if first.plan is None:
        return
    evaluator = CompiledPopulationEvaluator(
        [(first, genome), (second, clone)]
    )
    assert evaluator.num_buckets == 1
    rng = np.random.default_rng(0)
    observations = rng.normal(size=(2, config.num_inputs))
    results = evaluator.infer([0, 1], observations)
    for slot, member in ((0, genome), (1, clone)):
        own = FeedForwardNetwork.create(member, config)
        assert np.array_equal(
            results[slot], own.activate(observations[slot])
        ), "bucket member must produce its own network's outputs"


@settings(max_examples=30, deadline=None)
@given(setup=evolved_setup())
def test_structural_hash_equal_implies_shape_key_equal(setup):
    _, genome = setup
    copy = genome.copy(new_key=genome.key + 1)
    assert copy.structural_hash() == genome.structural_hash()
    assert copy.shape_key() == genome.shape_key()


def test_disabled_connection_weight_is_shape_irrelevant():
    """A disabled connection's weight moves the structural hash but not
    the shape key — the decoder never reads it."""
    config = NEATConfig(num_inputs=3, num_outputs=2)
    tracker = InnovationTracker(config.num_outputs)
    rng = np.random.default_rng(5)
    genome = evolved_genome(config, tracker, rng, mutations=6)
    conn = next(iter(genome.connections.values()))
    conn.enabled = False
    before = (genome.shape_key(), genome.structural_hash())
    conn.weight += 1.5
    assert genome.shape_key() == before[0]
    assert genome.structural_hash() != before[1]


def test_no_signature_collisions_across_registered_env_champions():
    """Champions from a short run on every registered env: equal shape
    keys must correspond to identical decoded structure (same layer
    recipes), and genomes whose decoded structure differs must get
    distinct keys.  The signature is genome-only while the decode also
    reads the config's input/output keys, so the promise — and the
    grouping here — is per task arity (caches are per-backend, hence
    per-config, in production)."""
    by_key: dict[tuple, list[tuple[str, CompiledStructure]]] = {}
    for env_name in registered_names():
        e3 = E3(
            env_name,
            backend="cpu-compiled",
            neat_config=NEATConfig(population_size=6),
            seed=0,
        )
        try:
            result = e3.run(max_generations=2, fitness_threshold=None)
            champions = [result.best_genome] + list(
                e3.population.population
            )
            for genome in champions:
                structure = CompiledStructure.from_genome(
                    genome, e3.neat_config
                )
                group = (
                    e3.neat_config.num_inputs,
                    e3.neat_config.num_outputs,
                    genome.shape_key(),
                )
                by_key.setdefault(group, []).append(
                    (env_name, structure)
                )
                # serialization cannot perturb the signature
                restored = Genome.from_dict(genome.to_dict())
                assert restored.shape_key() == genome.shape_key()
        finally:
            e3.backend.close()

    assert len(by_key) > 1
    for (_, _, key), entries in by_key.items():
        _, reference = entries[0]
        for env_name, structure in entries[1:]:
            assert structure.rows == reference.rows, (
                f"shape-key collision: {key[:12]} maps to different "
                f"structures (env {env_name})"
            )
            assert structure.input_keys == reference.input_keys
            assert structure.output_keys == reference.output_keys
