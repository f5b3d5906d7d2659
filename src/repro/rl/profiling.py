"""Operation and memory accounting for the algorithm comparison.

Regenerates the quantities behind Table IV ("analysis of overhead in
algorithms": forward ops, backward ops, local memory for RL vs EA vs
NEAT) and the RL rows of Table V (network complexity).  The NEAT rows of
Table V average a run's per-generation ``mean_nodes`` and
``mean_connections`` (:class:`~repro.neat.population.GenerationStats`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.rl.nn import mlp_op_counts
from repro.rl.policies import ActorCriticPolicy

__all__ = [
    "AlgorithmOverhead",
    "rl_overhead",
    "ea_overhead",
    "neat_overhead",
    "mlp_complexity",
]

#: Compact on-device encodings used for the memory estimate (bytes).
#: A connection gene packs (in id, out id, weight, flags+innovation);
#: a node gene packs (id, bias, activation selector).
CONNECTION_GENE_BYTES = 12
NODE_GENE_BYTES = 8
FLOAT_BYTES = 4


@dataclass(frozen=True)
class AlgorithmOverhead:
    """One Table IV column."""

    algorithm: str
    ops_forward: int
    ops_backward: int
    memory_bytes: int

    def as_row(self) -> dict[str, str]:
        """Formatted the way the paper prints Table IV."""
        return {
            "algorithm": self.algorithm,
            "Op. Forward": _fmt_count(self.ops_forward),
            "Op. Backward": _fmt_count(self.ops_backward),
            "Local Memory": _fmt_count(self.memory_bytes) + " (B)",
        }


def _fmt_count(n: float) -> str:
    if n >= 1000:
        return f"{n / 1000:.1f}K"
    return f"{n:.1f}"


def mlp_complexity(obs_dim: int, hidden: tuple[int, ...], act_dim: int):
    """(nodes, connections) of an MLP policy network — Table V RL rows."""
    sizes = [obs_dim, *hidden, act_dim]
    nodes = sum(sizes)
    connections = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return nodes, connections


def rl_overhead(policy: ActorCriticPolicy, buffer_bytes: int = 0) -> AlgorithmOverhead:
    """Per-environment-step overhead of a gradient-based RL baseline.

    Forward: actor + critic inference.  Backward: backprop through both
    (~2x forward, per :func:`repro.rl.nn.mlp_op_counts`).  Memory:
    parameters + Adam moments (2x) + gradient workspace + the rollout
    buffer (the paper's "large replay buffer" point).
    """
    actor_ops = mlp_op_counts(policy.actor.sizes)
    critic_ops = mlp_op_counts(policy.critic.sizes)
    params = policy.num_parameters
    memory = (
        params * FLOAT_BYTES * 4  # params + 2 Adam moments + grads
        + buffer_bytes
    )
    return AlgorithmOverhead(
        algorithm="RL",
        ops_forward=actor_ops["forward"] + critic_ops["forward"],
        ops_backward=actor_ops["backward"] + critic_ops["backward"],
        memory_bytes=memory,
    )


def ea_overhead(
    obs_dim: int, hidden: tuple[int, ...], act_dim: int
) -> AlgorithmOverhead:
    """Per-step overhead of a fixed-topology ES/GA (OpenAI-ES style).

    Same forward cost as the RL policy network, no backprop; memory is
    the parameter vector plus one perturbation vector (the mirrored
    noise trick keeps ES memory at ~2x params, Table IV's "132K (B)"
    column shape).
    """
    sizes = [obs_dim, *hidden, act_dim]
    ops = mlp_op_counts(sizes)
    return AlgorithmOverhead(
        algorithm="EA",
        ops_forward=ops["forward"],
        ops_backward=0,
        memory_bytes=ops["parameters"] * FLOAT_BYTES * 2,
    )


def genome_memory_bytes(genome: Genome) -> int:
    """Compact encoded size of one genome (weight-channel payload)."""
    return (
        len(genome.connections) * CONNECTION_GENE_BYTES
        + len(genome.nodes) * NODE_GENE_BYTES
    )


def neat_overhead(
    genomes: list[Genome], config: NEATConfig
) -> AlgorithmOverhead:
    """Per-step overhead of NEAT, averaged over a population.

    Forward ops: MACs + bias adds of the decoded network.  No backward
    pass.  Memory: the compact genome encoding — the entire "model
    state" NEAT keeps per individual (Table IV's 0.4K (B))."""
    from repro.neat.network import FeedForwardNetwork

    if not genomes:
        raise ValueError("need at least one genome")
    fwd = 0
    mem = 0
    for genome in genomes:
        net = FeedForwardNetwork.create(genome, config)
        fwd += net.num_macs + net.num_evaluated_nodes  # MACs + bias adds
        mem += genome_memory_bytes(genome)
    n = len(genomes)
    return AlgorithmOverhead(
        algorithm="NEAT",
        ops_forward=fwd // n,
        ops_backward=0,
        memory_bytes=mem // n,
    )
