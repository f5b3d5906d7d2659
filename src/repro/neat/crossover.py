"""NEAT crossover ("Crossover" in Table III).

Connection genes from the two parents are aligned by innovation number.
Matching genes are inherited from a random parent; disjoint and excess
genes come from the fitter parent.  A gene disabled in either parent has
a 75% chance of staying disabled in the child — the classic NEAT rule
that keeps topology exploration from being instantly re-enabled.
"""

from __future__ import annotations

from repro.neat.config import NEATConfig
from repro.neat.draws import Draws
from repro.neat.genome import Genome, creates_cycle

__all__ = ["crossover"]

#: Probability a gene disabled in either parent stays disabled.
DISABLE_INHERIT_PROB = 0.75


def crossover(
    parent_a: Genome,
    parent_b: Genome,
    child_key: int,
    config: NEATConfig,
    rng: Draws,
) -> Genome:
    """Blend two parents' genes into a child genome.

    ``parent_a`` and ``parent_b`` must both have been evaluated (their
    ``fitness`` set); the fitter one donates the disjoint/excess genes.
    """
    if parent_a.fitness is None or parent_b.fitness is None:
        raise ValueError("both parents must have a fitness before crossover")
    if parent_a.fitness < parent_b.fitness:
        parent_a, parent_b = parent_b, parent_a
    # parent_a is now the (weakly) fitter parent
    equal_fitness = parent_a.fitness == parent_b.fitness

    child = Genome(key=child_key)

    a_by_innovation = {c.innovation: c for c in parent_a.connections.values()}
    b_by_innovation = {c.innovation: c for c in parent_b.connections.values()}

    for innovation, gene_a in a_by_innovation.items():
        gene_b = b_by_innovation.get(innovation)
        if gene_b is not None:
            chosen = gene_a if rng.random() < 0.5 else gene_b
            gene = chosen.copy()
            if (not gene_a.enabled or not gene_b.enabled) and (
                rng.random() < DISABLE_INHERIT_PROB
            ):
                gene.enabled = False
            else:
                gene.enabled = True
        else:
            gene = gene_a.copy()
        child.connections[gene.key] = gene

    if equal_fitness:
        # with equal parents, the weaker side's disjoint/excess genes are
        # inherited too (NEAT-paper behaviour), provided they do not
        # conflict with an already-chosen key or close a cycle.
        for innovation, gene_b in b_by_innovation.items():
            if innovation in a_by_innovation or gene_b.key in child.connections:
                continue
            if creates_cycle(child.connections.keys(), gene_b.key):
                continue
            child.connections[gene_b.key] = gene_b.copy()

    # --- nodes: union of what the chosen connections touch, plus outputs
    needed = set(config.output_keys)
    for in_node, out_node in child.connections:
        if in_node >= 0:
            needed.add(in_node)
        needed.add(out_node)
    for key in needed:
        gene_a = parent_a.nodes.get(key)
        gene_b = parent_b.nodes.get(key)
        if gene_a is not None and gene_b is not None:
            child.nodes[key] = (gene_a if rng.random() < 0.5 else gene_b).copy()
        elif gene_a is not None:
            child.nodes[key] = gene_a.copy()
        elif gene_b is not None:
            child.nodes[key] = gene_b.copy()
        else:  # pragma: no cover - defensive; outputs always exist in parents
            raise RuntimeError(f"node {key} missing from both parents")

    return child
