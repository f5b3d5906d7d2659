"""Lock-step inference over a mixed-shape generation, set up per shape.

A *bucket* is every member of a generation sharing one shape key.  Its
weights and biases fill once, straight from the shape's recipes, into
``(B, rows, fan_in)`` / ``(B, rows)`` blocks over the shape's single
compiled plan — the software analogue of mapping same-topology
individuals onto identically-configured PUs.
:class:`CompiledPopulationEvaluator` hands those blocks to the proven
:class:`~repro.neat.vectorized.PopulationEvaluator` engine, which lays
each shape out by broadcasting its shared plan over the members — same
flattened tensors, same term-by-term accumulation order, so fitness is
bit-identical to the interpreted ``cpu`` path by construction.
"""

from __future__ import annotations

import numpy as np

from repro.compile.structure import CompiledStructure
from repro.neat.genome import Genome
from repro.neat.vectorized import PopulationEvaluator

__all__ = ["CompiledPopulationEvaluator"]


class CompiledPopulationEvaluator:
    """Lock-step inference over a mixed-shape generation.

    ``members`` is the slot-ordered ``(structure, genome)`` list — one
    entry per (genome, episode) slot, exactly how the backend lays out
    its lock-step envs.  Slots bucket by compiled structure, each
    bucket's parameters fill once into per-shape blocks, and the
    flattened engine then runs all buckets in one pass per tick.
    """

    def __init__(self, members: list[tuple[CompiledStructure, Genome]]):
        if not members:
            raise ValueError(
                "CompiledPopulationEvaluator needs at least one member"
            )
        grouped: dict[int, tuple[CompiledStructure, list[int]]] = {}
        for slot, (structure, _) in enumerate(members):
            bucket = grouped.get(id(structure))
            if bucket is None:
                grouped[id(structure)] = (structure, [slot])
            else:
                bucket[1].append(slot)
        groups = []
        for structure, slots in grouped.values():
            weights, biases = structure.parameter_blocks(
                [members[slot][1] for slot in slots]
            )
            groups.append((structure.plan, slots, weights, biases))
        self.num_buckets = len(groups)
        self._flat = PopulationEvaluator.from_groups(groups)

    @property
    def rebuilds(self) -> int:
        return self._flat.rebuilds

    def infer(self, slots: list[int], obs: np.ndarray) -> np.ndarray:
        """One lock-step tick (an :data:`repro.envs.rollout.InferFn`)."""
        return self._flat.infer(slots, obs)
