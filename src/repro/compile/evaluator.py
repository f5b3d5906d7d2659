"""Fused bucket evaluation: stacked parameters over shared plans.

A *bucket* is every member of a generation sharing one shape key.  Its
weights and biases stack into ``(B, rows, fan_in)`` / ``(B, rows)``
tensors over the shape's single compiled plan, so one batched matmul
per layer advances the whole bucket — the software analogue of mapping
same-topology individuals onto identically-configured PUs.

For the env-facing lock-step loop, where a generation mixes many
shapes and the alive set shrinks as episodes terminate,
:class:`CompiledPopulationEvaluator` hands per-member parameter *views*
into those stacks to the proven
:class:`~repro.neat.vectorized.PopulationEvaluator` engine — same
flattened tensors, same term-by-term accumulation order, so fitness is
bit-identical to the interpreted ``cpu`` path by construction.
"""

from __future__ import annotations

import numpy as np

from repro.compile.structure import CompiledStructure
from repro.neat.genome import Genome
from repro.neat.vectorized import PopulationEvaluator, _apply_activations

__all__ = ["CompiledBucket", "CompiledPopulationEvaluator"]


class CompiledBucket:
    """One shape's members with stacked parameter tensors."""

    def __init__(self, structure: CompiledStructure, genomes: list[Genome]):
        if structure.plan is None:
            raise ValueError(
                f"shape {structure.shape_key[:12]} is not vectorizable"
            )
        if not genomes:
            raise ValueError("a bucket needs at least one genome")
        self.structure = structure
        self.genomes = list(genomes)
        plan = structure.plan
        size = len(genomes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for base in plan.layers:
            self.weights.append(
                np.zeros((size,) + base.weights.shape)
            )
            self.biases.append(np.empty((size,) + base.biases.shape))
        # parameters fill straight into the stack rows; duplicate
        # members (episode slots of one genome) fill once and copy —
        # the fill recipe walk is the per-member cost here
        levels = range(len(plan.layers))
        filled: dict[int, int] = {}
        for member, genome in enumerate(genomes):
            first = filled.get(id(genome))
            if first is None:
                structure.fill_parameters_into(
                    genome,
                    [
                        (self.weights[level][member],
                         self.biases[level][member])
                        for level in levels
                    ],
                )
                filled[id(genome)] = member
            else:
                for level in levels:
                    self.weights[level][member] = self.weights[level][first]
                    self.biases[level][member] = self.biases[level][first]

    @property
    def size(self) -> int:
        return len(self.genomes)

    def member_plans(self):
        """Per-member plans whose params are views into the stacks."""
        return [
            self.structure.member_plan(
                [
                    (self.weights[level][member], self.biases[level][member])
                    for level in range(len(self.weights))
                ]
            )
            for member in range(self.size)
        ]

    def activate(self, inputs: np.ndarray) -> np.ndarray:
        """One fused step: ``(B, num_inputs)`` -> ``(B, num_outputs)``.

        Every member advances in the same batched ops — the arithmetic
        (term-by-term accumulation in ingress order) mirrors
        :meth:`VectorizedNetwork.activate_batch` exactly, so row ``b``
        equals evaluating ``genomes[b]`` alone.
        """
        plan = self.structure.plan
        x = np.asarray(inputs, dtype=np.float64)
        if x.shape != (self.size, plan.num_inputs):
            raise ValueError(
                f"expected ({self.size}, {plan.num_inputs}) inputs, "
                f"got {x.shape}"
            )
        values = np.zeros((self.size, plan.num_slots))
        values[:, : plan.num_inputs] = x
        for level, base in enumerate(plan.layers):
            gathered = values[:, base.sources]  # (B, rows, fan_in)
            products = gathered * self.weights[level]
            acc = np.zeros(products.shape[:2])
            for term in range(products.shape[2]):
                acc += products[:, :, term]
            pre = acc + self.biases[level]
            values[:, base.slots] = _apply_activations(base, pre)
        out = np.zeros((self.size, plan.num_outputs))
        visible = plan.output_slots >= 0
        out[:, visible] = values[:, plan.output_slots[visible]]
        return out


class CompiledPopulationEvaluator:
    """Lock-step inference over a mixed-shape generation.

    ``members`` is the slot-ordered ``(structure, genome)`` list — one
    entry per (genome, episode) slot, exactly how the backend lays out
    its lock-step envs.  Slots bucket by compiled structure; the
    flattened engine then runs all buckets in one pass per tick.
    """

    def __init__(self, members: list[tuple[CompiledStructure, Genome]]):
        if not members:
            raise ValueError(
                "CompiledPopulationEvaluator needs at least one member"
            )
        grouped: dict[int, tuple[CompiledStructure, list[int]]] = {}
        for slot, (structure, genome) in enumerate(members):
            bucket = grouped.get(id(structure))
            if bucket is None:
                grouped[id(structure)] = (structure, [slot])
            else:
                bucket[1].append(slot)
        self.buckets: list[CompiledBucket] = []
        plans: list = [None] * len(members)
        for structure, slots in grouped.values():
            bucket = CompiledBucket(
                structure, [members[slot][1] for slot in slots]
            )
            self.buckets.append(bucket)
            for plan, slot in zip(bucket.member_plans(), slots):
                plans[slot] = plan
        self._flat = PopulationEvaluator.from_plans(plans)

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def rebuilds(self) -> int:
        return self._flat.rebuilds

    def infer(self, slots: list[int], obs: np.ndarray) -> np.ndarray:
        """One lock-step tick (an :data:`repro.envs.rollout.InferFn`)."""
        return self._flat.infer(slots, obs)
