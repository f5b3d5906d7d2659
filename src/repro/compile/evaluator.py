"""Lock-step inference over a mixed-shape generation, laid out per level.

Every member of a generation runs its shape's compiled row templates
with its own parameter vector — the software analogue of mapping
same-topology individuals onto identically-configured PUs.
:class:`CompiledPopulationEvaluator` hands the generation's distinct
shapes and one parameter array to the proven
:class:`~repro.neat.vectorized.PopulationEvaluator` engine, which lays
every member's rows out depth by depth with a fixed number of NumPy
calls — same flattened tensors, same term-by-term accumulation order,
so fitness is bit-identical to the interpreted ``cpu`` path by
construction.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.compile.structure import CompiledStructure
from repro.neat.genome import Genome
from repro.neat.vectorized import PopulationEvaluator

__all__ = ["CompiledPopulationEvaluator"]


class CompiledPopulationEvaluator:
    """Lock-step inference over a mixed-shape generation.

    ``members`` is the slot-ordered ``(structure, parameters)`` list —
    one entry per (genome, episode) slot, exactly how the backend lays
    out its lock-step envs.  ``parameters`` is the member's genome, or
    its parameter vector already read
    (:meth:`CompiledStructure.parameters`, e.g. a view of the array a
    backend records).  Each distinct structure is one shape and each
    distinct ``parameters`` object is read once, however many slots
    list it; the flattened engine then runs every shape in one pass per
    tick.
    """

    def __init__(
        self, members: list[tuple[CompiledStructure, Genome | np.ndarray]]
    ):
        if not members:
            raise ValueError(
                "CompiledPopulationEvaluator needs at least one member"
            )
        structures = [structure for structure, _ in members]
        shapes = list(dict.fromkeys(structures))
        for structure in shapes:
            if structure.plan is None:
                raise ValueError(
                    f"shape {structure.shape_key[:12]} is not vectorizable"
                )
        shape_index = {structure: k for k, structure in enumerate(shapes)}
        # each distinct parameters object once, in slot order
        ids = [id(parameters) for _, parameters in members]
        distinct = dict(zip(ids, members))
        vectors = [
            structure.parameters(parameters)
            if isinstance(parameters, Genome)
            else parameters
            for structure, parameters in distinct.values()
        ]
        offsets = dict(zip(distinct, accumulate(map(len, vectors), initial=0)))
        self.num_buckets = len(shapes)
        self._flat = PopulationEvaluator(
            [structure.plan for structure in shapes],
            list(map(shape_index.__getitem__, structures)),
            np.concatenate(vectors).astype(np.float64, copy=False),
            list(map(offsets.__getitem__, ids)),
        )

    @property
    def rebuilds(self) -> int:
        return self._flat.rebuilds

    def infer(self, slots: list[int], obs: np.ndarray) -> np.ndarray:
        """One lock-step tick (an :data:`repro.envs.rollout.InferFn`)."""
        return self._flat.infer(slots, obs)
