"""Structural-batching genome compiler for the software path.

A software backend that decodes every genome pays a per-genome cost
every generation: ``CreateNet`` pruning + ASAP layering, the
``_NetPlan`` lowering, and the HW-config compilation.  A cache keyed on
:meth:`~repro.neat.genome.Genome.structural_hash`, which includes
weights, would only hit for unchanged elites: the weight-mutated bulk
of every generation would re-decode from scratch even though its
*topology* is identical to its parents'.

This package exploits that: genomes bucket by
:meth:`~repro.neat.genome.Genome.shape_key` (the weights-excluded
topology signature), each shape compiles **once** into a
:class:`CompiledStructure` (the shared execution plan plus parameter
fill recipes), and a generation's members fill once per shape into
stacked weight/bias blocks over that shared plan — so an entire bucket
advances one lock-step env step in a few batched ops instead of
per-genome graph walks, and the cross-generation :class:`CompileCache`
keeps hitting for weight-mutated offspring.

Pieces:

* :class:`CompiledStructure` — one topology signature's compiled plan
  (reuses :class:`~repro.neat.vectorized._NetPlan`) plus the recipes
  that fill any same-shape genome's weights/biases into plan layout;
* :class:`ShapeCost` — a structure's weight-independent cost: the
  sizes a workload records, the INAX buffer words and the memoized
  static per-inference timing, which pricing and recording read once
  per shape, and the lowering of a member from its compact parameters
  (:func:`hw_configs` lowers a generation of them);
* :class:`CompileCache` — cross-generation LRU keyed by shape key,
  warmable from a restored checkpoint population;
* :class:`CompiledPopulationEvaluator` — lock-step inference over a
  mixed-shape generation: each shape's members fill into
  ``(B, rows, fan_in)`` parameter blocks, which the shared
  :class:`~repro.neat.vectorized.PopulationEvaluator` engine lays out
  per shape (bit-identical to ``cpu``).

The ``cpu-compiled`` backend in :mod:`repro.core.backends` wires this
into the evaluation loop.
"""

from repro.compile.cache import CompileCache
from repro.compile.evaluator import CompiledPopulationEvaluator
from repro.compile.structure import CompiledStructure, ShapeCost, hw_configs

__all__ = [
    "CompiledStructure",
    "ShapeCost",
    "hw_configs",
    "CompileCache",
    "CompiledPopulationEvaluator",
]
