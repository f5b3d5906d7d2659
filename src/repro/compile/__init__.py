"""Structural-batching genome compiler for the software path.

A software backend that decodes every genome pays a per-genome cost
every generation: ``CreateNet`` pruning + ASAP layering, the engine's
lowering, and the HW-config compilation.  A cache keyed on
:meth:`~repro.neat.genome.Genome.structural_hash`, which includes
weights, would only hit for unchanged elites: the weight-mutated bulk
of every generation would re-decode from scratch even though its
*topology* is identical to its parents'.

This package exploits that: genomes bucket by
:meth:`~repro.neat.genome.Genome.shape_signature` (the weights-excluded
topology signature), each shape compiles **once**, from one topology
solve, into a :class:`CompiledStructure` (recipes, parameter keys and
the engine's row templates), and a generation's members run over those
templates with their own parameter vectors, read once per generation —
so an entire generation advances one lock-step env step in a few
batched ops instead of per-genome graph walks, and the cross-generation
:class:`CompileCache` keeps hitting for weight-mutated offspring.

Pieces:

* :class:`CompiledStructure` — one topology signature's recipes, the
  keys its :meth:`~CompiledStructure.parameters` reads, and its flat
  per-level row templates
  (:class:`~repro.neat.vectorized._ShapePlan`);
* :class:`ShapeCost` — a structure's weight-independent cost: the
  sizes a workload records, the INAX buffer words and the memoized
  static per-inference timing, which pricing and recording read once
  per shape, and the lowering of a member from its compact parameters
  (:func:`hw_configs` lowers a generation of them);
* :class:`CompileCache` — cross-generation LRU keyed by topology
  signature, warmable from a restored checkpoint population;
* :class:`CompiledPopulationEvaluator` — lock-step inference over a
  mixed-shape generation: the shared
  :class:`~repro.neat.vectorized.PopulationEvaluator` engine lays every
  member out from its shape's templates and its parameters with a
  fixed number of NumPy calls per depth (bit-identical to ``cpu``).

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
