"""Cross-generation compile cache: topology signature -> compiled structure.

A cache keyed on the *weighted* structural hash would hit only for
unchanged elites.  This cache keys on the weights-excluded
:meth:`~repro.neat.genome.Genome.shape_signature`: weight-mutated
offspring — the bulk of every generation — reuse their parents'
compiled structure, so steady-state generations build almost nothing.
The signature tuple is an exact key (equal tuples are equal
topologies) and costs a fraction of rendering and hashing it; a miss
computes the shape key, the signature's digest, once, for its
structure and its ``compile.build`` span.

``warm()`` exists for checkpoint resume: ``load_checkpoint`` restores
the population but no cache state, and a cold cache silently recompiles
everything on the first post-resume generation.  Warming from the
restored genomes (counted separately — neither a hit nor a miss)
restores steady-state hit rates immediately.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.compile.structure import CompiledStructure
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome, signature_digest
from repro.telemetry.spans import span as _span

__all__ = ["CompileCache"]


class CompileCache:
    """LRU of topology signature -> :class:`CompiledStructure`."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: structures inserted by :meth:`warm` (resume warm-start), kept
        #: out of hits/misses so hit-rate telemetry stays honest
        self.warmed = 0
        self._entries: OrderedDict[tuple, CompiledStructure] = OrderedDict()

    def get(self, genome: Genome, config: NEATConfig) -> CompiledStructure:
        signature = genome.shape_signature()
        entry = self._entries.get(signature)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(signature)
            return entry
        self.misses += 1
        return self._build(signature, genome, config)

    def warm(self, genome: Genome, config: NEATConfig) -> bool:
        """Pre-populate from ``genome`` without touching hit/miss counts.

        Returns True when a structure was actually built (False: its
        shape was already cached).
        """
        signature = genome.shape_signature()
        if signature in self._entries:
            self._entries.move_to_end(signature)
            return False
        self.warmed += 1
        self._build(signature, genome, config, warm=True)
        return True

    def _build(
        self,
        signature: tuple,
        genome: Genome,
        config: NEATConfig,
        warm: bool = False,
    ) -> CompiledStructure:
        key = signature_digest(signature)
        with _span("compile.build", shape=key[:12], warm=warm):
            entry = CompiledStructure.from_genome(genome, config, key)
        self._entries[signature] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def info(self) -> dict[str, int]:
        """Statistics: hits, misses, current size, warmed entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "warmed": self.warmed,
        }

    def __len__(self) -> int:
        return len(self._entries)
