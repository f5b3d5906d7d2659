"""Cycle accounting for the INAX simulator.

The paper's HW metrics (§V, §VI-B) all derive from three buckets:

* **set-up** — receiving NN configurations over the weight channel and
  decoding them into the PUs' weight buffers;
* **PE active** — cycles where a PE is actually MAC-ing or activating;
  the ratio of PE-active time to total provisioned PE time is U(PE),
  Eq. (1);
* **evaluate control** — everything else: PE under-utilization inside
  iterations, layer synchronization, input scatter / output gather, and
  pipeline overhead (Fig 9(a)'s third bucket).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CycleReport", "utilization"]


def utilization(active: float, provisioned: float) -> float:
    """U(r) = T_active(r) / T_total(r), Eq. (1); safe at zero."""
    if provisioned <= 0:
        return 0.0
    value = active / provisioned
    # floating accumulation can nudge past 1.0 by an ulp
    return min(max(value, 0.0), 1.0)


@dataclass
class CycleReport:
    """Aggregated cycle counts for a simulated INAX execution."""

    #: cycles spent in the set-up phase (weight channel + decode)
    setup_cycles: float = 0.0
    #: total cycles in the compute phase (wall-clock of the device)
    compute_cycles: float = 0.0
    #: sum over PEs of their active cycles
    pe_active_cycles: float = 0.0
    #: PE-cycles provisioned during compute (num PEs x compute span,
    #: summed over PUs that were running)
    pe_provisioned_cycles: float = 0.0
    #: sum over PUs of cycles where the PU had a live individual
    pu_active_cycles: float = 0.0
    #: PU-cycles provisioned (num PUs x total span of the generation)
    pu_provisioned_cycles: float = 0.0
    #: cycles the DMA channels spent moving inputs/outputs
    io_cycles: float = 0.0
    #: number of synchronized inference steps executed
    steps: int = 0
    #: individual dispatches: each wave-episode adds its width, so an
    #: individual evaluated for E episodes counts E times
    individuals: int = 0
    #: number of dispatch waves executed
    waves: int = 0
    #: set-up cycles hidden behind the previous wave's compute by the
    #: double-buffered DMA/decode prefetch (``setup_cycles`` holds only
    #: the *exposed* remainder, so ``total_cycles`` stays wall-clock)
    prefetch_hidden_cycles: float = 0.0
    #: slot-steps where a PU slot held a live individual (occupancy
    #: numerator: one per live slot per synchronized step)
    live_slot_steps: int = 0
    #: slot-steps provisioned (``num_pus`` per synchronized step)
    slot_steps_provisioned: int = 0

    # ------------------------------------------------------------ totals
    @property
    def total_cycles(self) -> float:
        """Wall-clock cycles of the whole execution (set-up + compute)."""
        return self.setup_cycles + self.compute_cycles

    @property
    def control_cycles(self) -> float:
        """The Fig 9(a) "evaluate control" bucket: provisioned PE time
        that was neither set-up nor active computation."""
        return max(self.pe_provisioned_cycles - self.pe_active_cycles, 0.0)

    # ------------------------------------------------------- utilization
    @property
    def u_pe(self) -> float:
        """PE utilization rate (Eq. 1 over PEs)."""
        return utilization(self.pe_active_cycles, self.pe_provisioned_cycles)

    @property
    def u_pu(self) -> float:
        """PU utilization rate (Eq. 1 over PUs)."""
        return utilization(self.pu_active_cycles, self.pu_provisioned_cycles)

    @property
    def packing_efficiency(self) -> float:
        """Fraction of provisioned PU slot-steps holding a live episode.

        Unlike :attr:`u_pu` (cycle-weighted) this is count-based, so it
        isolates what wave *packing* controls: empty slots in partial
        waves and the §V-B2 drain tail where short episodes idle their
        PU while the wave's longest episode finishes.
        """
        return utilization(self.live_slot_steps, self.slot_steps_provisioned)

    # --------------------------------------------------------- breakdown
    def breakdown(self) -> dict[str, float]:
        """Fractions of set-up / PE active / evaluate control, normalized
        over provisioned PE time plus set-up — the Fig 9(a) bars."""
        total = self.setup_cycles + self.pe_provisioned_cycles
        if total <= 0:
            return {"setup": 0.0, "pe_active": 0.0, "evaluate_control": 0.0}
        return {
            "setup": self.setup_cycles / total,
            "pe_active": self.pe_active_cycles / total,
            "evaluate_control": self.control_cycles / total,
        }

    # ------------------------------------------------------------ merge
    def merge(self, other: "CycleReport") -> None:
        """Accumulate another report into this one (sequential waves)."""
        self.setup_cycles += other.setup_cycles
        self.compute_cycles += other.compute_cycles
        self.pe_active_cycles += other.pe_active_cycles
        self.pe_provisioned_cycles += other.pe_provisioned_cycles
        self.pu_active_cycles += other.pu_active_cycles
        self.pu_provisioned_cycles += other.pu_provisioned_cycles
        self.io_cycles += other.io_cycles
        self.steps += other.steps
        self.individuals += other.individuals
        self.waves += other.waves
        self.prefetch_hidden_cycles += other.prefetch_hidden_cycles
        self.live_slot_steps += other.live_slot_steps
        self.slot_steps_provisioned += other.slot_steps_provisioned
