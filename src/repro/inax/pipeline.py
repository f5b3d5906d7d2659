"""Generation pipelining for the INAX engine.

Two independent policies close the gap between the naive sequential
loop and "as fast as the hardware allows":

* **wave packing** (``schedule``) — which individuals share a dispatch
  wave.  ``"arrival"`` is the paper's baseline (§IV-C2: rigid chunks of
  ``num_pus`` in population order).  ``"lpt"`` packs by *predicted
  cost* — the episode length the same genome key ran in the previous
  generation, times its per-inference latency — longest first, so long
  episodes share a wave instead of each pinning a mostly-drained wave
  open (§V-B2's idle-PU effect).  Genome keys never evaluated before
  have no prediction and keep arrival order at the tail.  Reproduction
  gives every child, elites included, a fresh key, so in an evolving
  :class:`~repro.core.platform.E3` run no genome has a prediction and
  ``"lpt"`` packs in arrival order; the predictions act only when the
  same keys are evaluated again.
* **prefetch** — double-buffered DMA/decode: wave N+1's configuration
  words stream over the weight channel while wave N computes, so only
  ``max(0, setup − prev_compute)`` of each later wave's set-up is
  exposed on the wall clock.

Because episode seeds are keyed on (run seed, genome key, episode) and
fitness is per-genome, *no* packing or prefetch policy can change a
single fitness bit — the determinism contract the property tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.inax.compiler import HWNetConfig
from repro.inax.pu import _static_step_cycles

__all__ = ["PipelineConfig", "pack_waves", "predict_costs", "SCHEDULES"]

#: recognised wave-packing policies
SCHEDULES = ("arrival", "lpt")


@dataclass(frozen=True)
class PipelineConfig:
    """Pipelining policy knobs (all default to the paper's baseline)."""

    #: wave-packing policy: ``"arrival"`` or ``"lpt"``
    schedule: str = "arrival"
    #: double-buffer DMA/decode: hide wave N+1's set-up behind wave N
    prefetch: bool = False

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            names = ", ".join(repr(s) for s in SCHEDULES)
            raise ValueError(
                f"unknown schedule {self.schedule!r}; use one of {names}"
            )


def pack_waves(
    costs: Sequence[float | None],
    capacity: int,
    schedule: str = "arrival",
) -> list[list[int]]:
    """Partition individuals ``0..n-1`` into dispatch waves.

    ``costs[i]`` is individual ``i``'s predicted evaluation cost in
    cycles, or ``None`` when unknown (never evaluated).  Waves run
    *sequentially* and a wave's wall clock is its slowest member, so the
    LPT objective here is minimizing the sum of per-wave maxima — which
    sorting by descending cost and chunking achieves exactly (any swap
    across waves can only raise a wave maximum).  Unknown-cost
    individuals keep arrival order after the predicted ones.

    Returns waves of at most ``capacity`` indices; concatenated they are
    a permutation of ``range(n)``.
    """
    if capacity < 1:
        raise ValueError("wave capacity must be >= 1")
    if schedule not in SCHEDULES:
        names = ", ".join(repr(s) for s in SCHEDULES)
        raise ValueError(f"unknown schedule {schedule!r}; use one of {names}")
    n = len(costs)
    if schedule == "arrival":
        order = list(range(n))
    else:
        known = [i for i in range(n) if costs[i] is not None]
        unknown = [i for i in range(n) if costs[i] is None]
        known.sort(key=lambda i: (-costs[i], i))  # type: ignore[operator]
        order = known + unknown
    return [order[start : start + capacity] for start in range(0, n, capacity)]


def predict_costs(
    net_configs: Sequence[HWNetConfig],
    keys: Sequence[object],
    last_lengths: Mapping[object, int],
    num_pes_per_pu: int,
    pe_costs,
    pu_costs,
) -> list[float | None]:
    """Predicted per-individual evaluation cost for wave packing.

    ``last_lengths`` maps a genome key to the total episode steps it ran
    the last time it was evaluated; the prediction is that length times
    the individual's closed-form per-inference latency.  Individuals
    without history predict ``None`` (packed in arrival order).  Both
    the device dispatch and the analytic :func:`schedule_generation`
    must see the *same* predictions for the two paths to stay
    cycle-exact.
    """
    costs: list[float | None] = []
    for key, net in zip(keys, net_configs):
        steps = last_lengths.get(key)
        if steps is None:
            costs.append(None)
        else:
            costs.append(
                float(steps)
                * _static_step_cycles(net, num_pes_per_pu, pe_costs, pu_costs)
            )
    return costs
