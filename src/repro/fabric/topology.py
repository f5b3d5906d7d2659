"""Farm topology and deterministic cross-device wave assignment.

The fabric scales the single simulated INAX device into an N-device
farm (ROADMAP item 1; PAPERS.md's distributed-FPGA neuroevolution ran
432 of them).  Two pure functions define how work lands on devices:

* :func:`repro.inax.pipeline.pack_waves` packs individuals into waves
  exactly as on one device — the farm never changes wave composition,
  only wave *placement*;
* :func:`assign_waves` LPT-assigns those waves onto the currently-alive
  devices, at the costs :func:`wave_costs` gives them.

Both are pure functions of their inputs, so re-running
:func:`assign_waves` over the survivor set after an eviction *is* the
deterministic re-pack rule — recovery is a function of
``(seed, farm topology, FaultPlan)``, never of host timing.

The topology's islands are :class:`~repro.core.platform.E3`'s
populations.  With more than one, island ``i`` seeds from
:func:`island_seed` and numbers its genomes from ``i * KEY_STRIDE``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Sequence

__all__ = [
    "FarmTopology",
    "KEY_STRIDE",
    "assign_waves",
    "island_seed",
    "wave_costs",
]

#: genome-key stride between islands: far above any single island's
#: key consumption, so key spaces (and episode seeds) stay disjoint
KEY_STRIDE = 1 << 20


def island_seed(seed: int, island: int) -> int:
    """Derived per-island RNG seed (pure function of the run seed)."""
    payload = f"{seed}|island|{island}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class FarmTopology:
    """Shape of the simulated INAX farm.

    ``devices`` INAX devices evaluate waves in (cycle-domain) parallel.
    ``islands`` sub-populations evolve independently; island ``i`` is
    homed on device ``i % devices``, and that home decides whether the
    island's migration edges are healthy at a barrier.  Migration moves
    ``migration_size`` champions around the island ring every
    ``migration_interval`` generations (0 disables migration).
    """

    devices: int = 1
    islands: int = 1
    migration_interval: int = 0
    migration_size: int = 0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.islands < 1:
            raise ValueError(f"islands must be >= 1, got {self.islands}")
        if self.migration_interval < 0:
            raise ValueError(
                f"migration_interval must be >= 0, got {self.migration_interval}"
            )
        if self.migration_size < 0:
            raise ValueError(
                f"migration_size must be >= 0, got {self.migration_size}"
            )

    def island_device(self, island: int) -> int:
        """The device an island is homed on (migration health rule)."""
        return island % self.devices

    def migrates(self, generation: int) -> bool:
        """Is the end of ``generation`` a migration barrier?"""
        return (
            self.islands > 1
            and self.migration_interval > 0
            and self.migration_size > 0
            and (generation + 1) % self.migration_interval == 0
        )

    def to_dict(self) -> dict:
        return asdict(self)


def wave_costs(
    predicted: Sequence[float | None] | None,
    waves: Sequence[Sequence[int]],
) -> list[float]:
    """Each wave's assignment cost: its heaviest member's prediction.

    A missing prediction prices as one unit, so without predictions
    (arrival schedule, or a cold first LPT generation) every wave costs
    the same and :func:`assign_waves` balances wave *counts* instead of
    piling the whole generation onto one device.  The farm's dispatch
    and its analytic twin both price waves here.
    """
    if predicted is None:
        return [1.0] * len(waves)
    return [max((predicted[i] or 1.0) for i in indices) for indices in waves]


def assign_waves(
    costs: Sequence[float], alive: Sequence[int]
) -> dict[int, list[int]]:
    """LPT-assign wave ordinals onto the alive devices.

    The second scheduling level on top of ``pack_waves``: each wave
    (heaviest predicted cost first, ties by lower ordinal) goes to the
    least-loaded alive device (ties by lower device id).  Each device's
    list comes back in ordinal order, preserving the single-device
    dispatch order within a device.

    Pure function of ``(costs, alive)``: eviction re-packs by calling
    this again over the orphaned ordinals and the survivor set, so a
    replay reproduces every placement decision bit for bit.
    """
    devices = sorted(alive)
    if not devices:
        raise ValueError("assign_waves needs at least one alive device")
    load = {device: 0.0 for device in devices}
    queues: dict[int, list[int]] = {device: [] for device in devices}
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for ordinal in order:
        target = min(devices, key=lambda d: (load[d], d))
        queues[target].append(ordinal)
        load[target] += costs[ordinal]
    for device in devices:
        queues[device].sort()
    return queues
