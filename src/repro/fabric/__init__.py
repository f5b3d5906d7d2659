"""The fault-tolerant distributed INAX fabric.

An N-device simulated INAX farm, built so that recovery is a pure
function of ``(seed, farm topology, FaultPlan)``:

* :mod:`repro.fabric.topology` — the farm shape (devices, islands and
  migration), the island seeding rule, and the deterministic LPT
  wave-to-device assignment;
* :mod:`repro.fabric.supervisor` — per-device heartbeat/eviction/
  probation health supervision;
* :mod:`repro.fabric.backend` — the ``fabric`` evaluation backend
  (registers itself in :data:`repro.core.backends.BACKENDS`).

Island-model NEAT over the farm is :class:`~repro.core.platform.E3`
with a ``FarmTopology`` of K > 1 islands: one generation loop evolves
one population or K, with seeded, skip-and-log ring migration.

See ``docs/fabric.md`` for the topology, the eviction ladder, and the
migration determinism contract.
"""

from repro.fabric.backend import FabricINAXBackend, price_farm
from repro.fabric.supervisor import DeviceState, FabricSupervisor
from repro.fabric.topology import (
    KEY_STRIDE,
    FarmTopology,
    assign_waves,
    island_seed,
)

__all__ = [
    "FarmTopology",
    "assign_waves",
    "DeviceState",
    "FabricSupervisor",
    "FabricINAXBackend",
    "price_farm",
    "KEY_STRIDE",
    "island_seed",
]
