"""The benchmark's workloads: what one fixed window evaluates.

A window is a *panel* of ``panel`` independent NEAT populations, each
advanced for exactly ``generations`` generations with solve-termination
off.  Sub-population ``k`` of workload seed ``s`` runs under seed
``s * 100 + k``, so the same workload seed always gives the same
inputs.  The panel exists because one population's work per generation
depends on how fast that seed happens to evolve balancers; summing
several independent populations keeps the window's work, and so its
timings and cycle counts, comparable from one seed to the next.

This module is standard library only: the orchestrating process reads
it without importing ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Workload", "sub_seeds"]

#: the workload seed used when ``--seed`` is omitted; the recorded
#: oracle digests in ``oracle_digests.json`` are for this seed
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark input: environment, backend and window size."""

    name: str
    env: str
    backend: str
    population: int
    #: generations advanced per sub-population
    generations: int
    #: independent sub-populations per window
    panel: int
    #: INAX wave-packing policy (``"arrival"`` or ``"lpt"``)
    schedule: str = "arrival"
    #: double-buffered INAX set-up prefetch
    prefetch: bool = False
    why: str = ""

    @property
    def window_generations(self) -> int:
        return self.panel * self.generations

    @property
    def evaluations(self) -> int:
        """Genome evaluations in one window."""
        return self.panel * self.generations * self.population


def sub_seeds(workload: Workload, seed: int) -> list[int]:
    """The NEAT seeds of ``workload``'s panel for workload seed ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [seed * 100 + k for k in range(workload.panel)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lander-compiled",
            env="lunar_lander",
            backend="cpu-compiled",
            population=200,
            generations=3,
            panel=4,
            why=(
                "env stepping is the largest layer: lunar_lander physics "
                "outweighs inference, network prep and evolve together"
            ),
        ),
        Workload(
            name="cartpole-wide",
            env="cartpole",
            backend="cpu-compiled",
            population=1000,
            generations=3,
            panel=3,
            why=(
                "cheapest env step and widest waves, so per-genome work "
                "(evolve, compile prep, driver) outweighs env stepping"
            ),
        ),
        Workload(
            name="cartpole-inax",
            env="cartpole",
            backend="inax",
            population=200,
            generations=3,
            panel=10,
            schedule="lpt",
            prefetch=True,
            why=(
                "cycle-level INAX device simulation dominates; the only "
                "workload with device cycles, LPT wave packing and prefetch"
            ),
        ),
    )
}
