"""CLAN-style distributed-learning platform model (Table VI).

CLAN [24] runs NEAT on a cluster of commodity edge CPUs (Raspberry-Pi
class): the population is sharded across workers, each worker evaluates
its shard locally, and a coordinator gathers fitnesses and runs evolve.
The paper contrasts E3 against it qualitatively in Table VI; this model
makes the contrast quantitative so the comparison bench can reproduce
the "who wins where" — CLAN scales with worker count until the
per-generation communication round dominates, while E3 accelerates the
same evaluate phase inside one device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw import calibration as cal
from repro.hw.cpu_model import CPUModel, PhaseTimes
from repro.hw.workload import GenerationWorkload

__all__ = ["CLANConfig", "CLANModel"]

_FLOAT_BYTES = 4


@dataclass(frozen=True)
class CLANConfig:
    """Cluster parameters for the CLAN platform model."""

    num_workers: int = 4
    #: per-op slowdown of an edge CPU vs the desktop baseline
    edge_slowdown: float = 4.0
    #: one network round-trip (coordinator <-> worker)
    network_latency_seconds: float = 2e-4
    #: effective LAN throughput
    network_bytes_per_second: float = 10e6
    #: board power per worker node (Pi-class)
    worker_power_watts: float = 4.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.edge_slowdown <= 0:
            raise ValueError("edge_slowdown must be > 0")


class CLANModel:
    """Prices NEAT generations on a CLAN-style edge cluster."""

    def __init__(
        self,
        config: CLANConfig | None = None,
        host: CPUModel | None = None,
    ):
        self.config = config or CLANConfig()
        # the per-op cost basis; scaled by the edge slowdown per worker
        self.host = host or CPUModel()

    # ----------------------------------------------------------- pricing
    def generation_times(self, gen: GenerationWorkload) -> PhaseTimes:
        """Phase times for one generation on the cluster.

        Evaluate wall-clock follows the slowest worker's shard (static
        round-robin assignment, as CLAN's asynchronous queue converges
        to under uniform episodes), plus the genome broadcast and the
        fitness gather.
        """
        cfg = self.config
        slowdown = cfg.edge_slowdown

        # per-individual evaluate seconds at edge rates (incl. env)
        per_individual = []
        for w in gen.individuals:
            inference = w.steps * (
                self.host.seconds_per_call
                + w.macs * self.host.seconds_per_mac
                + w.nodes * self.host.seconds_per_node
            )
            env = w.steps * self.host.seconds_per_env_step
            per_individual.append(slowdown * (inference + env))

        # round-robin sharding: worker k gets individuals k, k+W, ...
        shard_times = [0.0] * cfg.num_workers
        for i, seconds in enumerate(per_individual):
            shard_times[i % cfg.num_workers] += seconds
        evaluate_wall = max(shard_times)

        # communication: broadcast every genome config + gather one
        # fitness per individual; one round-trip per worker per phase
        payload_bytes = gen.total_config_words * _FLOAT_BYTES
        gather_bytes = gen.population_size * _FLOAT_BYTES
        comm = (
            2 * cfg.num_workers * cfg.network_latency_seconds
            + (payload_bytes + gather_bytes) / cfg.network_bytes_per_second
        )

        host = self.host.generation_times(gen)
        return PhaseTimes(
            evaluate=evaluate_wall + comm,
            env=0.0,  # env runs inside each worker's evaluate slice
            createnet=host.createnet * slowdown,
            evolve=host.evolve * slowdown,  # evolve on the coordinator Pi
        )

    def communication_seconds(self, gen: GenerationWorkload) -> float:
        """The per-generation communication round alone."""
        cfg = self.config
        payload_bytes = gen.total_config_words * _FLOAT_BYTES
        gather_bytes = gen.population_size * _FLOAT_BYTES
        return (
            2 * cfg.num_workers * cfg.network_latency_seconds
            + (payload_bytes + gather_bytes) / cfg.network_bytes_per_second
        )

    # ------------------------------------------------------------ energy
    def energy_joules(self, times: PhaseTimes) -> float:
        """Whole-cluster energy: every node is powered for the full
        generation (workers idle during evolve still draw power)."""
        cfg = self.config
        cluster_power = (cfg.num_workers + 1) * cfg.worker_power_watts
        return times.total * cluster_power

    # ----------------------------------------------------------- scaling
    def scaling_efficiency(
        self, gen: GenerationWorkload, max_workers: int = 64
    ) -> list[tuple[int, float]]:
        """(workers, speedup vs 1 worker) — where communication bites."""
        base = CLANModel(
            CLANConfig(
                num_workers=1,
                edge_slowdown=self.config.edge_slowdown,
                network_latency_seconds=self.config.network_latency_seconds,
                network_bytes_per_second=self.config.network_bytes_per_second,
            ),
            host=self.host,
        ).generation_times(gen).total
        out = []
        workers = 1
        while workers <= max_workers:
            model = CLANModel(
                CLANConfig(
                    num_workers=workers,
                    edge_slowdown=self.config.edge_slowdown,
                    network_latency_seconds=self.config.network_latency_seconds,
                    network_bytes_per_second=self.config.network_bytes_per_second,
                ),
                host=self.host,
            )
            total = model.generation_times(gen).total
            out.append((workers, base / total))
            workers *= 2
        return out
