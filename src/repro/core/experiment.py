"""End-to-end experiment driver for the Fig 9 / Fig 10 comparisons.

The methodology: run the NEAT loop **once** (functionally, on the CPU
backend — the evolved genomes, episode lengths, and fitness trajectory
are backend-independent), record the per-generation workload, then
price that identical workload on all three platforms:

* E3-CPU  — :class:`repro.hw.cpu_model.CPUModel`
* E3-GPU  — :class:`repro.hw.gpu_model.GPUModel`
* E3-INAX — INAX cycle reports x the FPGA clock, host phases on CPU

This mirrors the paper's setup where all three platforms solve the same
tasks, while making the comparison exactly workload-controlled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backends import GenerationRecord
from repro.core.energy import EnergyReport, energy_report
from repro.core.platform import E3, E3RunResult, default_inax_config
from repro.envs.registry import make, spec
from repro.hw.cpu_model import CPUModel, PhaseTimes
from repro.hw.fpga_model import INAXPlatformModel
from repro.hw.gpu_model import GPUModel
from repro.inax.accelerator import INAXConfig
from repro.inax.timing import CycleReport
from repro.neat.config import NEATConfig

__all__ = [
    "PlatformResult",
    "ExperimentResult",
    "cpu_model_for",
    "price_run",
    "run_experiment",
]

PLATFORMS = ("cpu", "gpu", "inax")


def cpu_model_for(env_name: str) -> CPUModel:
    """A CPU model with the environment's own env.step() cost."""
    from repro.hw import calibration as cal

    return CPUModel(
        seconds_per_env_step=cal.ENV_STEP_SECONDS.get(
            env_name, cal.CPU_SECONDS_PER_ENV_STEP
        )
    )


@dataclass
class PlatformResult:
    """One platform's pricing of a run."""

    platform: str
    times: PhaseTimes
    energy: EnergyReport

    @property
    def runtime_seconds(self) -> float:
        return self.times.total

    @property
    def energy_joules(self) -> float:
        return self.energy.total


@dataclass
class ExperimentResult:
    """One environment's full three-platform comparison."""

    env_name: str
    paper_id: str | None
    solved: bool
    generations: int
    best_fitness: float
    platforms: dict[str, PlatformResult] = field(default_factory=dict)
    inax_report: CycleReport = field(default_factory=CycleReport)
    run: E3RunResult | None = None

    # ------------------------------------------------------- comparisons
    def speedup(self, over: str = "cpu", of: str = "inax") -> float:
        """Runtime ratio, e.g. E3-CPU / E3-INAX (the paper's 30x)."""
        return (
            self.platforms[over].runtime_seconds
            / self.platforms[of].runtime_seconds
        )

    def energy_ratio(self, of: str, over: str = "cpu") -> float:
        """Energy of one platform relative to another."""
        return (
            self.platforms[of].energy_joules
            / self.platforms[over].energy_joules
        )


def price_run(
    records: list[GenerationRecord],
    inax_config: INAXConfig,
    cpu_model: CPUModel | None = None,
    gpu_model: GPUModel | None = None,
    inax_model: INAXPlatformModel | None = None,
) -> tuple[dict[str, PlatformResult], CycleReport]:
    """Price a recorded run on all three platforms."""
    cpu_model = cpu_model or CPUModel()
    gpu_model = gpu_model or GPUModel(host=cpu_model)
    inax_model = inax_model or INAXPlatformModel(inax_config, host=cpu_model)

    cpu_times, gpu_times, inax_times = PhaseTimes(), PhaseTimes(), PhaseTimes()
    merged_report = CycleReport()
    for record in records:
        # a record lowers its workload on every read: read it once
        workload = record.workload
        cpu_times.merge(cpu_model.generation_times(workload))
        gpu_times.merge(gpu_model.generation_times(workload))
        if record.cycle_report is None:
            raise ValueError(
                "record has no INAX cycle report; evaluate with an "
                "inax_config attached"
            )
        inax_times.merge(
            inax_model.generation_times(workload, record.cycle_report)
        )
        merged_report.merge(record.cycle_report)

    platforms = {
        "cpu": PlatformResult("cpu", cpu_times, energy_report(cpu_times, "cpu")),
        "gpu": PlatformResult("gpu", gpu_times, energy_report(gpu_times, "gpu")),
        "inax": PlatformResult(
            "inax", inax_times, energy_report(inax_times, "inax")
        ),
    }
    return platforms, merged_report


def run_experiment(
    env_name: str,
    seed: int = 0,
    neat_config: NEATConfig | None = None,
    inax_config: INAXConfig | None = None,
    max_generations: int | None = None,
    episodes_per_genome: int = 1,
    backend: str = "cpu",
    fitness_threshold: float | None = None,
    workers: int = 0,
) -> ExperimentResult:
    """Run NEAT on ``env_name`` and price it on all three platforms.

    ``backend`` picks where the functional run executes — ``cpu-fast``
    prices identically to ``cpu`` because the fitness trajectory,
    workloads, and episode lengths are bit-identical; it just finishes
    the functional run sooner.  ``workers`` shards ``cpu-fast``
    evaluation across processes.
    """
    env_spec = spec(env_name)
    env = make(env_name)
    if inax_config is None:
        inax_config = default_inax_config(env.num_outputs)

    platform = E3(
        env_name,
        backend=backend,
        neat_config=neat_config,
        inax_config=inax_config,
        episodes_per_genome=episodes_per_genome,
        seed=seed,
        workers=workers,
    )
    run = platform.run(
        max_generations=max_generations, fitness_threshold=fitness_threshold
    )
    platform.backend.close()
    platforms, merged = price_run(
        run.records, inax_config, cpu_model=cpu_model_for(env_name)
    )
    return ExperimentResult(
        env_name=env_name,
        paper_id=env_spec.paper_id,
        solved=run.solved,
        generations=run.generations,
        best_fitness=run.best_fitness,
        platforms=platforms,
        inax_report=merged,
        run=run,
    )
