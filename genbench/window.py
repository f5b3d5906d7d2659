"""Child side of the benchmark: run one fixed window in this process.

:func:`run_window` builds each sub-population of the workload's panel
through the public :class:`~repro.core.platform.E3` constructor and
advances it with ``Population.advance`` for exactly the workload's
generation count, so no fitness threshold can end the window early.
It times every ``advance`` call, runs :func:`calibrate` between calls,
and returns, per generation, what the orchestrator needs to check the
run:

* every evaluated genome's key, fitness (as ``float.hex``) and episode
  length, for the bit-exact comparison with the interpreted ``cpu``
  oracle;
* the generation's simulated INAX cycles;
* the degradations the backend counted (quarantine, fallback,
  oversize) and, on a device backend, each generation whose device
  :class:`~repro.inax.timing.CycleReport` differs from
  :func:`~repro.inax.accelerator.schedule_generation` re-pricing the
  same record.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from contextlib import nullcontext

import numpy as np

from repro.core.backends import EvaluationBackend, GenerationRecord
from repro.core.platform import E3, default_inax_config, effective_neat_config
from repro.envs.registry import make
from repro.inax.accelerator import schedule_generation
from repro.inax.pipeline import PipelineConfig
from repro.inax.timing import CycleReport, utilization
from repro.neat.config import NEATConfig

from genbench.ledger import Ledger, installed
from genbench.workloads import Workload, sub_seeds

__all__ = ["build", "calibrate", "peak_rss_mb", "report_fields", "run_window"]

_REPORT_FIELDS = tuple(
    f.name for f in dataclasses.fields(CycleReport) if f.name != "layer_iterations"
)


def report_fields(report: CycleReport) -> dict[str, float]:
    """A report's scalar counters (``layer_iterations`` is diagnostic
    only and the analytic scheduler leaves it empty)."""
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(
    workload: Workload,
    seed: int,
    backend: str | None = None,
    backend_cls: type[EvaluationBackend] | None = None,
) -> E3:
    """One sub-population of ``workload`` under NEAT seed ``seed``.

    ``backend`` overrides the workload's backend by name (the oracle
    runs ``"cpu"``); ``backend_cls`` supplies a backend class instead.
    """
    pipeline = PipelineConfig(
        schedule=workload.schedule, prefetch=workload.prefetch
    )
    neat_config = NEATConfig(population_size=workload.population)
    chosen: str | EvaluationBackend = backend or workload.backend
    if backend_cls is not None:
        inax_config = default_inax_config(make(workload.env).num_outputs)
        chosen = backend_cls(
            workload.env,
            effective_neat_config(workload.env, neat_config),
            base_seed=seed,
            inax_config=inax_config,
            pipeline=pipeline,
        )
    return E3(
        workload.env,
        backend=chosen,
        neat_config=neat_config,
        seed=seed,
        pipeline=pipeline,
        workers=0,
    )


def _cycle_mismatch(backend: EvaluationBackend, record: GenerationRecord) -> bool:
    """Does the device report differ from re-pricing the same record?"""
    analytic = schedule_generation(
        backend.inax_config,
        record.configs,
        record.episode_lengths,
        pipeline=backend.pipeline,
        predicted_costs=record.predicted_costs,
    )
    return report_fields(analytic) != report_fields(record.cycle_report)


def calibrate() -> float:
    """Seconds this CPU takes for a fixed mix of interpreter and small
    NumPy work that does not touch ``repro``."""
    inputs = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
    weights = np.linspace(-0.5, 0.5, 32).reshape(8, 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        t0 = time.perf_counter()
        for i in range(1500):
            total += float(np.tanh(inputs[i % 64] @ weights).sum())
            for j in range(20):
                total += j * 0.5
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_window(
    workload: Workload,
    seed: int,
    backend: str | None = None,
    backend_cls: type[EvaluationBackend] | None = None,
    ledger: Ledger | None = None,
) -> dict:
    """Run ``workload``'s window for workload seed ``seed``.

    With a ``ledger`` the layer wrappers are installed around the whole
    window and each ``advance`` call is the ledger's root span.
    ``gen_s`` holds each ``advance`` call's seconds and
    ``calibration_s`` the mean :func:`calibrate` time just before and
    after it.  ``construct_s`` lists each sub-population's ``E3(...)``
    time; the first entry is part of the caller's set-up measurement.
    """
    gen_s: list[float] = []
    calibration_s: list[float] = []
    rows: list[list] = []
    cycles: list[float] = []
    construct_s: list[float] = []
    failures = {"quarantined": 0, "fallback": 0, "oversize": 0, "cycle_mismatch": 0}
    counters = {"compile.hits": 0, "compile.misses": 0, "neat.species": 0,
                "neat.mean_connections": 0.0}
    sim = dict.fromkeys(_REPORT_FIELDS, 0)
    env_steps = 0
    device = (backend or workload.backend) == "inax" and backend_cls is None
    with installed(ledger) if ledger is not None else nullcontext():
        for k, sub_seed in enumerate(sub_seeds(workload, seed)):
            t0 = time.perf_counter()
            e3 = build(workload, sub_seed, backend=backend, backend_cls=backend_cls)
            construct_s.append(time.perf_counter() - t0)
            population, evaluate = e3.population, e3.backend.evaluate
            before = calibrate()
            for g in range(workload.generations):
                evaluated = list(population.population)
                root = (
                    ledger.generation_span(k * workload.generations + g)
                    if ledger is not None
                    else nullcontext()
                )
                with root:
                    t0 = time.perf_counter()
                    population.advance(evaluate)
                    gen_s.append(time.perf_counter() - t0)
                after = calibrate()
                calibration_s.append((before + after) / 2)
                before = after
                record = e3.backend.records[-1]
                lengths = record.episode_lengths
                if len(lengths) != len(evaluated):
                    lengths = [None] * len(evaluated)  # oversize: unverifiable
                rows.append(
                    [
                        [genome.key, float(genome.fitness).hex(), length]
                        for genome, length in zip(evaluated, lengths)
                    ]
                )
                env_steps += sum(record.episode_lengths)
                cycles.append(record.cycle_report.total_cycles)
                for name, value in report_fields(record.cycle_report).items():
                    sim[name] += value
                if device and _cycle_mismatch(e3.backend, record):
                    failures["cycle_mismatch"] += 1
                stats = population.history[-1]
                counters["neat.species"] += stats.num_species
                counters["neat.mean_connections"] += stats.mean_connections
            failures["quarantined"] += e3.backend.quarantine_count
            failures["fallback"] += getattr(e3.backend, "fallback_genomes", 0)
            failures["oversize"] += getattr(e3.backend, "oversize_count", 0)
            if hasattr(e3.backend, "compile_cache_info"):
                info = e3.backend.compile_cache_info()
                counters["compile.hits"] += info["hits"]
                counters["compile.misses"] += info["misses"]
            e3.backend.close()
    return {
        "workload": workload.name,
        "seed": seed,
        "gen_s": gen_s,
        "construct_s": construct_s,
        "calibration_s": calibration_s,
        "rows": rows,
        "cycles": cycles,
        "env_steps": env_steps,
        "evaluations": sum(len(r) for r in rows),
        "failures": failures,
        "counters": counters,
        "sim": {
            "inax.setup_cycles": sim["setup_cycles"],
            "inax.compute_cycles": sim["compute_cycles"],
            "inax.prefetch_hidden_cycles": sim["prefetch_hidden_cycles"],
            "inax.pack_eff": utilization(
                sim["live_slot_steps"], sim["slot_steps_provisioned"]
            ),
            "inax.u_pe": utilization(
                sim["pe_active_cycles"], sim["pe_provisioned_cycles"]
            ),
            "inax.waves": sim["waves"],
        },
        "layers": ledger.table() if ledger is not None else None,
        "peak_rss_mb": peak_rss_mb(),
    }
