"""E3 core: the paper's primary contribution, assembled.

``E3`` runs the closed evaluate/evolve loop with a pluggable evaluation
backend (software CPU or the functional INAX device);
``run_experiment`` prices a finished run on the E3-CPU / E3-GPU /
E3-INAX platform models, producing the Fig 9/10 comparisons.
"""

from repro.core.backends import (
    ALIASES,
    BACKENDS,
    CPUBackend,
    CompiledCPUBackend,
    EvaluationBackend,
    GenerationRecord,
    INAXBackend,
    create_backend,
)
from repro.core.energy import (
    EnergyReport,
    PhasePower,
    PLATFORM_POWER,
    energy_report,
)
from repro.core.experiment import (
    ExperimentResult,
    PlatformResult,
    cpu_model_for,
    price_run,
    run_experiment,
)
from repro.core.platform import E3, E3RunResult, default_inax_config
from repro.core.suite import (
    BENCH_SETTINGS,
    PAPER_SETTINGS,
    SuiteSettings,
    run_suite,
)
from repro.core.results import (
    format_breakdown,
    format_seconds,
    format_table,
    to_json,
)

__all__ = [
    "ALIASES",
    "BACKENDS",
    "BENCH_SETTINGS",
    "CPUBackend",
    "CompiledCPUBackend",
    "E3",
    "E3RunResult",
    "EnergyReport",
    "EvaluationBackend",
    "ExperimentResult",
    "GenerationRecord",
    "INAXBackend",
    "PLATFORM_POWER",
    "PhasePower",
    "PAPER_SETTINGS",
    "PlatformResult",
    "cpu_model_for",
    "create_backend",
    "default_inax_config",
    "energy_report",
    "format_breakdown",
    "format_seconds",
    "format_table",
    "price_run",
    "SuiteSettings",
    "run_experiment",
    "run_suite",
    "to_json",
]
