"""Self-tests of the generation benchmark, on tiny windows.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest genbench -q``.
"""

from __future__ import annotations

import math

import pytest

from genbench.ledger import LEAF_METRICS, RESIDUAL_BOUND, SPAN_METRICS, Ledger
from genbench.run import count_failures, digest, end_to_end
from genbench.window import run_window
from genbench.workloads import Workload
from repro.core.backends import CompiledCPUBackend

TINY_COMPILED = Workload(
    name="tiny-compiled", env="cartpole", backend="cpu-compiled",
    population=30, generations=2, panel=2,
)
TINY_INAX = Workload(
    name="tiny-inax", env="cartpole", backend="inax",
    population=60, generations=2, panel=1, schedule="lpt", prefetch=True,
)


class OneUlpOff(CompiledCPUBackend):
    """Evaluates correctly, then nudges one fitness by one ulp."""

    def _evaluate(self, genomes):
        super()._evaluate(genomes)
        genomes[0].fitness = math.nextafter(genomes[0].fitness, math.inf)


@pytest.mark.parametrize("workload", [TINY_COMPILED, TINY_INAX], ids=lambda w: w.name)
def test_layer_table_sums_to_traced_wall(workload):
    ledger = Ledger()
    table = run_window(workload, 3, ledger=ledger)["layers"]
    layers = (*SPAN_METRICS.values(), *LEAF_METRICS.values())
    assert sum(table[name] for name in layers) == pytest.approx(
        table["wall_s"], rel=1e-9
    )
    assert 0.0 <= table["trace.residual_s"] <= RESIDUAL_BOUND * table["wall_s"]
    assert table["gen.evaluate_s"] + table["gen.evolve_s"] == pytest.approx(
        table["wall_s"]
    )
    assert table["env.steps"] == run_window(workload, 3)["env_steps"]


def test_tracing_leaves_the_program_unwrapped():
    from repro.core import backends
    from repro.envs.base import Environment

    step, lockstep = Environment.step, backends.run_lockstep
    run_window(TINY_COMPILED, 3, ledger=Ledger())
    assert Environment.step is step and backends.run_lockstep is lockstep


@pytest.mark.parametrize("workload", [TINY_COMPILED, TINY_INAX], ids=lambda w: w.name)
def test_window_matches_the_cpu_oracle(workload):
    result = run_window(workload, 5)
    oracle = run_window(workload, 5, backend="cpu")
    assert count_failures(result, oracle) == 0
    assert len(result["rows"]) == workload.window_generations


def test_one_ulp_off_backend_drives_fail_frac_above_zero():
    oracle = run_window(TINY_COMPILED, 5, backend="cpu")
    result = run_window(TINY_COMPILED, 5, backend_cls=OneUlpOff)
    assert count_failures(result, oracle) / result["evaluations"] > 0


def test_sim_cycles_per_gen_repeats_exactly():
    first, second = run_window(TINY_INAX, 7), run_window(TINY_INAX, 7)
    assert first["failures"]["cycle_mismatch"] == 0
    for result in (first, second):
        result["setup_s"] = 0.0
    assert end_to_end([first], TINY_INAX)["sim_cycles_per_gen"] == end_to_end(
        [second], TINY_INAX
    )["sim_cycles_per_gen"]
    assert digest(first) == digest(second)
