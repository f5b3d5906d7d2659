"""Structural-batching compiler — speedup of ``cpu-compiled`` over
per-genome decoding on the software network-preparation path.

Both paths run lock-step inference through the same flattened engine,
so that phase is *shared* and cannot differ by construction.  What the
compile cache replaces is the per-generation **network preparation**:
a decode cache keyed on the weighted structural hash misses for every
weight-mutated offspring (the overwhelming majority of a NEAT
generation — see Fig 1(b)'s decode share), so each one re-decodes from
scratch — the hash, two interpreted network builds (``CreateNet`` and
the HW config) plus a fresh vectorized plan.  The ``cpu-compiled``
backend keys on the weights-excluded shape key, hits for every
offspring whose parent was ever compiled, and only fills each shape's
parameter blocks from the cached structure's recipes.

The bench prepares an identical mid-run CartPole population of
weight-mutated offspring on both paths:

* **prep** (gated): per-genome decode misses vs. compile-cache hits +
  per-shape parameter fill — everything up to the point where every
  member's parameters are in plan layout on both paths;
* **assemble + ticks** (reported): the flattened engine's build (from
  the per-member plans on one side, the per-shape blocks on the other)
  plus a fixed number of lock-step inference ticks, asserted
  bit-identical between the paths.

The compile cache persists across repeats, exactly like the
cross-generation cache a running E3 carries (weight-mutated children
keep hitting structures compiled generations ago), while the decode
path takes the fresh misses every generation hands it.  The floor on
the prep speedup is 3x; the paper-facing target on record is 10x.
``BENCH_compile.json`` captures workload, phase timings, and both
ratios for the CI artifact.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import OUTPUT_DIR, write_output
from repro.compile import CompileCache
from repro.core.backends import CompiledCPUBackend
from repro.core.results import format_table
from repro.inax.compiler import compile_genome
from repro.neat.config import NEATConfig
from repro.neat.network import FeedForwardNetwork
from repro.neat.population import Population
from repro.neat.vectorized import PopulationEvaluator, _NetPlan

NUM_GENOMES = 200
BOOT_GENERATIONS = 6
TICKS = 10
SPEEDUP_FLOOR = 3.0
SPEEDUP_TARGET = 10.0  # the paper-facing goal, recorded but not gated
REPEATS = 3


def _midrun_population(config: NEATConfig):
    """Evolve CartPole briefly and return the live population."""
    boot = CompiledCPUBackend(
        "cartpole", config, episodes_per_genome=1, base_seed=3
    )
    population = Population(config, seed=3)
    population.run(boot.evaluate, max_generations=BOOT_GENERATIONS)
    boot.close()
    return list(population.population)


def _weight_mutated_offspring(parents):
    """One weight/bias-perturbed child per parent — the common NEAT
    offspring whose topology survives but whose structural hash (and
    therefore any decode-cache key) does not."""
    rng = np.random.default_rng(17)
    offspring = []
    for parent in parents:
        child = parent.copy(new_key=10_000 + parent.key)
        for conn in child.connections.values():
            conn.weight += float(rng.normal(0.0, 0.1))
        for node in child.nodes.values():
            node.bias += float(rng.normal(0.0, 0.1))
        offspring.append(child)
    return offspring


def _observations(config, count, tick):
    rng = np.random.default_rng(1000 + tick)
    return rng.normal(size=(count, config.num_inputs))


def _run_ticks(config, assemble, count):
    """The shared phase: flat engine assembly + lock-step ticks."""
    start = time.perf_counter()
    evaluator = assemble()
    slots = list(range(count))
    outputs = [
        evaluator.infer(slots, _observations(config, count, tick))
        for tick in range(TICKS)
    ]
    return time.perf_counter() - start, outputs


def _decode_prep(config, offspring):
    """Per-genome decode: the miss a structural-hash-keyed cache takes
    for every weight-mutated child (hash, CreateNet, vectorized plan,
    HW config, insert).  Returns the keys so the caller can check that
    they really miss."""
    start = time.perf_counter()
    decoded = {}
    plans = []
    for genome in offspring:
        net = FeedForwardNetwork.create(genome, config)
        plan = _NetPlan(net)
        decoded[genome.structural_hash()] = (
            net, plan, compile_genome(genome, config)
        )
        plans.append(plan)
    return time.perf_counter() - start, plans, set(decoded)


def _compiled_prep(config, cache, offspring):
    """cpu-compiled: shape-key hits + one parameter fill per shape."""
    start = time.perf_counter()
    entries = [cache.get(genome, config) for genome in offspring]
    grouped: dict[int, tuple[object, list[int]]] = {}
    for slot, entry in enumerate(entries):
        bucket = grouped.get(id(entry))
        if bucket is None:
            grouped[id(entry)] = (entry, [slot])
        else:
            bucket[1].append(slot)
    groups = []
    for structure, slots in grouped.values():
        weights, biases = structure.parameter_blocks(
            [offspring[slot] for slot in slots]
        )
        groups.append((structure.plan, slots, weights, biases))
    return time.perf_counter() - start, groups, len(groups)


def test_compile_speedup():
    config = NEATConfig(
        num_inputs=4, num_outputs=2, population_size=NUM_GENOMES
    )
    parents = _midrun_population(config)
    assert len(parents) >= 100
    offspring = _weight_mutated_offspring(parents)
    # the workload must be the common case: every offspring vectorizable
    probe = CompileCache(capacity=len(offspring))
    offspring = [
        g for g in offspring if probe.get(g, config).plan is not None
    ]
    assert len(offspring) >= 100

    # structures compiled in earlier generations, persisting across
    # them — a real run's children keep hitting these entries
    compile_cache = CompileCache(capacity=4 * NUM_GENOMES)
    for parent in parents:
        compile_cache.warm(parent, config)
    warmed = compile_cache.info()["warmed"]

    fast_prep = comp_prep = float("inf")
    fast_shared = comp_shared = float("inf")
    for _ in range(REPEATS):
        prep, fast_plans, keys = _decode_prep(config, offspring)
        shared, fast_out = _run_ticks(
            config,
            lambda: PopulationEvaluator.from_plans(fast_plans),
            len(offspring),
        )
        fast_prep = min(fast_prep, prep)
        fast_shared = min(fast_shared, shared)

        prep, comp_groups, buckets = _compiled_prep(
            config, compile_cache, offspring
        )
        shared, comp_out = _run_ticks(
            config,
            lambda: PopulationEvaluator.from_groups(comp_groups),
            len(offspring),
        )
        comp_prep = min(comp_prep, prep)
        comp_shared = min(comp_shared, shared)

    # every weight-mutated child defeats a structural-hash cache ...
    assert len(keys) == len(offspring)
    assert not keys & {p.structural_hash() for p in parents}
    # ... and hits the shape-keyed compile cache, every generation
    cache_info = compile_cache.info()
    assert cache_info["hits"] == REPEATS * len(offspring)
    assert cache_info["misses"] == 0
    assert cache_info["size"] == warmed

    # the speedup is exact-result: identical bits on every tick
    for fast_tick, comp_tick in zip(fast_out, comp_out):
        for fast_row, comp_row in zip(fast_tick, comp_tick):
            assert np.array_equal(fast_row, comp_row)

    prep_speedup = fast_prep / comp_prep
    total_speedup = (fast_prep + fast_shared) / (comp_prep + comp_shared)

    rows = [
        ["per-genome decode", f"{fast_prep * 1e3:.1f}",
         f"{fast_shared * 1e3:.1f}", "1.0x"],
        ["compiled (cpu-compiled)", f"{comp_prep * 1e3:.1f}",
         f"{comp_shared * 1e3:.1f}", f"{prep_speedup:.2f}x"],
    ]
    table = format_table(
        ["software path", "prep (ms)",
         f"assemble + {TICKS} ticks (ms)", "prep speedup"],
        rows,
        title=(
            f"compile-cache speedup: {len(offspring)} weight-mutated "
            f"mid-run CartPole offspring in {buckets} buckets "
            f"(end-to-end {total_speedup:.2f}x)"
        ),
    )
    write_output("compile_speedup", table)

    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": {
            "env": "cartpole",
            "population": len(offspring),
            "boot_generations": BOOT_GENERATIONS,
            "ticks": TICKS,
            "buckets": buckets,
        },
        "fast": {"prep_s": fast_prep, "shared_s": fast_shared},
        "compiled": {"prep_s": comp_prep, "shared_s": comp_shared},
        "compile_cache": cache_info,
        "prep_speedup": prep_speedup,
        "total_speedup": total_speedup,
        "floor": SPEEDUP_FLOOR,
        "target": SPEEDUP_TARGET,
        "bit_identical": True,
    }
    (OUTPUT_DIR / "BENCH_compile.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert prep_speedup >= SPEEDUP_FLOOR, (
        f"compiled prep only {prep_speedup:.2f}x over per-genome decode "
        f"(floor {SPEEDUP_FLOOR}x, target {SPEEDUP_TARGET}x)"
    )
