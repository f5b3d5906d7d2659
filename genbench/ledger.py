"""Outside-in per-layer ledger for traced benchmark runs.

:func:`installed` wraps the public entry point of each layer *where its
caller looks it up* (module attributes for the names
``repro.core.backends`` imports, class attributes for methods), so no
file under ``src/`` changes and untraced runs carry no wrapper cost.

Two kinds of wrapper record into one :class:`Ledger`:

* a **span** (name, start, end, parent, generation) for each call into
  a layer boundary that runs a handful of times per generation —
  ``Population.advance`` (the root, opened by the window driver),
  ``EvaluationBackend.evaluate``, ``run_lockstep``, the evolve phases,
  ``schedule_generation`` and ``CompiledPopulationEvaluator(...)``;
* a **leaf** roll-up (call count, seconds, rows) inside its enclosing
  span for calls made per genome, per tick or per env step —
  ``Environment.step`` / ``reset``, the inference call, action decode,
  ``CompileCache.get``, ``compile_genome``, ``pack_waves`` and the INAX
  wave handshake.  Recording one span per env step would cost more
  than the step.

A layer's self time is its spans' duration minus the time their child
spans and leaf roll-ups cover.  Self times of every layer plus the root
span's own self time (the *residual*: ``Population.advance`` work no
wrapper covers) add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "LEAF_METRICS",
    "Ledger",
    "RESIDUAL_BOUND",
    "SPAN_METRICS",
    "installed",
]

#: stated bound on the residual, as a share of the traced wall time
RESIDUAL_BOUND = 0.05

#: span name -> self-time metric
SPAN_METRICS = {
    "gen": "trace.residual_s",
    "backend": "backend.other_s",
    "rollout": "rollout.driver_s",
    "compile.build": "compile.build_s",
    "inax.price": "inax.price_s",
    "neat.observe": "neat.observe_s",
    "neat.stagnation": "neat.stagnation_s",
    "neat.reproduce": "neat.reproduce_s",
    "neat.speciate": "neat.speciate_s",
}

#: leaf name -> time metric
LEAF_METRICS = {
    "env.step": "env.step_s",
    "env.reset": "env.reset_s",
    "infer": "infer.s",
    "rollout.decode": "rollout.decode_s",
    "compile.lookup": "compile.lookup_s",
    "inax.compile": "inax.compile_s",
    "inax.pack": "inax.pack_s",
    "inax.wave": "inax.wave_s",
}

# span record layout
_NAME, _START, _END, _PARENT, _GEN, _LEAVES = range(6)


class Ledger:
    """In-memory spans of one traced window."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, generation, leaves]`` where
        #: ``leaves`` maps a leaf name to ``[calls, seconds, rows]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.generation = -1
        #: distinct compiled buckets summed over the window
        self.buckets = 0

    # ------------------------------------------------------- recording
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.generation, {}]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def generation_span(self, generation: int) -> Iterator[None]:
        """The root span around one ``Population.advance`` call."""
        self.generation = generation
        index = self.open("gen")
        try:
            yield
        finally:
            self.close(index)

    def span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside a timed generation
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def leaf(
        self, name: str, fn: Callable, rows: Callable | None = None
    ) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                leaves = spans[stack[-1]][_LEAVES]
                entry = leaves.get(name)
                if entry is None:
                    entry = leaves[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += seconds
                if rows is not None:
                    entry[2] += rows(args)

        return wrapper

    # ------------------------------------------------------- reporting
    def table(self) -> dict[str, float]:
        """Window totals: layer self times, leaf counts, inclusive phases.

        The :data:`SPAN_METRICS` and :data:`LEAF_METRICS` entries are
        self times and sum to ``wall_s`` (up to float rounding).
        """
        totals = {metric: 0.0 for metric in SPAN_METRICS.values()}
        totals.update({metric: 0.0 for metric in LEAF_METRICS.values()})
        calls = {name: 0 for name in LEAF_METRICS}
        infer_rows = 0
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        wall = evaluate = 0.0
        for index, span in enumerate(self.spans):
            duration = span[_END] - span[_START]
            covered = child_time[index]
            for leaf, (count, seconds, rows) in span[_LEAVES].items():
                covered += seconds
                totals[LEAF_METRICS[leaf]] += seconds
                calls[leaf] += count
                if leaf == "infer":
                    infer_rows += rows
            totals[SPAN_METRICS[span[_NAME]]] += duration - covered
            if span[_NAME] == "gen":
                wall += duration
            elif span[_NAME] == "backend":
                evaluate += duration
        totals.update(
            {
                "wall_s": wall,
                "gen.evaluate_s": evaluate,
                "gen.evolve_s": wall - evaluate,
                "env.steps": calls["env.step"],
                "infer.ticks": calls["infer"],
                "infer.rows": infer_rows,
                "compile.buckets": self.buckets,
            }
        )
        return totals

    def write(self, path: Path) -> None:
        """Write the spans out as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "generation", "leaves")
        path.write_text(
            json.dumps([dict(zip(fields, span)) for span in self.spans])
        )


@contextmanager
def installed(ledger: Ledger) -> Iterator[Ledger]:
    """Wrap every measured layer entry point for the ``with`` body."""
    from repro.compile import cache, evaluator
    from repro.core import backends
    from repro.envs import base, rollout
    from repro.inax import accelerator
    from repro.neat import population, reproduction, species

    build = ledger.span("compile.build", evaluator.CompiledPopulationEvaluator)

    def build_evaluator(members):
        result = build(members)
        if ledger._stack:
            ledger.buckets += result.num_buckets
        return result

    def observed_rows(args) -> int:
        return len(args[1])

    patches = [
        (population.Population, "observe_evaluated", "span", "neat.observe"),
        (species.SpeciesSet, "update_fitnesses", "span", "neat.stagnation"),
        (species.SpeciesSet, "remove_stagnant", "span", "neat.stagnation"),
        (reproduction.Reproduction, "reproduce", "span", "neat.reproduce"),
        (species.SpeciesSet, "speciate", "span", "neat.speciate"),
        (backends.EvaluationBackend, "evaluate", "span", "backend"),
        (backends, "run_lockstep", "span", "rollout"),
        (backends, "schedule_generation", "span", "inax.price"),
        (backends, "compile_genome", "leaf", "inax.compile"),
        (backends, "pack_waves", "leaf", "inax.pack"),
        (cache.CompileCache, "get", "leaf", "compile.lookup"),
        (evaluator.CompiledPopulationEvaluator, "infer", "leaf", "infer"),
        (accelerator.INAX, "step", "leaf", "infer"),
        (accelerator.INAX, "begin_wave", "leaf", "inax.wave"),
        (accelerator.INAX, "end_wave", "leaf", "inax.wave"),
        (rollout, "decode_action_batch", "leaf", "rollout.decode"),
        (base.Environment, "step", "leaf", "env.step"),
        (base.Environment, "reset", "leaf", "env.reset"),
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in patches]
    originals.append(
        (backends, "CompiledPopulationEvaluator", backends.CompiledPopulationEvaluator)
    )
    try:
        for owner, attr, kind, name in patches:
            fn = vars(owner)[attr]
            if kind == "span":
                wrapped = ledger.span(name, fn)
            else:
                rows = observed_rows if name == "infer" else None
                wrapped = ledger.leaf(name, fn, rows=rows)
            setattr(owner, attr, wrapped)
        backends.CompiledPopulationEvaluator = build_evaluator
        yield ledger
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
