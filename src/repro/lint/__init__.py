"""Static contract linter for the platform's reproducibility invariants.

The platform makes three load-bearing promises that are easy to break
with a one-line edit and expensive to catch at test time:

* **determinism** — the same config and seed produce bit-identical
  fitness trajectories on every backend;
* **telemetry overhead** — disabled telemetry costs one global
  ``None`` check per instrumented site;
* **backend parity** — every registered backend satisfies the shared
  lock-step evaluate surface.

:mod:`repro.lint` enforces those contracts *statically*: a
zero-dependency AST rule engine (:mod:`repro.lint.engine`), the rule
pack encoding the invariants (:mod:`repro.lint.rules`), a committed
baseline for legacy findings (:mod:`repro.lint.baseline`), and text /
JSON reporters (:mod:`repro.lint.report`).  Run it as
``python -m repro.lint [paths]`` or ``python -m repro lint``; suppress
a reviewed exception in-source with ``# repro: noqa[RULE-ID]``.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    default_rules,
    lint_paths,
    register,
)
from repro.lint.report import render_json, render_text, to_json_dict

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "default_rules",
    "lint_paths",
    "register",
    "render_json",
    "render_text",
    "to_json_dict",
]
