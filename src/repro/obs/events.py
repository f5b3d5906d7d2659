"""Health events and the per-run health report.

A :class:`HealthEvent` is one detector finding: *what* degraded
(``detector``), *how bad* (``severity``), *where* (``site``, the same
``gen=N|...`` site-string convention the resilience layer uses), and
the *window evidence* that triggered it (``evidence``, a flat mapping
of the numbers the detector compared).  Events are plain data — the
monitor streams them into the trace as zero-duration marker spans, and
the final :class:`HealthReport` collects them under a run verdict.

The determinism contract matters more here than anywhere: a health
report is a **pure function of the sample stream** (no wall clock, no
RNG, no iteration over unordered containers), so replaying a seeded
chaos run — or re-running the doctor over its exported trace — yields
a byte-identical ``health.json``.  :meth:`HealthReport.to_json` pins
the byte layout (sorted keys, fixed indent, trailing newline).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "SEVERITIES",
    "VERDICTS",
    "HEALTH_SCHEMA",
    "HealthEvent",
    "HealthReport",
    "validate_health_report",
]

#: recognised event severities, mildest first
SEVERITIES = ("info", "warning", "critical")
#: recognised run verdicts, healthiest first
VERDICTS = ("healthy", "degraded", "critical")
#: schema tag stamped into every health.json
HEALTH_SCHEMA = "repro.health/v1"


@dataclass(frozen=True)
class HealthEvent:
    """One detector finding at one site."""

    #: registry name of the detector that fired (``fitness.stagnation``)
    detector: str
    #: ``info`` | ``warning`` | ``critical``
    severity: str
    #: where it happened, e.g. ``gen=7`` or ``gen=7|cache=compile``
    site: str
    #: one human-readable sentence
    message: str
    #: the numbers the detector compared (window evidence)
    evidence: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            names = ", ".join(repr(s) for s in SEVERITIES)
            raise ValueError(
                f"unknown severity {self.severity!r}; use one of {names}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "site": self.site,
            "message": self.message,
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "HealthEvent":
        return cls(
            detector=str(row["detector"]),
            severity=str(row["severity"]),
            site=str(row["site"]),
            message=str(row.get("message", "")),
            evidence=dict(row.get("evidence", {})),
        )


def _worst_severity(events: list[HealthEvent]) -> str:
    worst = -1
    for event in events:
        worst = max(worst, SEVERITIES.index(event.severity))
    return SEVERITIES[worst] if worst >= 0 else ""


@dataclass
class HealthReport:
    """A run's verdict plus every event that contributed to it."""

    verdict: str
    generations: int
    events: list[HealthEvent] = field(default_factory=list)
    #: registry names of the detectors that ran (sorted)
    detectors: list[str] = field(default_factory=list)
    #: the HealthConfig thresholds the detectors ran with
    config: dict[str, Any] = field(default_factory=dict)
    #: deterministic run attribution (command, env, backend, seed,
    #: git commit/dirty, pipeline config) — never wall-clock fields
    run: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        events: list[HealthEvent],
        generations: int,
        detectors: list[str],
        config: dict[str, Any] | None = None,
        run: dict[str, Any] | None = None,
    ) -> "HealthReport":
        """Derive the verdict from the collected events."""
        worst = _worst_severity(events)
        if worst == "critical":
            verdict = "critical"
        elif worst == "warning":
            verdict = "degraded"
        else:
            verdict = "healthy"
        return cls(
            verdict=verdict,
            generations=generations,
            events=list(events),
            detectors=sorted(detectors),
            config=dict(config or {}),
            run=dict(run or {}),
        )

    def severity_counts(self) -> dict[str, int]:
        counts = {severity: 0 for severity in SEVERITIES}
        for event in self.events:
            counts[event.severity] += 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": HEALTH_SCHEMA,
            "verdict": self.verdict,
            "generations": self.generations,
            "severities": self.severity_counts(),
            "detectors": list(self.detectors),
            "config": dict(self.config),
            "events": [event.to_dict() for event in self.events],
            "run": dict(self.run),
        }

    def to_json(self) -> str:
        """Canonical byte layout: sorted keys, indent 2, newline-terminated.

        This is what makes "replayed chaos run => byte-identical
        health.json" a checkable property rather than a hope.
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HealthReport":
        return cls(
            verdict=str(payload["verdict"]),
            generations=int(payload["generations"]),
            events=[HealthEvent.from_dict(e) for e in payload.get("events", [])],
            detectors=[str(d) for d in payload.get("detectors", [])],
            config=dict(payload.get("config", {})),
            run=dict(payload.get("run", {})),
        )


def validate_health_report(payload: Mapping[str, Any]) -> list[str]:
    """Schema-check a parsed health.json; returns a list of problems."""
    errors: list[str] = []
    if payload.get("schema") != HEALTH_SCHEMA:
        errors.append(
            f"schema is {payload.get('schema')!r}, expected {HEALTH_SCHEMA!r}"
        )
    if payload.get("verdict") not in VERDICTS:
        errors.append(f"unknown verdict {payload.get('verdict')!r}")
    if not isinstance(payload.get("generations"), int):
        errors.append("generations must be an integer")
    events = payload.get("events")
    if not isinstance(events, list):
        errors.append("events must be a list")
        events = []
    for index, row in enumerate(events):
        if not isinstance(row, dict):
            errors.append(f"event {index} is not an object")
            continue
        for key in ("detector", "severity", "site", "message"):
            if not isinstance(row.get(key), str):
                errors.append(f"event {index} missing {key!r}")
        if row.get("severity") not in SEVERITIES:
            errors.append(
                f"event {index} has unknown severity {row.get('severity')!r}"
            )
        if "evidence" in row and not isinstance(row["evidence"], dict):
            errors.append(f"event {index} evidence must be an object")
    severities = payload.get("severities")
    if isinstance(severities, dict):
        if isinstance(events, list) and all(
            isinstance(row, dict) for row in events
        ):
            actual = {severity: 0 for severity in SEVERITIES}
            for row in events:
                if row.get("severity") in actual:
                    actual[row["severity"]] += 1
            if {k: severities.get(k, 0) for k in SEVERITIES} != actual:
                errors.append("severities counts disagree with events")
    else:
        errors.append("severities must be an object")
    return errors
