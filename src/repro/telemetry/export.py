"""Telemetry sinks: JSONL, Chrome trace-event JSON, and summaries.

Three output formats, one source of truth:

* **JSONL** (:func:`write_trace_jsonl`) — one self-describing JSON
  object per line (``type`` = ``manifest`` / ``span`` / ``metric``).
  Greppable, streamable, and schema-checked by
  :func:`validate_trace_jsonl` (CI validates every smoke trace).
* **Chrome trace-event JSON** (:func:`write_chrome_trace`) — loadable
  in ``chrome://tracing`` / Perfetto.  Host spans render as one
  process; the INAX device renders as a second process with **one
  track per PU**, so Fig 9(a)'s setup / active / drain structure is
  literally visible on a timeline.
* **metrics JSON** (:func:`write_metrics_json`) — the registry
  snapshot plus the run manifest.

:func:`summarize_trace` re-derives the Fig 1(b)/9(d) phase table and
the per-PU utilization table from a JSONL file — what the ``repro
trace-summary`` CLI command prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import PHASE_PREFIX, Span, Tracer

__all__ = [
    "write_trace_jsonl",
    "write_chrome_trace",
    "write_metrics_json",
    "read_trace_jsonl",
    "validate_trace_jsonl",
    "validate_record",
    "TraceSummary",
    "summarize_trace",
    "format_trace_summary",
]


# --------------------------------------------------------------- writers
#: metric row naming how many spans the tracer dropped at its cap
SPANS_DROPPED = "telemetry.spans_dropped"


def write_trace_jsonl(
    path: str | Path,
    tracer: Tracer,
    manifest: RunManifest | None = None,
    metrics: MetricsRegistry | None = None,
) -> int:
    """Write a run's telemetry as JSONL; returns the number of rows.

    Row order: manifest (if any), spans oldest-first, metrics.  Every
    row carries a ``type`` discriminator so readers can stream-filter.
    When the tracer hit its ``max_spans`` cap, a final
    ``telemetry.spans_dropped`` counter row records how many of the
    oldest spans the file lacks.
    """
    rows = 0
    with open(path, "w") as handle:
        if manifest is not None:
            handle.write(json.dumps(manifest.to_dict()) + "\n")
            rows += 1
        for item in tracer.spans:
            handle.write(json.dumps(item.to_dict()) + "\n")
            rows += 1
        if metrics is not None:
            for name, state in metrics.snapshot().items():
                row = {"type": "metric", "name": name}
                row.update(state)
                handle.write(json.dumps(row) + "\n")
                rows += 1
        if tracer.dropped:
            dropped = {"type": "metric", "name": SPANS_DROPPED,
                       "kind": "counter", "value": tracer.dropped}
            handle.write(json.dumps(dropped) + "\n")
            rows += 1
    return rows


#: track name -> (pid, process label) for the Chrome trace; host spans
#: and device spans live on separate clocks, hence separate processes
_HOST_PID = 0
_DEVICE_PID = 1


def _chrome_tid(track: str) -> tuple[int, int]:
    """Map a span track to a Chrome (pid, tid)."""
    if track.startswith("pu") and track[2:].isdigit():
        return _DEVICE_PID, int(track[2:]) + 1
    if track == "inax":
        return _DEVICE_PID, 0
    return _HOST_PID, 0


def write_chrome_trace(
    path: str | Path,
    tracer: Tracer,
    manifest: RunManifest | None = None,
) -> int:
    """Write a ``chrome://tracing`` trace-event file; returns #events.

    Timestamps are microseconds.  Device spans were recorded in seconds
    already (cycles / FPGA clock), so both processes share the unit.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _HOST_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "host"},
        }
    ]
    seen_tracks: set[str] = set()
    for item in tracer.spans:
        pid, tid = _chrome_tid(item.track)
        if item.track not in seen_tracks:
            seen_tracks.add(item.track)
            if pid == _DEVICE_PID:
                events.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "name": "process_name",
                        "args": {"name": "inax-device"},
                    }
                )
                events.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "name": "thread_name",
                        "args": {"name": item.track},
                    }
                )
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": item.name,
                "ts": item.start * 1e6,
                "dur": item.duration * 1e6,
                "args": dict(item.attrs),
            }
        )
    payload: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if manifest is not None:
        payload["otherData"] = manifest.to_dict()
    Path(path).write_text(json.dumps(payload))
    return len(events)


def write_metrics_json(
    path: str | Path,
    metrics: MetricsRegistry,
    manifest: RunManifest | None = None,
) -> None:
    """Write the metrics snapshot (plus manifest) as one JSON object."""
    payload: dict[str, Any] = {
        "manifest": manifest.to_dict() if manifest is not None else None,
        "metrics": metrics.snapshot(),
    }
    Path(path).write_text(json.dumps(payload, indent=2))


# --------------------------------------------------------------- readers
def read_trace_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace file into a list of row dicts."""
    rows: list[dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


#: required fields per row type: name -> allowed python types
_SPAN_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "name": str,
    "track": str,
    "start": (int, float),
    "dur": (int, float),
    "span_id": int,
}
_METRIC_KINDS = ("counter", "gauge", "histogram")


def validate_record(row: dict[str, Any]) -> list[str]:
    """Schema-check one JSONL row; returns a list of problems."""
    errors: list[str] = []
    kind = row.get("type")
    if kind == "span":
        for key, types in _SPAN_SCHEMA.items():
            if key not in row:
                errors.append(f"span missing {key!r}")
            elif not isinstance(row[key], types):
                errors.append(f"span field {key!r} has wrong type")
        if isinstance(row.get("start"), (int, float)) and row["start"] < 0:
            errors.append("span start is negative")
        if isinstance(row.get("dur"), (int, float)) and row["dur"] < 0:
            errors.append("span dur is negative")
        if "attrs" in row and not isinstance(row["attrs"], dict):
            errors.append("span attrs must be an object")
    elif kind == "metric":
        if not isinstance(row.get("name"), str):
            errors.append("metric missing name")
        if row.get("kind") not in _METRIC_KINDS:
            errors.append(f"unknown metric kind {row.get('kind')!r}")
        elif row["kind"] == "histogram":
            for key in ("buckets", "counts", "sum", "count"):
                if key not in row:
                    errors.append(f"histogram missing {key!r}")
    elif kind == "manifest":
        for key in ("command", "backend", "python_version"):
            if not isinstance(row.get(key), str):
                errors.append(f"manifest missing {key!r}")
    else:
        errors.append(f"unknown row type {kind!r}")
    return errors


def validate_trace_jsonl(path: str | Path) -> list[str]:
    """Validate a whole JSONL file; returns ``line N: problem`` strings."""
    errors: list[str] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                errors.append(f"line {lineno}: invalid JSON ({error})")
                continue
            for problem in validate_record(row):
                errors.append(f"line {lineno}: {problem}")
    return errors


# --------------------------------------------------------------- summary
@dataclass
class TraceSummary:
    """Everything ``repro trace-summary`` prints, as data."""

    manifest: dict[str, Any] | None = None
    #: phase -> total seconds, from ``phase.*`` host spans
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: per-PU rows: track -> {setup/compute/drain/active cycles, steps}
    pu_cycles: dict[str, dict[str, float]] = field(default_factory=dict)
    span_count: int = 0
    metric_count: int = 0
    #: oldest spans the tracer dropped at its cap; the phase and PU
    #: tables cover only the retained spans
    spans_dropped: int = 0

    def phase_fractions(self) -> dict[str, float]:
        total = sum(self.phase_seconds.values())
        if total <= 0:
            return {k: 0.0 for k in self.phase_seconds}
        return {k: v / total for k, v in self.phase_seconds.items()}

    def pu_utilization(self, track: str) -> float:
        """Per-PU U(PU): (setup + active) / provisioned span, Eq. (1)."""
        row = self.pu_cycles[track]
        provisioned = row["setup"] + row["compute"] + row["drain"]
        if provisioned <= 0:
            return 0.0
        return min((row["setup"] + row["active"]) / provisioned, 1.0)

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form (``repro trace-summary --json``)."""
        return {
            "manifest": dict(self.manifest) if self.manifest else None,
            "phase_seconds": dict(self.phase_seconds),
            "phase_fractions": self.phase_fractions(),
            "pu_cycles": {
                track: dict(row) for track, row in self.pu_cycles.items()
            },
            "pu_utilization": {
                track: self.pu_utilization(track) for track in self.pu_cycles
            },
            "span_count": self.span_count,
            "metric_count": self.metric_count,
            "spans_dropped": self.spans_dropped,
        }


def summarize_trace(
    path_or_rows: str | Path | Iterable[dict[str, Any]],
) -> TraceSummary:
    """Build a :class:`TraceSummary` from a JSONL path or parsed rows."""
    if isinstance(path_or_rows, (str, Path)):
        rows = read_trace_jsonl(path_or_rows)
    else:
        rows = list(path_or_rows)
    summary = TraceSummary()
    for row in rows:
        kind = row.get("type")
        if kind == "manifest" and summary.manifest is None:
            summary.manifest = row
        elif kind == "metric":
            summary.metric_count += 1
            if row.get("name") == SPANS_DROPPED:
                summary.spans_dropped = int(row["value"])
        elif kind == "span":
            summary.span_count += 1
            name = row.get("name", "")
            track = row.get("track", "host")
            if name.startswith(PHASE_PREFIX):
                phase = name[len(PHASE_PREFIX) :]
                summary.phase_seconds[phase] = (
                    summary.phase_seconds.get(phase, 0.0) + row["dur"]
                )
            elif track.startswith("pu"):
                attrs = row.get("attrs", {})
                bucket = {"pu.setup": "setup", "pu.compute": "compute",
                          "pu.drain": "drain"}.get(name)
                if bucket is None:
                    continue
                pu = summary.pu_cycles.setdefault(
                    track,
                    {"setup": 0.0, "compute": 0.0, "drain": 0.0,
                     "active": 0.0, "steps": 0},
                )
                pu[bucket] += attrs.get("cycles", 0)
                if bucket == "compute":
                    pu["active"] += attrs.get("active_cycles", 0)
                    pu["steps"] += attrs.get("steps", 0)
    return summary


def _pu_sort_key(track: str) -> tuple[int, int, str]:
    # numeric tracks first in numeric order, then anything odd lexically
    if track[2:].isdigit():
        return (0, int(track[2:]), "")
    return (1, 0, track)


def format_trace_summary(summary: TraceSummary) -> str:
    """Render the phase + PU tables as plain text."""
    from repro.core.results import format_table

    blocks: list[str] = []
    if summary.manifest is not None:
        m = summary.manifest
        blocks.append(
            f"run: command={m.get('command') or '?'} env={m.get('env') or '?'} "
            f"backend={m.get('backend') or '?'} seed={m.get('seed')} "
            f"workers={m.get('workers')}"
        )
    if summary.spans_dropped:
        blocks.append(
            "warning: the tracer dropped the oldest "
            f"{summary.spans_dropped} spans at its max_spans cap; the "
            "tables below cover only the retained spans"
        )
    fractions = summary.phase_fractions()
    if summary.phase_seconds:
        rows = [
            [phase, f"{seconds:.4f}", f"{fractions[phase] * 100:.1f}%"]
            for phase, seconds in sorted(
                summary.phase_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        blocks.append(
            format_table(
                ["phase", "seconds", "fraction"],
                rows,
                title="host phases (Fig 1(b)/9(d))",
            )
        )
    else:
        blocks.append("no phase spans recorded")
    if summary.pu_cycles:
        rows = []
        for track in sorted(summary.pu_cycles, key=_pu_sort_key):
            pu = summary.pu_cycles[track]
            rows.append(
                [
                    track,
                    f"{pu['setup']:,.0f}",
                    f"{pu['compute']:,.0f}",
                    f"{pu['drain']:,.0f}",
                    f"{pu['steps']:,d}",
                    f"{summary.pu_utilization(track):.3f}",
                ]
            )
        blocks.append(
            format_table(
                ["PU", "setup cyc", "compute cyc", "drain cyc", "steps",
                 "U(PU)"],
                rows,
                title="INAX PU timeline (Fig 9(a))",
            )
        )
    blocks.append(
        f"{summary.span_count} spans, {summary.metric_count} metrics"
    )
    return "\n\n".join(blocks)
