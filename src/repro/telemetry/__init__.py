"""Unified telemetry: span tracing, metrics, export, run manifests.

The paper's headline results are observability artifacts — the Fig
1(b)/9(d) phase breakdowns, the Eq. (1) PE/PU utilization rates, and
the Fig 9(a) setup/active/control bars.  This package is the single
instrumentation layer those artifacts flow through:

* :mod:`repro.telemetry.spans` — nestable context-manager spans on a
  monotonic clock, recorded into a bounded in-memory tracer, and
  :func:`~repro.telemetry.spans.phase`, the one phase timer: a single
  pair of clock reads feeds the run's phase table, the ``phase.*``
  span and the ``phase.<name>_seconds`` counter;
* :mod:`repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms;
* :mod:`repro.telemetry.export` — JSONL and Chrome trace-event sinks
  and the ``trace-summary`` table builder;
* :mod:`repro.telemetry.manifest` — the run manifest emitted at run
  start.

Everything is **off by default**.  A :class:`TelemetrySession` bundles
one tracer + one registry + one manifest; installing it sets the
context-local variables the instrumentation sites check, and
uninstalling restores whatever was there before — even when sessions
are torn down out of order (an outer session uninstalled while an
inner one is still live leaves the inner session installed).  Disabled
sites cost one context-local ``None`` check, and enabling telemetry
never touches an RNG or a float path — deterministic runs stay
bit-identical either way.  Because the tracer/registry live in
:class:`~contextvars.ContextVar`\\ s, concurrent jobs in one process
(threads, asyncio tasks) each install their own session without
clobbering anyone else's.
"""

from __future__ import annotations

from contextvars import ContextVar
from pathlib import Path

from repro.telemetry.export import (
    format_trace_summary,
    read_trace_jsonl,
    summarize_trace,
    validate_trace_jsonl,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.telemetry.spans import (
    Span,
    Tracer,
    get_tracer,
    phase,
    set_tracer,
    span,
)

__all__ = [
    "Span",
    "Tracer",
    "span",
    "phase",
    "get_tracer",
    "set_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "RunManifest",
    "TelemetrySession",
    "write_trace_jsonl",
    "write_chrome_trace",
    "write_metrics_json",
    "read_trace_jsonl",
    "validate_trace_jsonl",
    "summarize_trace",
    "format_trace_summary",
]


#: installed-session stack for the current execution context, inner
#: sessions last.  Needed to restore correctly on *out-of-order*
#: teardown: uninstalling an outer session while an inner one is live
#: must not re-install the outer session's saved (now stale) state.
_SESSIONS: ContextVar[tuple["TelemetrySession", ...]] = ContextVar(
    "repro_telemetry_sessions", default=()
)


class TelemetrySession:
    """One run's telemetry: tracer + metrics registry + manifest.

    Use as a context manager (or call :meth:`install` / :meth:`uninstall`)
    to route the platform's instrumentation here for the session's
    lifetime, then :meth:`export` the results::

        session = TelemetrySession(manifest=RunManifest.collect(...))
        with session:
            E3("cartpole", backend="inax", telemetry=session).run()
        session.export(trace_path="out.jsonl", metrics_path="m.json")
    """

    def __init__(
        self,
        manifest: RunManifest | None = None,
        max_spans: int = 200_000,
    ) -> None:
        self.tracer = Tracer(max_spans=max_spans)
        self.metrics = MetricsRegistry()
        self.manifest = manifest
        self._previous: tuple[Tracer | None, MetricsRegistry | None] | None = None

    # --------------------------------------------------------- lifecycle
    @property
    def installed(self) -> bool:
        return self._previous is not None

    def install(self) -> "TelemetrySession":
        """Route this context's instrumentation here (idempotent)."""
        if self._previous is None:
            self._previous = (set_tracer(self.tracer), set_metrics(self.metrics))
            _SESSIONS.set(_SESSIONS.get() + (self,))
        return self

    def uninstall(self) -> None:
        """Restore whatever tracer/registry was installed before.

        Handles out-of-order teardown: uninstalling an *outer* session
        while an inner one is still installed must not re-install the
        outer session's saved — now stale — tracer/registry over the
        inner session's.  The installed-session stack tells us where
        this session sits; a mid-stack uninstall just relinks the
        session above it to our saved state and leaves the live
        (innermost) session's installation untouched.
        """
        if self._previous is None:
            return
        stack = list(_SESSIONS.get())
        saved_tracer, saved_metrics = self._previous
        if self in stack:
            index = stack.index(self)
            if index == len(stack) - 1:
                # LIFO teardown: we own the current installation.
                set_tracer(saved_tracer)
                set_metrics(saved_metrics)
            else:
                # Out-of-order: the session installed right after us
                # saved *our* tracer/registry as its restore target;
                # re-point it at ours so the chain skips this session.
                stack[index + 1]._previous = self._previous
            stack.pop(index)
            _SESSIONS.set(tuple(stack))
        else:
            # Installed in a different context (e.g. another thread);
            # best effort: restore only if we are still current there.
            if get_tracer() is self.tracer:
                set_tracer(saved_tracer)
                set_metrics(saved_metrics)
        self._previous = None

    def __enter__(self) -> "TelemetrySession":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------ export
    def export(
        self,
        trace_path: str | Path | None = None,
        chrome_path: str | Path | None = None,
        metrics_path: str | Path | None = None,
    ) -> dict[str, str]:
        """Write the selected sinks; returns ``{sink: path}`` written."""
        written: dict[str, str] = {}
        if trace_path is not None:
            write_trace_jsonl(
                trace_path, self.tracer, manifest=self.manifest,
                metrics=self.metrics,
            )
            written["trace"] = str(trace_path)
        if chrome_path is not None:
            write_chrome_trace(chrome_path, self.tracer, manifest=self.manifest)
            written["chrome"] = str(chrome_path)
        if metrics_path is not None:
            write_metrics_json(metrics_path, self.metrics, manifest=self.manifest)
            written["metrics"] = str(metrics_path)
        return written
