"""Nestable tracing spans on a monotonic clock.

A :class:`Span` is one timed region — a NEAT phase, a backend's
generation evaluate, an INAX wave, or a single PU's set-up window —
with structured attributes.  Spans nest: the :class:`Tracer` keeps an
active-span stack, so a ``phase.evaluate`` span recorded by the
population loop becomes the parent of the backend and rollout spans
opened inside it, and the exported trace reconstructs the call tree.

Two clocks coexist in one trace:

* **host spans** (track ``"host"``) are timed with
  ``time.perf_counter`` relative to the tracer's epoch;
* **device spans** (tracks ``"pu0"``, ``"pu1"``, ...) are *derived*
  from INAX cycle counts — the device converts cycles to seconds via
  the FPGA clock and records them with :meth:`Tracer.add_span`, so the
  Fig 9(a) setup/active/control structure is literally visible per PU
  in a trace viewer.

The NEAT loop's phases (Fig 1(b)/9(d)) are timed by :func:`phase`,
the one phase timer: one clock read on entry and one on exit, and the
same seconds go to the caller's phase table, the ``phase.<name>`` span
and the ``phase.<name>_seconds`` counter, so the three always agree.

Instrumentation is **off by default**: the module-level :func:`span`
helper checks a single context-local variable and returns a shared
no-op context manager when no tracer is installed, so disabled
telemetry costs one ``None`` check per instrumented region (the guard
benchmark in ``benchmarks/test_telemetry_overhead.py`` keeps this
honest).  The tracer lives in a :class:`~contextvars.ContextVar`, so
concurrent jobs in one process (threads or asyncio tasks) can each
install their own tracer without interfering.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import AbstractContextManager, contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.telemetry.metrics import get_metrics

__all__ = [
    "PHASE_PREFIX",
    "Span",
    "Tracer",
    "get_tracer",
    "phase",
    "set_tracer",
    "span",
]

#: span-name prefix of the NEAT loop's phase spans
PHASE_PREFIX = "phase."


@dataclass
class Span:
    """One finished timed region."""

    name: str
    #: seconds since the tracer's epoch (host) or device reset (PU tracks)
    start: float
    #: seconds
    duration: float
    span_id: int
    parent_id: int | None = None
    #: timeline the span belongs to: ``"host"`` or a device track
    #: (``"inax"``, ``"pu0"``, ``"pu1"``, ...)
    track: str = "host"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> dict[str, Any]:
        """JSONL row for this span (the ``type: "span"`` schema)."""
        row: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "dur": self.duration,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            row["parent_id"] = self.parent_id
        if self.attrs:
            row["attrs"] = self.attrs
        return row


class Tracer:
    """Bounded in-memory recorder of finished spans.

    ``max_spans`` caps memory for long runs: once full, the oldest
    spans drop (counted in :attr:`dropped`) — telemetry must never be
    the thing that OOMs an edge deployment.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._stack: list[int] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        self.dropped = 0

    # ----------------------------------------------------------- recording
    def now(self) -> float:
        """Seconds since the tracer's epoch (the host timeline)."""
        return time.perf_counter() - self._epoch

    @contextmanager
    def span(
        self, name: str, track: str = "host", **attrs: Any
    ) -> Iterator[None]:
        """Time a block as a span; nesting sets the parent linkage."""
        self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0, time.perf_counter() - t0, track, attrs)

    def _open(self) -> None:
        """Push a new span onto the active stack, so spans opened before
        the matching :meth:`_close` become its children."""
        self._stack.append(self._next_id)
        self._next_id += 1

    def _close(
        self,
        name: str,
        t0: float,
        duration: float,
        track: str,
        attrs: dict[str, Any],
    ) -> None:
        """Pop the innermost open span and record it as started at
        ``t0`` (a ``perf_counter`` reading) and lasting ``duration``."""
        span_id = self._stack.pop()
        self._append(
            Span(
                name=name,
                start=t0 - self._epoch,
                duration=duration,
                span_id=span_id,
                parent_id=self._stack[-1] if self._stack else None,
                track=track,
                attrs=attrs,
            )
        )

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        track: str = "host",
        parent_id: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an explicitly-clocked span (e.g. cycles mapped to
        seconds by the INAX device); returns the recorded span."""
        if duration < 0:
            raise ValueError(f"negative duration for {name!r}: {duration}")
        span_id = self._next_id
        self._next_id += 1
        recorded = Span(
            name=name,
            start=start,
            duration=duration,
            span_id=span_id,
            parent_id=parent_id,
            track=track,
            attrs=attrs,
        )
        self._append(recorded)
        return recorded

    def _append(self, item: Span) -> None:
        if len(self._spans) == self.max_spans:
            self.dropped += 1
        self._spans.append(item)

    # -------------------------------------------------------------- views
    @property
    def spans(self) -> list[Span]:
        """Copy of the recorded spans, oldest first."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0


# ----------------------------------------------------------- context-local
#: the installed tracer; ``None`` means telemetry is disabled.  A
#: :class:`~contextvars.ContextVar` rather than a module global so
#: concurrent runs (asyncio tasks, per-job service threads) each see
#: their own tracer: a fresh thread or a copied asyncio context starts
#: from the default and installs its own session without clobbering
#: anyone else's.
_TRACER: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)
#: shared reusable no-op context manager for the disabled fast path
_NULL_SPAN: AbstractContextManager[None] = nullcontext()


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when telemetry is disabled."""
    return _TRACER.get()


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with ``None``) the context's tracer.

    Returns the previously-installed tracer so callers can restore it.
    The installation is scoped to the current execution context: other
    threads and sibling asyncio tasks are unaffected.
    """
    previous = _TRACER.get()
    _TRACER.set(tracer)
    return previous


def span(
    name: str, track: str = "host", **attrs: Any
) -> AbstractContextManager[None]:
    """Module-level span helper with a near-zero disabled fast path.

    ``with span("backend.evaluate", generation=g): ...`` records into the
    installed tracer, or is a shared no-op context manager when none is
    installed.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, track=track, **attrs)


@contextmanager
def phase(table: dict[str, float], name: str, **attrs: Any) -> Iterator[None]:
    """Time a NEAT-loop phase with one pair of clock reads.

    The block's seconds always add to ``table[name]``, also when the
    block raises.  With a tracer installed they are also the duration
    of a ``phase.<name>`` span, opened on entry so the spans inside the
    block are its children; with a registry installed they also add to
    the ``phase.<name>_seconds`` counter.
    """
    tracer = _TRACER.get()
    registry = get_metrics()
    if tracer is not None:
        tracer._open()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds = time.perf_counter() - t0
        table[name] = table.get(name, 0.0) + seconds
        if tracer is not None:
            tracer._close(PHASE_PREFIX + name, t0, seconds, "host", attrs)
        if registry is not None:
            registry.counter(f"{PHASE_PREFIX}{name}_seconds").inc(seconds)
