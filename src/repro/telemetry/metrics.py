"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single store for everything the platform counts —
episode steps, lock-step wave sizes, compile-cache hits/misses, and the
NEAT loop's ``phase.<name>_seconds`` counters, which
:func:`repro.telemetry.spans.phase` feeds from the same clock reads as
the run's phase table and its ``phase.*`` spans.  Phase timing, cache
statistics, and workload histograms all land in one snapshot and one
exported JSON file.

Like the tracer, the registry is off by default: call sites check the
module-level :func:`get_metrics` for ``None`` before touching any
metric, so disabled telemetry costs one global read per site.
"""

from __future__ import annotations

import bisect
import math
from contextvars import ContextVar
from typing import Any, Callable, Sequence, TypeVar, cast

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
]


class Counter:
    """Monotonically-increasing value (counts or accumulated seconds)."""

    __slots__ = ("name", "description", "value")
    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-set value (cache size, best fitness, pool width)."""

    __slots__ = ("name", "description", "value")
    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


#: default bucket ladder: powers of two cover episode lengths and wave
#: sizes from trivial CartPole failures up to BipedalWalker horizons
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets plus overflow)."""

    __slots__ = (
        "name",
        "description",
        "buckets",
        "counts",
        "total",
        "count",
        "min",
        "max",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> None:
        upper = tuple(sorted(float(b) for b in buckets))
        if not upper:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.description = description
        self.buckets = upper
        #: counts[i] = observations <= buckets[i]; counts[-1] = overflow
        self.counts = [0] * (len(upper) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Deterministic bucket-resolution quantile estimate.

        Walks the cumulative counts to the bucket holding the q-th
        observation and returns that bucket's upper bound, clamped to
        the observed ``min``/``max`` (the overflow bucket reports
        ``max``).  Pure integer/float arithmetic over recorded state —
        two identical observation streams always summarize identically.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        # rank of the q-th observation, 1-based (nearest-rank method)
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.buckets):  # overflow bucket
                    return self.max
                bound = self.buckets[index]
                return min(max(bound, self.min), self.max)
        return self.max  # pragma: no cover - count guarantees a hit

    def quantiles(self) -> dict[str, float | None]:
        """The snapshot's tail-latency summary: p50 / p95 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "quantiles": self.quantiles(),
        }


#: any concrete metric class, for the get-or-create accessors
M = TypeVar("M", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named metrics with get-or-create accessors and snapshot/merge."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ---------------------------------------------------------- accessors
    def _get_or_create(self, name: str, factory: Callable[[], M], kind: str) -> M:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        # the kind check above guarantees the stored metric matches the
        # factory's class, which the type system cannot see
        return cast(M, metric)

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, description), "counter"
        )

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, description), "gauge"
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets, description), "histogram"
        )

    # ------------------------------------------------------------- views
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-serializable ``name -> metric state`` mapping."""
        return {
            name: metric.to_dict()
            for name, metric in sorted(self._metrics.items())
        }

    # ------------------------------------------------------------- merge
    def merge_snapshot(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram counts add; gauges take the incoming
        value (last write wins).  This is how ``cpu-fast`` worker shards
        ship their telemetry back to the parent process.
        """
        for name, state in snapshot.items():
            kind = state.get("kind")
            if kind == "counter":
                self.counter(name).inc(state["value"])
            elif kind == "gauge":
                self.gauge(name).set(state["value"])
            elif kind == "histogram":
                hist = self.histogram(name, buckets=state["buckets"])
                if list(hist.buckets) != [float(b) for b in state["buckets"]]:
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                for i, c in enumerate(state["counts"]):
                    hist.counts[i] += c
                hist.total += state["sum"]
                hist.count += state["count"]
                if state["count"]:
                    hist.min = min(hist.min, state["min"])
                    hist.max = max(hist.max, state["max"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")


# ------------------------------------------------------------------ global
#: the installed registry, context-local for the same reason as the
#: tracer: concurrent jobs each install their own without clobbering
#: each other (see :mod:`repro.telemetry.spans`).
_METRICS: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics", default=None
)


def get_metrics() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when telemetry is disabled."""
    return _METRICS.get()


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or clear) the context's registry; returns the previous
    one so callers can restore it."""
    previous = _METRICS.get()
    _METRICS.set(registry)
    return previous
