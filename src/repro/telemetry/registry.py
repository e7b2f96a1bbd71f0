"""Low-overhead metrics registry: counters, gauges, histograms, spans.

Design constraints (see :mod:`repro.telemetry` for the full model):

* **Determinism** -- :meth:`MetricsRegistry.snapshot` returns a plain
  dict with *sorted* keys at every level, so two registries that saw
  the same events produce byte-identical JSON.
* **Mergeability** -- :func:`merge_snapshots` is associative and
  commutative, so per-worker snapshots can be folded into one fleet
  view in any order (counters sum, gauges keep the max, histograms
  add bucket-wise, spans combine count/total/min/max).
* **Always on, and cheap** -- every mutator is a plain attribute
  update with no switch to check (``tests/test_telemetry.py`` bounds
  the instrumentation's share of a simulated interval).
* **No wall-clock in records** -- timings live only here; nothing in
  a snapshot ever feeds back into simulation state, so bit-identity
  of campaign records is structurally untouched.

Only stdlib imports: this module must stay importable from every
layer (nn, core, simulator, serving) without cycles.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
    "merge_snapshots",
    "DURATION_EDGES_S",
    "SIZE_EDGES",
]

#: Default bucket edges (seconds) for span-duration histograms.
DURATION_EDGES_S: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: Default bucket edges for size-like histograms (batch sizes etc.).
SIZE_EDGES: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def add(self, n: int) -> None:
        self.value += n


class Gauge:
    """Last-write-wins float metric (merged by max across workers)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram; ``counts[i]`` holds values <= edges[i].

    The final bucket (``counts[-1]``) is the overflow bucket for
    values above the last edge.  Edges are fixed at creation so two
    workers' histograms of the same name always merge bucket-wise.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram {name!r} needs ascending bucket edges")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.edges)
        while lo < hi:  # bisect_right over the edges
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)


class _SpanTimer:
    """One active timing window; records into its span on exit."""

    __slots__ = ("_span", "_start")

    def __init__(self, span: "Span") -> None:
        self._span = span
        self._start = time.perf_counter()

    def __enter__(self) -> "_SpanTimer":
        return self

    def __exit__(self, *exc) -> None:
        self._span._record(time.perf_counter() - self._start)


class Span:
    """Named timing aggregate (count / total / min / max seconds).

    Usable two ways::

        with registry.span("sim.interval").time(): ...   # explicit timer
        @registry.span("sim.interval")                   # decorator
        def hot(): ...

    Timers are independent objects, so spans nest and re-enter safely
    (recursion included).
    """

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None

    def _record(self, elapsed: float) -> None:
        self.count += 1
        self.total_s += elapsed
        self.min_s = elapsed if self.min_s is None else min(self.min_s, elapsed)
        self.max_s = elapsed if self.max_s is None else max(self.max_s, elapsed)

    def time(self) -> _SpanTimer:
        """A context manager timing one window."""
        return _SpanTimer(self)

    # Decorator support: ``@span`` wraps fn in a timer per call.
    def __call__(self, fn):
        import functools

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(time.perf_counter() - start)

        return wrapped


class MetricsRegistry:
    """A family of named metrics with a deterministic snapshot.

    Metric handles are created lazily and cached, so hot paths can
    either keep a module-level handle or call ``registry.counter(n)``
    per event (one dict hit).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, Span] = {}

    # -- handle factories ------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, edges: Sequence[float] = DURATION_EDGES_S
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, edges)
        elif tuple(float(e) for e in edges) != metric.edges:
            raise ValueError(
                f"histogram {name!r} already registered with different edges"
            )
        return metric

    def span(self, name: str) -> Span:
        metric = self._spans.get(name)
        if metric is None:
            metric = self._spans[name] = Span(name)
        return metric

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view with sorted keys at every level.

        Zero-valued metrics are included: a snapshot enumerates what
        was *instrumented*, not just what fired, so merged views stay
        stable as workers progress at different rates.
        """
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
            "spans": {
                name: {
                    "count": s.count,
                    "total_s": s.total_s,
                    "min_s": s.min_s,
                    "max_s": s.max_s,
                }
                for name, s in sorted(self._spans.items())
            },
        }

    def delta(self, since: dict) -> dict:
        """Snapshot of activity since a previous :meth:`snapshot`.

        Counters and histogram counts/sums subtract; gauges report the
        current value; span/histogram min/max report the *overall*
        extremes (extremes are not invertible, documented caveat).
        """
        now = self.snapshot()
        counters = {
            name: value - since.get("counters", {}).get(name, 0)
            for name, value in now["counters"].items()
        }
        histograms = {}
        for name, h in now["histograms"].items():
            prev = since.get("histograms", {}).get(name)
            if prev is None or prev.get("edges") != h["edges"]:
                histograms[name] = h
                continue
            histograms[name] = {
                "edges": h["edges"],
                "counts": [a - b for a, b in zip(h["counts"], prev["counts"])],
                "count": h["count"] - prev["count"],
                "sum": h["sum"] - prev["sum"],
                "min": h["min"],
                "max": h["max"],
            }
        spans = {}
        for name, s in now["spans"].items():
            prev = since.get("spans", {}).get(name)
            if prev is None:
                spans[name] = s
                continue
            spans[name] = {
                "count": s["count"] - prev["count"],
                "total_s": s["total_s"] - prev["total_s"],
                "min_s": s["min_s"],
                "max_s": s["max_s"],
            }
        return {
            "counters": counters,
            "gauges": now["gauges"],
            "histograms": histograms,
            "spans": spans,
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot's values into this registry's live metrics."""
        for name, value in snap.get("counters", {}).items():
            counter = self.counter(name)
            counter.value += int(value)
        for name, value in snap.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = max(gauge.value, float(value))
        for name, h in snap.get("histograms", {}).items():
            metric = self.histogram(name, h["edges"])
            if list(metric.edges) != list(h["edges"]):
                raise ValueError(f"histogram {name!r} edges mismatch in merge")
            metric.counts = [a + b for a, b in zip(metric.counts, h["counts"])]
            metric.count += h["count"]
            metric.sum += h["sum"]
            metric.min = _opt_min(metric.min, h["min"])
            metric.max = _opt_max(metric.max, h["max"])
        for name, s in snap.get("spans", {}).items():
            span = self.span(name)
            span.count += s["count"]
            span.total_s += s["total_s"]
            span.min_s = _opt_min(span.min_s, s["min_s"])
            span.max_s = _opt_max(span.max_s, s["max_s"])

    def reset(self) -> None:
        """Zero every metric in place (handles stay valid)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for h in self._histograms.values():
            h.counts = [0] * (len(h.edges) + 1)
            h.count = 0
            h.sum = 0.0
            h.min = None
            h.max = None
        for s in self._spans.values():
            s.count = 0
            s.total_s = 0.0
            s.min_s = None
            s.max_s = None


def _opt_min(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _opt_max(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def merge_snapshots(*snapshots: Iterable[dict]) -> dict:
    """Merge snapshot dicts into one (associative and commutative).

    Counters sum; gauges keep the max; histograms with matching edges
    add bucket-wise (an edge mismatch is a loud error -- edges are
    fixed at registration exactly so this cannot happen silently);
    spans combine count/total/min/max.  The result has sorted keys at
    every level, like :meth:`MetricsRegistry.snapshot`.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        if snap:
            merged.merge_snapshot(snap)
    return merged.snapshot()
