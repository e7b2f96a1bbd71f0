"""Fleet-wide telemetry: the observability substrate for the repro.

CAROL's thesis is *acting on measured confidence*; this package makes
the reproduction itself measurable.  It is a dependency-free (stdlib
only) metrics layer threaded through every hot path:

* the simulator interval loop (``sim.interval`` span, task counters),
* GON ascent (``gon.ascent`` span, step/convergence counters,
  batch-size histogram),
* the surrogate score cache and tabu search (hit/miss/eviction and
  iteration/evaluation counters),
* the :class:`~repro.serving.GONScoringService` scorer loop (the
  span that takes already-queued messages, the batch-size histogram,
  overlay install/eviction counters),
* wire framing (frames/bytes sent and received).

The model
---------
A :class:`~repro.telemetry.registry.MetricsRegistry` holds named
counters, gauges, fixed-edge histograms and timing spans.  Each
*process* owns one registry (module attribute, reachable through
:func:`get_registry`); model instances (CAROL, scorers) additionally
keep small private registries that :func:`repro.experiments.campaign.run_cell`
folds into the process registry after every cell.  Workers ship
:meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` dicts to
the campaign parent (results queue) and to the scoring service
(``StatsUpdate`` wire frames), where
:func:`~repro.telemetry.registry.merge_snapshots` -- associative and
commutative -- folds them into the fleet-wide view served by the
``/status`` endpoint and attached to ``--record-json`` payloads.

Wall-clock values live **only** in telemetry.  Records and their
``metrics`` rows never read from a registry, so serial/process/fleet
bit-identity is structurally unaffected.  Telemetry is always on:
there is no switch, and its cost per simulated interval is bounded
by a test.

Module-level helpers (:func:`counter`, :func:`span`, ...) proxy the
process registry so instrumented modules can create handles at import
time with no reference to this package's internals.
"""

from __future__ import annotations

from .registry import (
    DURATION_EDGES_S,
    SIZE_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    merge_snapshots,
)
from .render import render_prometheus_text, render_summary

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus_text",
    "render_summary",
    "DURATION_EDGES_S",
    "SIZE_EDGES",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "span",
    "snapshot",
    "delta",
    "reset",
]

#: The process-wide registry.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str, edges=DURATION_EDGES_S) -> Histogram:
    return _REGISTRY.histogram(name, edges)


def span(name: str) -> Span:
    return _REGISTRY.span(name)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def delta(since: dict) -> dict:
    return _REGISTRY.delta(since)


def reset() -> None:
    _REGISTRY.reset()
