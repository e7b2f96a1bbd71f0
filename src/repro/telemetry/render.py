"""Text renderings of telemetry snapshots.

Two audiences:

* :func:`render_prometheus_text` -- Prometheus exposition format
  (``# HELP`` / ``# TYPE`` metadata, ``le``-labelled histogram
  buckets), the body of the status endpoint's ``/metrics`` route so
  stock scrapers ingest it without a relabelling shim.
* :func:`render_summary` -- a human-oriented table for the ``repro
  telemetry`` CLI subcommand and :mod:`examples.failure_drill`.
"""

from __future__ import annotations

import re
from typing import List

__all__ = ["render_prometheus_text", "render_summary"]

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Dotted registry name -> Prometheus metric name."""
    sanitized = _PROM_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def render_prometheus_text(snap: dict) -> str:
    """Prometheus text exposition (format version 0.0.4) of a snapshot.

    Mapping from the registry's metric families:

    * counters  -> ``counter`` samples with the ``_total`` suffix;
    * gauges    -> ``gauge`` samples;
    * histograms-> ``histogram`` families: cumulative ``_bucket``
      samples labelled ``le="<edge>"`` (plus the mandatory ``+Inf``
      bucket), then ``_sum`` and ``_count``;
    * spans     -> ``summary`` families named ``<name>_seconds``
      carrying ``_sum`` (total seconds) and ``_count`` (timings).

    Dots in registry names become underscores; the ``# HELP`` line
    keeps the original dotted name so the mapping stays recoverable.
    """
    out: List[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        prom = _prom_name(name) + "_total"
        out.append(f"# HELP {prom} repro counter {name}")
        out.append(f"# TYPE {prom} counter")
        out.append(f"{prom} {_fmt(value)}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        prom = _prom_name(name)
        out.append(f"# HELP {prom} repro gauge {name}")
        out.append(f"# TYPE {prom} gauge")
        out.append(f"{prom} {_fmt(value)}")
    for name, h in sorted(snap.get("histograms", {}).items()):
        prom = _prom_name(name)
        out.append(f"# HELP {prom} repro histogram {name}")
        out.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for edge, count in zip(h["edges"], h["counts"]):
            cumulative += count
            out.append(f'{prom}_bucket{{le="{edge:g}"}} {cumulative}')
        out.append(f'{prom}_bucket{{le="+Inf"}} {h["count"]}')
        out.append(f"{prom}_sum {_fmt(h['sum'])}")
        out.append(f"{prom}_count {h['count']}")
    for name, s in sorted(snap.get("spans", {}).items()):
        prom = _prom_name(name) + "_seconds"
        out.append(f"# HELP {prom} repro span {name}")
        out.append(f"# TYPE {prom} summary")
        out.append(f"{prom}_sum {_fmt(s['total_s'])}")
        out.append(f"{prom}_count {s['count']}")
    return "\n".join(out) + "\n" if out else ""


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def render_summary(snap: dict, title: str = "telemetry") -> str:
    """Pretty multi-section summary of one (possibly merged) snapshot."""
    out: List[str] = [f"== {title} =="]
    counters = snap.get("counters", {})
    if counters:
        out.append("-- counters --")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            out.append(f"  {name:<{width}}  {value}")
    gauges = snap.get("gauges", {})
    if gauges:
        out.append("-- gauges --")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            out.append(f"  {name:<{width}}  {_fmt(value)}")
    spans = snap.get("spans", {})
    if spans:
        out.append("-- spans --")
        width = max(len(name) for name in spans)
        for name, s in spans.items():
            if not s["count"]:
                out.append(f"  {name:<{width}}  n=0  (no completed timings)")
                continue
            mean = s["total_s"] / s["count"]
            out.append(
                f"  {name:<{width}}  n={s['count']}"
                f"  total={s['total_s']:.4f}s  mean={mean * 1e3:.3f}ms"
                f"  min={_ms(s['min_s'])}  max={_ms(s['max_s'])}"
            )
    histograms = snap.get("histograms", {})
    if histograms:
        out.append("-- histograms --")
        width = max(len(name) for name in histograms)
        for name, h in histograms.items():
            if not h["count"]:
                out.append(f"  {name:<{width}}  n=0  (no observations)")
                continue
            mean = h["sum"] / h["count"]
            out.append(
                f"  {name:<{width}}  n={h['count']}  mean={mean:.4g}"
                f"  min={_fmt(h['min'])}  max={_fmt(h['max'])}"
            )
            out.append(f"  {'':<{width}}  {_sparkline(h)}")
    return "\n".join(out)


def _ms(value) -> str:
    return "NaN" if value is None else f"{value * 1e3:.3f}ms"


_BARS = " .:-=+*#%@"


def _sparkline(h: dict) -> str:
    peak = max(h["counts"]) or 1
    cells = []
    labels = [f"{edge:g}" for edge in h["edges"]] + ["inf"]
    for label, count in zip(labels, h["counts"]):
        bar = _BARS[min(len(_BARS) - 1, (count * (len(_BARS) - 1)) // peak)]
        cells.append(f"{label}:{bar}")
    return "[" + " ".join(cells) + "]"
