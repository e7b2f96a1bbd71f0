"""The benchmark's workloads, its measurement loop and its output checks.

Every workload drives the public campaign API exactly as a user does:
``prepare_campaign_assets`` (timed as set-up), then ``run_campaign``
with those assets.  All runs use the defaults users get: the exact
scorer backend, the default ``CAROLConfig`` and the ``CampaignConfig``
asset sizes.

How fast a campaign runs depends strongly on its seeds, mostly on the
fault stream of each cell: the cells of one grid differ by about 16% in
compute time, and one 8-cell grid measured 36 to 63 intervals/s across
seeds on the same machine.  A run therefore measures
:attr:`Workload.draws` campaigns ("draws") of several cell seeds each.
Draw ``i`` has campaign seed ``seed * draws + i`` and so its own assets
and fault streams.  The draws of one run form a *round*.  Whole rounds
repeat with the same seeds (reusing the assets) until ``--seconds`` of
campaign time are spent, so every cell weighs the same in the metrics;
each repeat must reproduce its draw's records exactly.

The machine's speed changes too, and fast: on the shared 2-core host
the benchmark was defined on, a fixed loop runs at one of two speeds
about 1.7x apart, switching within milliseconds, with slow spells of
up to a second and a share of slow time that differs from run to run.
The same campaign, rerun in one process, took between 0.6x and 1.7x
its first time.  So :class:`tracer.Calibration`, a fixed loop that shares
no code with the program, runs once per simulated interval (outside
the timed decision and observe) and around every set-up.  Each timing
is divided by its *slowness*: the mean calibration time near it over
:data:`CAL_REFERENCE_S`.  A mean, not a median, because the speed is
bimodal and the program's time grows with the share of slow time.  A
change to the program moves the scaled numbers exactly as it moves the
raw ones.  Per-layer seconds are raw and measured without calibration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.campaign import (
    CampaignConfig,
    CampaignResult,
    plan_tasks,
    prepare_campaign_assets,
    run_campaign,
)

import compare_records  # benchmarks/compare_records.py (put on sys.path by run.py)
from tracer import CAL_ITERATIONS, Tracer

#: Fleet size of ``fleet-tcp`` (never more than the machine's cores).
FLEET_WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Draws of ``fleet-tcp`` also run serially, to check the fleet's records.
TWIN_DRAWS = 2
#: A tail percentile must leave at least this many decisions beyond it.
TAIL_BEYOND = 10
#: :class:`tracer.Calibration`'s typical seconds per iteration on the 2-core
#: machine the benchmark was defined on; end-to-end times are reported
#: at this speed.
CAL_REFERENCE_S = 2e-5
#: Iterations of the calibrations around each set-up (about 50 ms).
SETUP_CAL_ITERATIONS = 3000


@dataclass(frozen=True)
class Workload:
    """``draws`` campaigns of one scenario x models x ``n_seeds`` seeds each."""

    name: str
    why: str
    scenario: str
    models: Tuple[str, ...]
    draws: int
    n_seeds: int
    n_intervals: int
    #: Run through ``mode="fleet"`` over TCP with a sqlite store.
    fleet: bool = False

    @property
    def decisions_per_round(self) -> int:
        return self.draws * len(self.models) * self.n_seeds * self.n_intervals

    def config(self, campaign_seed: int, fleet: Optional[bool] = None,
               store_path: str = "", **overrides) -> CampaignConfig:
        """One draw's campaign; ``fleet=False`` gives the serial twin."""
        grid = dict(
            scenarios=(self.scenario,),
            models=self.models,
            n_seeds=self.n_seeds,
            n_intervals=self.n_intervals,
            seed=campaign_seed,
            shared_assets=True,
        )
        grid.update(overrides)
        if self.fleet if fleet is None else fleet:
            return CampaignConfig(
                **grid, mode="fleet", transport="tcp", workers=FLEET_WORKERS,
                store="sqlite", store_path=store_path,
            )
        return CampaignConfig(**grid)


#: 50 intervals per cell: the POT gate calibrates on 20 observations,
#: so shorter cells never fine-tune.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-carol",
            why="the paper's setup, serial: the POT gate opens and fine-tunes fire; "
            "GON ascent dominates and nodeshift is a small share",
            scenario="paper-default",
            models=("CAROL", "CAROL-Proactive"),
            draws=6,
            n_seeds=3,
            n_intervals=50,
        ),
        Workload(
            name="fleet-tcp",
            why="paper-carol's grid through the TCP fleet with a sqlite store: "
            "adds service, wire, coordinator and store; records must not change",
            scenario="paper-default",
            models=("CAROL", "CAROL-Proactive"),
            draws=6,
            n_seeds=3,
            n_intervals=50,
            fleet=True,
        ),
    )
}

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("intervals_per_s", "1/s", "higher"),
    ("decision_ms.p50", "ms", "lower"),
    ("decision_ms.tail", "ms", "lower"),
    ("recovery_ms.p50", "ms", "lower"),
    ("observe_ms.p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("qos.energy_kwh", "kWh", "lower"),
)

#: (name, unit, better) of every per-layer metric.  Times are seconds
#: per round (per set-up for ``assets.*``); ``*_s`` is self time except
#: for the phase spans ``assets.*`` and ``campaign.cell``, which report
#: their total time.
PER_LAYER = (
    ("assets.trace_s", "s", "lower"),
    ("assets.train_s", "s", "lower"),
    ("fine_tune_s", "s", "lower"),
    ("fine_tunes", "count", "lower"),
    ("fine_tune_ratio", "ratio", "lower"),
    ("sim.interval_s", "s", "lower"),
    ("sim.intervals", "count", "higher"),
    ("nodeshift.neighbours_s", "s", "lower"),
    ("nodeshift.reassign_s", "s", "lower"),
    ("nodeshift.random_shift_s", "s", "lower"),
    ("topology.constructed", "count", "lower"),
    ("tabu.search_s", "s", "lower"),
    ("tabu.searches", "count", "lower"),
    ("tabu.evaluations", "count", "lower"),
    ("gon.ascent_s", "s", "lower"),
    ("gon.ascent.calls", "count", "lower"),
    ("gon.ascent.elements", "count", "lower"),
    ("gon.ascent.steps", "count", "lower"),
    ("gon.ascent.converged", "count", "higher"),
    ("gon.converged_ratio", "ratio", "higher"),
    ("gon.elements_per_call", "count", "higher"),
    ("carol.repair_s", "s", "lower"),
    ("carol.observe_s", "s", "lower"),
    ("carol.cache.hits", "count", "higher"),
    ("carol.cache.lookups", "count", "lower"),
    ("carol.cache_hit_ratio", "ratio", "higher"),
    ("carol.cache.evictions", "count", "lower"),
    ("confidence_s", "s", "lower"),
    ("pot.update_s", "s", "lower"),
    ("service.requests", "count", "lower"),
    ("service.batches", "count", "lower"),
    ("service.requests_per_batch", "ratio", "higher"),
    ("service.dispatch_s", "s", "lower"),
    ("client.round_trip_s", "s", "lower"),
    ("wire.bytes", "B", "lower"),
    ("fleet.leases", "count", "lower"),
    ("fleet.requeued", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.records", "count", "higher"),
    ("campaign.cell_s", "s", "lower"),
    ("unattributed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("qos.response_time_s", "s", "lower"),
    ("qos.slo_violation_rate", "ratio", "lower"),
    ("qos.downtime_s", "s", "lower"),
)

#: Span name -> per-layer metric reporting its self time.
_SELF_TIME = {
    "fine_tune": "fine_tune_s",
    "sim.interval": "sim.interval_s",
    "nodeshift.neighbours": "nodeshift.neighbours_s",
    "nodeshift.reassign": "nodeshift.reassign_s",
    "nodeshift.random_shift": "nodeshift.random_shift_s",
    "tabu.search": "tabu.search_s",
    "gon.ascent": "gon.ascent_s",
    "carol.repair": "carol.repair_s",
    "carol.observe": "carol.observe_s",
    "confidence": "confidence_s",
    "pot.update": "pot.update_s",
    "client.round_trip": "client.round_trip_s",
    "store.put": "store.put_s",
}

#: Record metric -> unit; energy is end-to-end, the rest per-layer.
_QOS = {
    "energy_kwh": "kWh",
    "response_time_s": "s",
    "slo_violation_rate": "ratio",
    "downtime_s": "s",
}


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class Execution:
    """One campaign execution of one draw."""

    draw: int
    #: Seconds of ``run_campaign``, less the time its processes spent in
    #: per-interval calibrations (shared out over the fleet's workers).
    wall: float
    result: CampaignResult
    #: ``compare_records.record_rows`` of the result (decision digests on).
    rows: List[dict]
    #: What the tracer collected during the execution.
    trace: Dict[str, object]


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    #: Measured campaign executions (draws), repeats included.
    executions: int = 0
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    digest: str = ""
    ledger: List[str] = field(default_factory=list)
    #: Mean calibration time of the measured campaigns over
    #: :data:`CAL_REFERENCE_S` (1 = reference).
    slowness: float = 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _name, ok, _detail in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least :data:`TAIL_BEYOND` of ``n`` beyond it."""
    return max(0.0, 100.0 * (1.0 - TAIL_BEYOND / n))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def records_digest(executions: List[Execution]) -> str:
    """Short SHA-256 over one round's record rows, draw by draw."""
    blob = json.dumps([e.rows for e in executions], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _Runner:
    """One benchmark run: set-up, rounds, checks and metric assembly."""

    def __init__(self, workload: Workload, seed: int, workdir: str, overrides: dict) -> None:
        self.workload = workload
        self.workdir = workdir
        self.overrides = overrides
        self.seeds = [seed * workload.draws + i for i in range(workload.draws)]
        spool = os.path.join(workdir, "spool")
        os.makedirs(spool, exist_ok=True)
        self.tracer = Tracer(spool)
        self.outcome = Outcome()
        self.assets: List[dict] = []
        self._files = 0
        self.tracer.calibrate(SETUP_CAL_ITERATIONS)  # warm-up
        self.cells = len(plan_tasks(self.config(0, fleet=False)))

    def _path(self, suffix: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"{self._files}{suffix}")

    def config(self, draw: int, fleet: Optional[bool] = None) -> CampaignConfig:
        return self.workload.config(
            self.seeds[draw], fleet=fleet, store_path=self._path(".db"), **self.overrides
        )

    def execute(self, label: str, draw: int, fleet: Optional[bool] = None) -> Optional[Execution]:
        """Run and check one draw's campaign; None (recorded) if it raised."""
        out = self.outcome
        out.attempted += self.cells
        label = f"{label}, draw {draw}"
        config = self.config(draw, fleet)
        started = time.perf_counter()
        try:
            result = run_campaign(config, prepared_assets=self.assets[draw])
        except Exception:
            traceback.print_exc()
            out.failed += self.cells
            out.check(f"{label}: campaign completes", False, "run_campaign raised")
            self.tracer.collect()
            return None
        wall = time.perf_counter() - started
        trace = self.tracer.collect()
        calibrating = sum(row[3] for row in trace["samples"]) * CAL_ITERATIONS
        wall -= calibrating / (FLEET_WORKERS if config.mode == "fleet" else 1)
        counters = result.telemetry.get("counters", {})
        poisoned = int(counters.get("fleet.cells_poisoned", 0))
        requeued = int(counters.get("fleet.cells_requeued", 0))
        missing = self.cells - len(result.records)
        out.failed += missing + poisoned
        if missing or poisoned or requeued:
            out.check(f"{label}: every cell completes, none poisoned or requeued", False,
                      f"{missing} missing, {poisoned} poisoned, {requeued} requeued")
        if not all(math.isfinite(r.metrics[k]) for r in result.records for k in _QOS):
            out.check(f"{label}: every qos value finite", False)
        path = self._path(".json")
        with open(path, "w") as dump:
            json.dump(result.to_payload(), dump)
        rows = compare_records.record_rows(path, decisions=True)
        return Execution(draw, wall, result, rows, trace)

    def round(self, label: str, fleet: Optional[bool] = None,
              draws: Optional[int] = None) -> Optional[List[Execution]]:
        executions = []
        for draw in range(self.workload.draws if draws is None else draws):
            done = self.execute(label, draw, fleet)
            if done is None:
                return None
            executions.append(done)
        return executions

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = self.outcome
        # -- set-up: one per draw, each scaled by the calibrations on
        # either side of it; the median is setup_s --------------------
        if trace:
            self.tracer.install_layers()
        setup_times = []
        calibrations = [self.tracer.calibrate(SETUP_CAL_ITERATIONS)]
        for draw in range(self.workload.draws):
            started = time.perf_counter()
            self.assets.append(prepare_campaign_assets(self.config(draw, fleet=False)))
            elapsed = time.perf_counter() - started
            calibrations.append(self.tracer.calibrate(SETUP_CAL_ITERATIONS))
            slowness = (calibrations[-2] + calibrations[-1]) / 2 / CAL_REFERENCE_S
            setup_times.append(elapsed / slowness)
        setup_trace = self.tracer.collect()
        self.tracer.uninstall_layers()

        # -- the serial twin of the draws fleet-tcp must reproduce -----
        twin = None
        if self.workload.fleet:
            twin = self.round("serial twin", fleet=False, draws=TWIN_DRAWS)
            if twin is None:
                return out

        # -- measured campaigns ---------------------------------------
        # Whole rounds until ``seconds`` of campaign time are spent, so
        # every cell weighs the same and per-round counts stay exact.
        # A traced run first runs one untraced round (the overhead
        # baseline); an untraced run calibrates once per interval.
        untraced = None
        if trace:
            untraced = self.round("untraced round")
            if untraced is None:
                return out
            self.tracer.install_layers()
        else:
            self.tracer.calibrating = True
        first = self.round("round 1")
        if first is None:
            self.tracer.uninstall_layers()
            self.tracer.calibrating = False
            return out
        executions = list(first)
        spent = sum(e.wall for e in executions) + (sum(e.wall for e in untraced) if trace else 0)
        while spent < seconds:
            more = self.round(f"round {len(executions) // len(first) + 1}")
            if more is None:
                break
            executions.extend(more)
            spent += sum(e.wall for e in more)
        self.tracer.uninstall_layers()
        self.tracer.calibrating = False
        out.executions = len(executions)

        out.digest = records_digest(first)
        out.check("every cell of every campaign completes; none poisoned or requeued; "
                  "every qos value finite", out.correct, f"{out.attempted} cells")
        out.check("every repeat reproduces its draw's first records",
                  all(e.rows == first[e.draw].rows for e in executions))
        if twin is not None:
            out.check(f"fleet-tcp records equal paper-carol's serial records, "
                      f"draws 0-{len(twin) - 1}",
                      [e.rows for e in twin] == [e.rows for e in first[:len(twin)]])
        if untraced is not None:
            out.check("traced records equal untraced records",
                      records_digest(untraced) == out.digest)
        if trace:
            self._layer_metrics(executions, setup_trace, untraced)
        else:
            self._end_to_end(executions, setup_times)
        self._qos(first, trace)
        return out

    # -- metrics ------------------------------------------------------
    def _end_to_end(self, executions: List[Execution], setup_times: List[float]) -> None:
        """End-to-end metrics; times are scaled to the reference speed.

        Each decision and observe time is divided by the slowness of its
        cell (the mean of the cell's per-interval calibrations), and each
        campaign's time by the campaign's slowness.
        """
        samples = [row for e in executions for row in e.trace["samples"]]
        recoveries = sum(1 for row in samples if row[2])
        per_draw = self.workload.decisions_per_round // self.workload.draws
        if not self.outcome.check(
            "one decision sample and calibration per simulated interval, recoveries among them",
            len(samples) == per_draw * len(executions) and recoveries
            and all(row[3] > 0 for row in samples),
            f"{len(samples)} samples, {recoveries} recoveries",
        ):
            return
        # Rows arrive cell by cell (each process flushes after a cell).
        n = self.workload.n_intervals
        scaled = []  # [decision_ms, observe_ms, recovered] at reference speed
        for start in range(0, len(samples), n):
            cell = samples[start:start + n]
            slowness = statistics.fmean(row[3] for row in cell) / CAL_REFERENCE_S
            scaled.extend([row[0] * 1e3 / slowness, row[1] * 1e3 / slowness, row[2]]
                          for row in cell)
        scaled_wall = sum(
            e.wall / (statistics.fmean(row[3] for row in e.trace["samples"]) / CAL_REFERENCE_S)
            for e in executions)
        self.outcome.slowness = statistics.fmean(row[3] for row in samples) / CAL_REFERENCE_S
        decisions = [row[0] for row in scaled]
        recovering = [row[0] for row in scaled if row[2]]
        observes = [row[1] for row in scaled]
        q = tail_percentile(self.workload.decisions_per_round)
        m = self.outcome.metrics
        m["intervals_per_s"] = Metric(
            len(samples) / scaled_wall, "1/s",
            f"{len(samples)} intervals in {len(executions)} campaigns")
        m["setup_s"] = Metric(statistics.median(setup_times), "s",
                              f"median of {len(setup_times)} set-ups")
        m["decision_ms.p50"] = Metric(float(np.median(decisions)), "ms", f"n={len(decisions)}")
        m["decision_ms.tail"] = Metric(float(np.percentile(decisions, q)), "ms",
                                       f"p{q:.4g}, n={len(decisions)}")
        m["recovery_ms.p50"] = Metric(float(np.median(recovering)), "ms",
                                      f"n={len(recovering)}")
        m["observe_ms.p50"] = Metric(float(np.median(observes)), "ms", f"n={len(observes)}")
        m["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", "self + largest reaped child")

    def _qos(self, first: List[Execution], trace: bool) -> None:
        records = [r for e in first for r in e.result.records]
        for key, unit in _QOS.items():
            if (key == "energy_kwh") == trace:
                continue
            value = statistics.fmean(r.metrics[key] for r in records)
            self.outcome.metrics[f"qos.{key}"] = Metric(value, unit,
                                                        f"mean of {len(records)} cells")

    def _layer_metrics(self, executions: List[Execution], setup_trace: dict,
                       untraced: List[Execution]) -> None:
        k = len(executions) // self.workload.draws  # whole traced rounds
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, int] = {}
        telemetry: Dict[str, float] = {}
        for e in executions:
            for name, (n, total, own) in e.trace["spans"].items():
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += own
            for name, value in e.trace["counts"].items():
                counts[name] = counts.get(name, 0) + value
            for name, value in e.result.telemetry.get("counters", {}).items():
                telemetry[name] = telemetry.get(name, 0) + value
            dispatch = e.result.telemetry.get("spans", {}).get("service.dispatch", {})
            telemetry["service.dispatch_s"] = (
                telemetry.get("service.dispatch_s", 0.0) + dispatch.get("total_s", 0.0))
        diagnostics: Dict[str, int] = {}
        for e in executions[: self.workload.draws]:
            for record in e.result.records:
                for name, value in record.diagnostics.items():
                    if not isinstance(value, str):
                        diagnostics[name] = diagnostics.get(name, 0) + value
        intervals = sum(len(e.trace["samples"]) for e in executions) / k

        def span(name: str, own: bool = True) -> float:
            entry = spans.get(name)
            return 0.0 if entry is None else entry[2 if own else 1] / k

        def calls(name: str) -> float:
            entry = spans.get(name)
            return 0.0 if entry is None else entry[0] / k

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def setup_span(name: str) -> float:
            entry = setup_trace["spans"].get(name)
            return 0.0 if entry is None else entry[1] / self.workload.draws

        hits = diagnostics.get("cache_hits", 0)
        lookups = hits + diagnostics.get("cache_misses", 0)
        elements = counts.get("gon.ascent.elements", 0) / k
        converged = counts.get("gon.ascent.converged", 0) / k
        values = {
            "assets.trace_s": setup_span("assets.trace"),
            "assets.train_s": setup_span("assets.train"),
            "fine_tunes": calls("fine_tune"),
            "fine_tune_ratio": ratio(calls("fine_tune"), intervals),
            "sim.intervals": intervals,
            "topology.constructed": counts.get("topology.constructed", 0) / k,
            "tabu.searches": calls("tabu.search"),
            "tabu.evaluations": counts.get("tabu.evaluations", 0) / k,
            "gon.ascent.calls": calls("gon.ascent"),
            "gon.ascent.elements": elements,
            "gon.ascent.steps": counts.get("gon.ascent.steps", 0) / k,
            "gon.ascent.converged": converged,
            "gon.converged_ratio": ratio(converged, elements),
            "gon.elements_per_call": ratio(elements, calls("gon.ascent")),
            "carol.cache.hits": hits,
            "carol.cache.lookups": lookups,
            "carol.cache_hit_ratio": ratio(hits, lookups),
            "carol.cache.evictions": diagnostics.get("cache_evictions", 0),
            "service.requests": telemetry.get("service.requests", 0) / k,
            "service.batches": telemetry.get("service.batches", 0) / k,
            "service.requests_per_batch": ratio(telemetry.get("service.requests", 0),
                                                telemetry.get("service.batches", 0)),
            "service.dispatch_s": telemetry.get("service.dispatch_s", 0.0) / k,
            "wire.bytes": telemetry.get("wire.bytes_sent", 0) / k,
            "fleet.leases": telemetry.get("fleet.leases", 0) / k,
            "fleet.requeued": telemetry.get("fleet.cells_requeued", 0) / k,
            "store.records": calls("store.put"),
            "campaign.cell_s": span("campaign.cell", own=False),
            "unattributed_ratio": ratio(span("campaign.cell"), span("campaign.cell", own=False)),
            "trace.overhead_ratio": ratio(sum(e.wall for e in executions) / k,
                                          sum(e.wall for e in untraced)),
        }
        for span_name, metric in _SELF_TIME.items():
            values[metric] = span(span_name)
        units = {name: unit for name, unit, _better in PER_LAYER}
        self.outcome.metrics.update(
            (name, Metric(float(value), units[name])) for name, value in values.items())
        self.outcome.ledger = _ledger(spans, setup_trace["spans"], k, self.workload.draws)


def _ledger(spans: Dict[str, List[float]], setup_spans: Dict[str, List[float]],
            rounds: int, setups: int) -> List[str]:
    """Per-layer self-time table, largest self time first.

    Campaign rows are per round, with each layer's share of the cells'
    total time; set-up rows are per set-up.
    """
    cell_total = spans.get("campaign.cell", [0, 0.0, 0.0])[1] / rounds
    lines = [f"{'span':<24}{'calls':>10}{'total_s':>11}{'self_s':>11}{'self/cell':>11}"]
    for phase, table, per, shares in (
        ("per set-up", setup_spans, setups, False),
        ("per round", spans, rounds, True),
    ):
        lines.append(f"-- {phase}")
        for name, (n, total, own) in sorted(table.items(), key=lambda item: -item[1][2]):
            share = f"{own / per / cell_total:>10.1%}" if shares and cell_total else ""
            lines.append(f"{name:<24}{n / per:>10.0f}{total / per:>11.4f}{own / per:>11.4f}"
                         f" {share}")
    return lines


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: str, **overrides) -> Outcome:
    """Run ``workload`` for at least ``seconds`` and return what was measured.

    ``overrides`` are extra :class:`CampaignConfig` fields (the tests
    shrink the asset sizes with them).
    """
    runner = _Runner(workload, seed, workdir, overrides)
    runner.tracer.install_probe()
    try:
        return runner.run(seconds, trace)
    finally:
        runner.tracer.uninstall()
