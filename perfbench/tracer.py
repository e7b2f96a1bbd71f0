"""Outside-in tracing: spans and counts around each layer's public calls.

The benchmark never edits the program.  It replaces each public
function at the *name the caller looks it up through* with a wrapper
that times the call, and restores the original afterwards.  Patching
only the defining module is not enough: ``repro.core.carol`` binds
``neighbours``, ``reassignment_neighbours``, ``random_node_shift`` and
``tabu_search`` by name at import, and ``repro.experiments.calibration``
binds ``train_gon`` and ``collect_defog_trace`` the same way, so each
binding is wrapped where it is used.

Every span records its parent (a per-thread stack), so a layer's self
time is its duration minus the time its wrapped children covered.

Two kinds of wrapper exist:

* the *probe* (always installed) reads the per-interval decision and
  observe times that ``run_experiment`` already measures, and flushes
  this process's data after every cell.  While :attr:`Tracer.calibrating`
  is set it also runs :class:`Calibration` once per interval, outside both
  timed calls, so every interval carries a reading of the machine's
  speed at that moment;
* the *layer spans* (installed only for a traced run).

Fleet workers are forked from the benchmark process and inherit both.
Records carry no timings, so each process appends what it recorded to
``<spool>/<pid>.jsonl`` after every cell (workers leave through
``os._exit``, which runs no exit hooks), and the benchmark process
merges the spool files after each campaign.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Iterations of one per-interval calibration (about 1 ms).
CAL_ITERATIONS = 60


class Calibration:
    """Times a fixed mix of small matrix products, ``tanh`` and a Python
    loop: the kind of work a CAROL decision does, but none of the
    program's code, so no change to the program can move it.  The
    buffers are made once and the loop allocates no arrays, so the
    program's heap cannot slow it either."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.start = rng.standard_normal((8, 24))
        self.weights = rng.standard_normal((24, 24)) * 0.2
        self.hidden = np.empty_like(self.start)
        self.product = np.empty_like(self.start)
        self.values = self.start.ravel().tolist()

    def __call__(self, iterations: int = CAL_ITERATIONS) -> float:
        """Seconds per iteration of the loop, run ``iterations`` times."""
        hidden, product, weights = self.hidden, self.product, self.weights
        total = 0.0
        started = time.perf_counter()
        for _ in range(iterations):
            hidden[...] = self.start
            for _ in range(4):
                np.matmul(hidden, weights, out=product)
                np.tanh(product, out=hidden)
            for value in self.values:
                total += value * 0.5
        return (time.perf_counter() - started) / iterations


#: (owner, attribute, span name).  ``owner`` is a module path or
#: ``"module:Class"``; class attributes are patched only where the
#: class defines them, so inherited methods are wrapped once.
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    # experiments.calibration + simulator.trace: offline asset preparation.
    ("repro.experiments.calibration", "collect_defog_trace", "assets.trace"),
    ("repro.experiments.calibration", "train_gon", "assets.train"),
    ("repro.experiments.calibration", "random_node_shift", "nodeshift.random_shift"),
    # simulator.engine: the four engine calls of one interval.
    ("repro.simulator.engine:EdgeFederation", "begin_interval", "sim.interval"),
    ("repro.simulator.engine:EdgeFederation", "propose_topology", "sim.interval"),
    ("repro.simulator.engine:EdgeFederation", "set_topology", "sim.interval"),
    ("repro.simulator.engine:EdgeFederation", "run_interval", "sim.interval"),
    # core.carol / core.proactive: the model's own glue (cache, objective).
    ("repro.core.carol:CAROL", "repair", "carol.repair"),
    ("repro.core.proactive:ProactiveCAROL", "repair", "carol.repair"),
    ("repro.core.carol:CAROL", "observe", "carol.observe"),
    # core.nodeshift (+ simulator.topology underneath).
    ("repro.core.carol", "neighbours", "nodeshift.neighbours"),
    ("repro.core.proactive", "neighbours", "nodeshift.neighbours"),
    ("repro.core.nodeshift", "neighbours", "nodeshift.neighbours"),
    ("repro.core.carol", "reassignment_neighbours", "nodeshift.reassign"),
    ("repro.core.carol", "random_node_shift", "nodeshift.random_shift"),
    # core.tabu.
    ("repro.core.carol", "tabu_search", "tabu.search"),
    ("repro.core.proactive", "tabu_search", "tabu.search"),
    # core.scoring / core.surrogate: decision-time GON ascents, in
    # process and on the fleet's scoring service.  Training and
    # fine-tuning reach the ascent through ``repro.core.training``,
    # which is left alone: that time belongs to their own spans.
    ("repro.core.scoring", "generate_metrics_batch", "gon.ascent"),
    ("repro.serving.service", "generate_metrics_batch", "gon.ascent"),
    ("repro.serving.service:FleetScorer", "ascent", "client.round_trip"),
    # core.scoring.confidence + core.pot.
    ("repro.core.scoring:LocalScorer", "confidence", "confidence"),
    ("repro.serving.service:FleetScorer", "confidence", "confidence"),
    ("repro.core.pot:PeakOverThreshold", "update", "pot.update"),
    # core.training: online fine-tuning.
    ("repro.core.scoring:LocalScorer", "fine_tune", "fine_tune"),
    ("repro.serving.service:FleetScorer", "fine_tune", "fine_tune"),
    # storage.
    ("repro.storage.memory:MemoryCampaignStore", "put_record", "store.put"),
    ("repro.storage.sqlite:SqliteCampaignStore", "put_record", "store.put"),
)

#: Counts taken from a wrapped call's result, per span name.
_RESULT_COUNTS: Dict[str, Callable[[object], Dict[str, int]]] = {
    "gon.ascent": lambda results: {
        "gon.ascent.elements": len(results),
        "gon.ascent.steps": sum(int(r.n_steps) for r in results),
        "gon.ascent.converged": sum(bool(r.converged) for r in results),
    },
    "tabu.search": lambda result: {"tabu.evaluations": result.n_evaluations},
}

#: The probe's two bindings of the per-cell entry point.
_CELL_BINDINGS = (
    ("repro.experiments.campaign", "run_cell"),
    ("repro.experiments.fleet", "run_cell"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Per-process span/count/sample recorder with a shared spool dir."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self._reset()
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_patches: List[Tuple[object, str, object]] = []
        #: True while layer spans are installed (read by the cell probe).
        self.tracing = False
        #: True while the probe calibrates once per interval.
        self.calibrating = False
        #: The machine-speed reading the end-to-end timings are scaled by.
        self.calibrate = Calibration()

    # -- state ------------------------------------------------------
    def _reset(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: span name -> [count, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: one [decision_s, observe_s, recovered, calibration_s] row per
        #: interval; calibration_s is :class:`Calibration`'s result, or 0.0
        #: when the probe was not calibrating
        self.samples: List[list] = []

    def _own(self) -> None:
        # A forked worker inherits the parent's unflushed data; it
        # must report only what it records itself.
        if os.getpid() != self._pid:
            self._reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        self._own()
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def timed(self, name: str, fn, args, kwargs):
        """Call ``fn`` inside span ``name``; returns its result."""
        self._own()
        stack = self._stack()
        frame = [0.0]  # time covered by wrapped children
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

    # -- patching ---------------------------------------------------
    def _patch(self, owner, attr: str, wrapper, into: list) -> None:
        into.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        on_result = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = self.timed(name, fn, args, kwargs)
            if on_result is not None:
                for key, value in on_result(result).items():
                    self.count(key, value)
            return result

        return wrapped

    def install_probe(self) -> None:
        """Per-interval end-to-end samples plus the per-cell flush."""
        from repro.experiments import campaign

        run_experiment = campaign.run_experiment

        @functools.wraps(run_experiment)
        def probed_run_experiment(*args, **kwargs):
            self._own()
            calibrations = self._local.calibrations = []
            result = run_experiment(*args, **kwargs)
            run = result.metrics
            if not calibrations:
                calibrations = [0.0] * len(run.intervals)
            rows = [
                [decision, observe, bool(m.failure_report and m.failure_report.failed_brokers),
                 calibration]
                for decision, observe, m, calibration in zip(
                    run.decision_times, run.fine_tune_times, run.intervals, calibrations
                )
            ]
            with self._lock:
                self.samples.extend(rows)
            return result

        self._patch(campaign, "run_experiment", probed_run_experiment, self._patches)
        # ``run_experiment`` calls this once per interval, between the
        # timed decision and the timed observe.
        engine = _resolve("repro.simulator.engine:EdgeFederation")
        set_profile = engine.set_management_profile

        @functools.wraps(set_profile)
        def calibrated_set_profile(*args, **kwargs):
            if self.calibrating:
                self._local.calibrations.append(self.calibrate())
            return set_profile(*args, **kwargs)

        self._patch(engine, "set_management_profile", calibrated_set_profile, self._patches)
        for module_name, attr in _CELL_BINDINGS:
            module = importlib.import_module(module_name)
            run_cell = getattr(module, attr)

            def probed_run_cell(*args, _run_cell=run_cell, **kwargs):
                if self.tracing:
                    record = self.timed("campaign.cell", _run_cell, args, kwargs)
                else:
                    record = _run_cell(*args, **kwargs)
                self.flush()
                return record

            self._patch(module, attr, probed_run_cell, self._patches)

    def install_layers(self) -> None:
        """Wrap every :data:`LAYER_SPANS` binding and count topologies."""
        for owner_name, attr, span in LAYER_SPANS:
            owner = _resolve(owner_name)
            if isinstance(owner, type) and attr not in vars(owner):
                raise AttributeError(f"{owner_name} defines no {attr!r}")
            self._patch(
                owner, attr, self._span_wrapper(span, getattr(owner, attr)),
                self._layer_patches,
            )
        topology = _resolve("repro.simulator.topology:Topology")
        init = topology.__init__

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            self.count("topology.constructed")
            init(*args, **kwargs)

        self._patch(topology, "__init__", counted_init, self._layer_patches)
        self.tracing = True

    def uninstall_layers(self) -> None:
        self.tracing = False
        while self._layer_patches:
            owner, attr, original = self._layer_patches.pop()
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        self.uninstall_layers()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spool ------------------------------------------------------
    def flush(self) -> None:
        """Append this process's data to its spool file and clear it."""
        self._own()
        with self._lock:
            payload = {"spans": self.spans, "counts": self.counts, "samples": self.samples}
            self.spans, self.counts, self.samples = {}, {}, []
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as spool:
            spool.write(json.dumps(payload) + "\n")

    def collect(self) -> Dict[str, object]:
        """Merge and remove every spool file (this process's included)."""
        self.flush()
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, int] = {}
        samples: List[list] = []
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as spool:
                for line in spool:
                    part = json.loads(line)
                    for span, (n, total, own) in part["spans"].items():
                        entry = spans.setdefault(span, [0, 0.0, 0.0])
                        entry[0] += n
                        entry[1] += total
                        entry[2] += own
                    for key, value in part["counts"].items():
                        counts[key] = counts.get(key, 0) + value
                    samples.extend(part["samples"])
            os.remove(path)
        return {"spans": spans, "counts": counts, "samples": samples}

