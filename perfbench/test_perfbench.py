"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Asset sizes small enough for a test; the grid shrinks separately.
TINY_ASSETS = dict(trace_intervals=12, gon_hidden=8, gon_epochs=1)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], draws=2, n_intervals=8)


def run_tiny(name: str, trace: bool, tmp_path) -> workloads.Outcome:
    return workloads.measure(
        tiny(name), seed=1, seconds=0, trace=trace, workdir=str(tmp_path), **TINY_ASSETS,
    )


def failed_checks(outcome: workloads.Outcome) -> list:
    return [(name, detail) for name, ok, detail in outcome.checks if not ok]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_measures_every_end_to_end_metric(name, tmp_path):
    outcome = run_tiny(name, trace=False, tmp_path=tmp_path)
    assert outcome.correct, failed_checks(outcome)
    assert outcome.failed == 0 and outcome.attempted >= 1
    assert set(outcome.metrics) == {m for m, _unit, _better in workloads.END_TO_END}
    assert all(metric.value > 0 for metric in outcome.metrics.values())


@pytest.mark.parametrize("name", ["paper-carol", "fleet-tcp"])
def test_traced_run_is_transparent_and_complete(name, tmp_path):
    outcome = run_tiny(name, trace=True, tmp_path=tmp_path)
    assert outcome.correct, failed_checks(outcome)
    assert ("traced records equal untraced records", True, "") in outcome.checks
    assert set(outcome.metrics) == {m for m, _unit, _better in workloads.PER_LAYER}
    assert outcome.metrics["gon.ascent_s"].value > 0
    assert 0 <= outcome.metrics["unattributed_ratio"].value < 1
    if name == "fleet-tcp":
        assert outcome.metrics["service.requests"].value > 0
        assert outcome.metrics["client.round_trip_s"].value > 0


def test_uninstall_restores_every_binding(tmp_path):
    bindings = [(tracer._resolve(owner), attr) for owner, attr, _span in tracer.LAYER_SPANS]
    bindings += [(tracer._resolve(module), attr) for module, attr in tracer._CELL_BINDINGS]
    bindings.append((tracer._resolve("repro.simulator.engine:EdgeFederation"),
                     "set_management_profile"))
    before = [vars(owner)[attr] for owner, attr in bindings]
    t = tracer.Tracer(str(tmp_path))
    t.install_probe()
    t.install_layers()
    assert [vars(owner)[attr] for owner, attr in bindings] != before
    t.uninstall()
    assert [vars(owner)[attr] for owner, attr in bindings] == before


def test_self_time_excludes_wrapped_children(tmp_path):
    t = tracer.Tracer(str(tmp_path))

    def child():
        return t.timed("child", lambda: sum(range(20000)), (), {})

    t.timed("parent", child, (), {})
    parent_n, parent_total, parent_self = t.spans["parent"]
    _n, child_total, _self = t.spans["child"]
    assert parent_n == 1
    assert parent_self == pytest.approx(parent_total - child_total)


def test_benchmark_json_lists_exactly_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        spec = json.load(source)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        workloads.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-carol",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
