"""Same-runner performance gate: a parent checkout against this one.

Runs every workload that ``BENCHMARK.json`` declares through the
parent's ``perfbench/run.py`` and this checkout's, with ``--seed 0
--trace 0``, alternating which side runs first, and reads each run's
last JSON line.  Both sides run on the same machine, so the verdict
cannot flip with its core count.

Every run lasts ``BENCHMARK.json``'s ``run_seconds``, and each side
runs ``PAIRS`` times per workload.  The gate fails (exit 1) when

* a run of the change exits non-zero or reports ``correct: false``;
* the change fails a larger share of its attempted cells than the
  parent;
* the change's median of an ``end_to_end`` metric is worse than the
  parent's median by more than the metric's ``bound``, relative to the
  parent (``better`` gives the direction).

Only the change is gated on its own runs.  A parent run that exits
non-zero or reports ``correct: false`` is reported and left out of the
parent's medians, so a change that fixes a broken parent can pass; a
workload the parent cannot run at all (for instance one this change
adds to ``BENCHMARK.json``) is not gated, like a metric the parent does
not report.

For each workload and metric it prints both medians, the relative
change, the bound and the spread (max - min) of the parent's runs.
Deliberately stdlib-only, like ``compare_records.py``.

Usage (from the change's checkout)::

    git worktree add ../parent <parent-sha>
    python benchmarks/perf_gate.py --parent ../parent
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Alternating parent/change runs per workload.
PAIRS = 3


def run_once(checkout: str, workload: str, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its last JSON line.

    The exit code rides along as ``returncode``.  Output that does not
    end in a JSON object reads as ``correct: false``.
    """
    command = [
        sys.executable,
        os.path.join(checkout, "perfbench", "run.py"),
        "--workload",
        workload,
        "--seed",
        "0",
        "--seconds",
        f"{seconds:g}",
        "--trace",
        "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    result["returncode"] = proc.returncode
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def relative_change(parent: float, change: float) -> float:
    """``(change - parent) / |parent|``; infinite if only parent is 0."""
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def failed_share(runs: List[dict]) -> float:
    attempted = sum(run.get("attempted", 0) for run in runs)
    failed = sum(run.get("failed", 0) for run in runs)
    return failed / attempted if attempted else 0.0


def _values(runs: List[dict], name: str) -> List[float]:
    return [float(run["metrics"][name]["value"]) for run in runs if name in run.get("metrics", {})]


def problem(run: dict) -> str:
    """Why ``run`` cannot be measured, or ``""`` when it can."""
    if run.get("returncode", 0) != 0:
        return f"exited {run['returncode']}"
    if not run.get("correct"):
        return "reported correct: false"
    return ""


def evaluate(
    end_to_end: List[dict], workload: str, parent: List[dict], change: List[dict]
) -> Tuple[List[str], List[str]]:
    """Compare one workload's runs; returns ``(report lines, failures)``."""
    lines, failures = [], []
    for index, run in enumerate(change, 1):
        if problem(run):
            failures.append(f"{workload}: change run {index} {problem(run)}")
    for index, run in enumerate(parent, 1):
        if problem(run):
            lines.append(f"{workload:<12} parent run {index} {problem(run)}; left out")
    parent = [run for run in parent if not problem(run)]
    if not parent:
        lines.append(f"{workload:<12} no parent run measured; not gated")
        return lines, failures
    parent_share, change_share = failed_share(parent), failed_share(change)
    if change_share > parent_share:
        failures.append(f"{workload}: failed share {change_share:.3%} > parent {parent_share:.3%}")

    for metric in end_to_end:
        name, bound = metric["name"], float(metric["bound"])
        parent_values, change_values = _values(parent, name), _values(change, name)
        if not change_values:
            failures.append(f"{workload}: {name} not reported by the change")
            continue
        if not parent_values:
            lines.append(f"{workload:<12} {name:<18} not reported by the parent; not gated")
            continue
        parent_median = statistics.median(parent_values)
        change_median = statistics.median(change_values)
        rel = relative_change(parent_median, change_median)
        worse = rel if metric["better"] == "lower" else -rel
        verdict = "ok"
        if worse > bound:
            verdict = "FAIL"
            failures.append(
                f"{workload}: {name} median {change_median:.6g} is {worse:.1%} worse than "
                f"the parent's {parent_median:.6g} (bound {bound:.0%})"
            )
        lines.append(
            f"{workload:<12} {name:<18} parent {parent_median:>11.6g}  "
            f"change {change_median:>11.6g}  {rel:>+8.1%}  bound {bound:>4.0%}  "
            f"parent spread {max(parent_values) - min(parent_values):>9.4g}  {verdict}"
        )
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        spec = json.load(source)
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    failures = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(checkouts[side], workload, spec["run_seconds"])
                runs[side].append(run)
                print(
                    f"# {workload} pair {pair + 1}/{PAIRS} {side}: exit "
                    f"{run['returncode']}, correct {run.get('correct')}",
                    flush=True,
                )
        lines, found = evaluate(spec["end_to_end"], workload, runs["parent"], runs["change"])
        print("\n".join(lines), flush=True)
        failures.extend(found)

    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
