"""``benchmarks/perf_gate.py``: the same-runner parent-vs-change gate.

Every verdict is checked on synthetic ``perfbench/run.py`` result
lines: a metric worse than its bound fails in either direction, a
``correct: false`` run of the change fails, a larger failed-cell share
fails, and a change inside the bound passes.  A broken parent run is
reported but never fails the gate.  End-to-end tests drive ``main``
over two fake checkouts whose ``perfbench/run.py`` prints a fixed line.
"""

import json
import os
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))
import perf_gate  # noqa: E402

END_TO_END = [
    {"name": "decision_ms.p50", "better": "lower", "bound": 0.25},
    {"name": "intervals_per_s", "better": "higher", "bound": 0.25},
]


def run_line(decision_ms=2.0, intervals_per_s=160.0, correct=True,
             attempted=36, failed=0):
    """One run's last JSON line, as ``perf_gate.run_once`` returns it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "decision_ms.p50": {"value": decision_ms, "unit": "ms"},
            "intervals_per_s": {"value": intervals_per_s, "unit": "1/s"},
        },
        "returncode": 0,
    }


def verdict(parent, change):
    _lines, failures = perf_gate.evaluate(
        END_TO_END, "paper-carol", parent, change
    )
    return failures


class TestEvaluate:
    def test_unchanged_runs_pass(self):
        runs = [run_line(), run_line(decision_ms=2.1), run_line(1.9)]
        assert verdict(runs, runs) == []

    def test_twenty_percent_worse_passes_at_bound_quarter(self):
        parent = [run_line()] * 3
        change = [run_line(decision_ms=2.4, intervals_per_s=128.0)] * 3
        assert verdict(parent, change) == []

    def test_lower_is_better_metric_thirty_percent_worse_fails(self):
        parent = [run_line()] * 3
        change = [run_line(decision_ms=2.6)] * 3
        failures = verdict(parent, change)
        assert len(failures) == 1
        assert "decision_ms.p50" in failures[0]

    def test_higher_is_better_metric_thirty_percent_lower_fails(self):
        parent = [run_line()] * 3
        change = [run_line(intervals_per_s=112.0)] * 3
        failures = verdict(parent, change)
        assert len(failures) == 1
        assert "intervals_per_s" in failures[0]

    def test_improvements_never_fail(self):
        parent = [run_line()] * 3
        change = [run_line(decision_ms=0.5, intervals_per_s=900.0)] * 3
        assert verdict(parent, change) == []

    def test_medians_not_means_are_compared(self):
        # One slow outlier run on the change side does not move the
        # median, so it cannot fail the gate on its own.
        parent = [run_line()] * 3
        change = [run_line(), run_line(decision_ms=20.0), run_line()]
        assert verdict(parent, change) == []

    def test_incorrect_run_fails(self):
        parent = [run_line()] * 3
        change = [run_line(), run_line(correct=False), run_line()]
        failures = verdict(parent, change)
        assert failures == ["paper-carol: change run 2 reported correct: false"]

    def test_nonzero_exit_fails(self):
        crashed = {"correct": False, "returncode": 1}
        failures = verdict([run_line()] * 3, [run_line(), crashed])
        assert failures == ["paper-carol: change run 2 exited 1"]

    def test_incorrect_parent_run_is_reported_not_gated(self):
        # A change that fixes a wrong parent must be able to pass; the
        # parent's wrong run is left out of its medians.
        parent = [run_line(decision_ms=9.0, correct=False),
                  run_line(), run_line()]
        lines, failures = perf_gate.evaluate(
            END_TO_END, "paper-carol", parent, [run_line()] * 3
        )
        assert failures == []
        assert "parent run 1 reported correct: false; left out" in lines[0]
        decision = next(line for line in lines if "decision_ms.p50" in line)
        assert "parent           2" in decision

    def test_crashed_parent_run_is_reported_not_gated(self):
        parent = [{"correct": False, "returncode": 1}] + [run_line()] * 2
        lines, failures = perf_gate.evaluate(
            END_TO_END, "paper-carol", parent, [run_line()] * 3
        )
        assert failures == []
        assert "parent run 1 exited 1; left out" in lines[0]

    def test_workload_the_parent_cannot_run_is_not_gated(self):
        # argparse in an older perfbench/run.py rejects a new workload
        # name with exit 2 on every run.
        parent = [{"correct": False, "returncode": 2}] * 3
        lines, failures = perf_gate.evaluate(
            END_TO_END, "paper-carol", parent, [run_line(failed=1)] * 3
        )
        assert failures == []
        assert lines[-1].endswith("no parent run measured; not gated")

    def test_change_is_still_gated_when_the_parent_cannot_run(self):
        parent = [{"correct": False, "returncode": 2}] * 3
        change = [run_line(), run_line(correct=False), run_line()]
        assert verdict(parent, change) == [
            "paper-carol: change run 2 reported correct: false"
        ]

    def test_larger_failed_share_fails(self):
        parent = [run_line(failed=1)] * 3
        change = [run_line(failed=2)] * 3
        failures = verdict(parent, change)
        assert len(failures) == 1
        assert "failed share" in failures[0]

    def test_equal_failed_share_passes(self):
        runs = [run_line(failed=1)] * 3
        assert verdict(runs, runs) == []

    def test_metric_missing_from_change_fails(self):
        change = [run_line()]
        del change[0]["metrics"]["intervals_per_s"]
        failures = verdict([run_line()], change)
        assert failures == [
            "paper-carol: intervals_per_s not reported by the change"
        ]

    def test_report_line_carries_medians_change_bound_and_spread(self):
        parent = [run_line(decision_ms=v) for v in (1.8, 2.0, 2.2)]
        change = [run_line(decision_ms=2.2)] * 3
        lines, _failures = perf_gate.evaluate(
            END_TO_END, "paper-carol", parent, change
        )
        line = next(line for line in lines if "decision_ms.p50" in line)
        assert "parent           2" in line
        assert "change         2.2" in line
        assert "+10.0%" in line
        assert "bound  25%" in line
        assert "parent spread       0.4" in line
        assert line.endswith("ok")

    def test_relative_change_of_zero_parent(self):
        assert perf_gate.relative_change(0.0, 0.0) == 0.0
        assert perf_gate.relative_change(0.0, 1.0) == float("inf")


# ----------------------------------------------------------------------
# main() over two fake checkouts
# ----------------------------------------------------------------------
def _fake_checkout(root, decision_ms, workloads=("tiny",)):
    """A checkout whose ``perfbench/run.py`` prints one fixed result.

    Like argparse's ``choices``, it exits 2 on a workload it lacks.
    """
    os.makedirs(root / "perfbench")
    line = run_line(decision_ms=decision_ms)
    del line["returncode"]
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        import sys
        if sys.argv[2] not in {list(workloads)!r}:
            sys.exit(2)
        assert sys.argv[1:] == ["--workload", sys.argv[2], "--seed", "0",
                                "--seconds", "1", "--trace", "0"], sys.argv
        print("# human-readable lines come first")
        print({json.dumps(json.dumps(line))})
    """))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": END_TO_END[:1],
    }))
    return root


@pytest.mark.parametrize("change_ms, status", [(2.2, 0), (2.8, 1)])
def test_main_runs_both_checkouts(tmp_path, monkeypatch, capsys,
                                  change_ms, status):
    parent = _fake_checkout(tmp_path / "parent", decision_ms=2.0)
    change = _fake_checkout(tmp_path / "change", decision_ms=change_ms)
    monkeypatch.setattr(perf_gate, "ROOT", str(change))
    monkeypatch.setattr(perf_gate, "PAIRS", 2)
    assert perf_gate.main(["--parent", str(parent)]) == status
    out = capsys.readouterr().out
    # Pairs alternate which side runs first.
    assert out.index("pair 1/2 parent") < out.index("pair 1/2 change")
    assert out.index("pair 2/2 change") < out.index("pair 2/2 parent")
    assert out.rstrip().endswith("FAIL" if status else "ok")


def test_main_skips_a_workload_the_parent_lacks(tmp_path, monkeypatch,
                                                capsys):
    parent = _fake_checkout(tmp_path / "parent", decision_ms=2.0)
    change = _fake_checkout(tmp_path / "change", decision_ms=2.0,
                            workloads=("tiny", "new"))
    monkeypatch.setattr(perf_gate, "ROOT", str(change))
    monkeypatch.setattr(perf_gate, "PAIRS", 1)
    assert perf_gate.main(["--parent", str(parent)]) == 0
    out = capsys.readouterr().out
    assert "# new pair 1/1 parent: exit 2" in out
    assert "new          no parent run measured; not gated" in out
    assert "tiny         decision_ms.p50" in out
