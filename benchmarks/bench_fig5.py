"""Fig. 5 bench -- comparison with baselines and ablations (§V-C/D).

Runs CAROL, all seven baselines and the four ablations on identical
federation/workload/fault seeds and prints the six panels (absolute
values plus performance relative to CAROL, like the paper's dual axes).

Shape expectations tracked against the paper:
CAROL leads the QoS metrics, its confidence-gated fine-tuning beats the
Always-Fine-Tune ablation and the per-interval tuners on overhead, and
the GAN ablation pays the memory premium.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ABLATION_NAMES,
    BASELINE_NAMES,
    Fig5Config,
    format_results,
    headline_deltas,
    run_fig5,
)
from repro.experiments.report import format_relative_table

from conftest import bench_config

_RESULTS_CACHE = {}


@pytest.fixture(scope="module")
def fig5_results(assets):
    if "results" not in _RESULTS_CACHE:
        config = Fig5Config(
            base=bench_config(n_intervals=40, seed=5),
            include_ablations=True,
        )
        _RESULTS_CACHE["results"] = run_fig5(config, assets=assets)
    return _RESULTS_CACHE["results"]


def _panel(fig5_results, key, label, benchmark=None):
    def extract():
        return {name: result.summary()[key] for name, result in fig5_results.items()}

    values = benchmark(extract) if benchmark is not None else extract()
    print()
    print(format_relative_table(label, values, reference="CAROL"))
    return values


def test_fig5_run_all_models(benchmark, assets):
    """The headline run: every scheme over the same 40 intervals."""
    def run():
        if "results" not in _RESULTS_CACHE:
            config = Fig5Config(
                base=bench_config(n_intervals=40, seed=5),
                include_ablations=True,
            )
            _RESULTS_CACHE["results"] = run_fig5(config, assets=assets)
        return _RESULTS_CACHE["results"]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert set(results) == {"CAROL", *BASELINE_NAMES, *ABLATION_NAMES}
    print()
    print(format_results(results))
    deltas = headline_deltas(results)
    print(
        "\nheadline deltas vs best baseline (paper: energy -16.45%, "
        "SLO -17.01%, overhead -35.62%):"
    )
    for key, value in deltas.items():
        print(f"  {key}: {value:+.1f}%")


def test_fig5a_energy(benchmark, fig5_results):
    values = _panel(fig5_results, "energy_kwh", "Fig. 5(a) energy consumption (kWh)", benchmark)
    baselines = [values[n] for n in BASELINE_NAMES]
    # CAROL at or below the baseline median (paper: CAROL minimum).
    assert values["CAROL"] <= np.median(baselines) * 1.05


def test_fig5b_response_time(benchmark, fig5_results):
    values = _panel(fig5_results, "response_time_s", "Fig. 5(b) response time (s)", benchmark)
    baselines = [values[n] for n in BASELINE_NAMES]
    assert values["CAROL"] <= np.median(baselines) * 1.10


def test_fig5c_slo_violations(benchmark, fig5_results):
    values = _panel(
        fig5_results,
        "slo_violation_rate",
        "Fig. 5(c) SLO violation rate",
        benchmark,
    )
    baselines = [values[n] for n in BASELINE_NAMES]
    assert values["CAROL"] <= np.median(baselines) * 1.10
    for name, value in values.items():
        assert 0.0 <= value <= 1.0


def test_fig5d_decision_time(benchmark, fig5_results):
    values = _panel(fig5_results, "decision_time_s", "Fig. 5(d) decision time (s)", benchmark)
    # Heuristics decide near-instantly; CAROL pays for its tabu search
    # but stays within interactive bounds (paper: ~1.5 s on Pi-class
    # hardware; our numpy/x86 substrate is faster in absolute terms).
    assert values["DYVERSE"] <= values["CAROL"]
    assert values["CAROL"] < 5.0


def test_fig5e_memory(benchmark, fig5_results):
    values = _panel(fig5_results, "memory_percent", "Fig. 5(e) memory consumption (%)", benchmark)
    # The GAN ablation pays the generator premium over the GON (the
    # paper's 5% -> 30% jump), and ELBS's exemplar-storing PNN is the
    # heaviest baseline.
    assert values["CAROL-WithGAN"] > values["CAROL"]
    assert values["ELBS"] > values["DYVERSE"]


def test_fig5f_fine_tune_overhead(benchmark, fig5_results):
    values = _panel(
        fig5_results,
        "fine_tune_overhead_s",
        "Fig. 5(f) fine-tuning overhead (s)",
        benchmark,
    )
    # The parsimony claim: confidence-gated fine-tuning undercuts the
    # Always-Fine-Tune ablation and the per-interval tuners.
    assert values["CAROL"] < values["CAROL-AlwaysFT"]
    per_interval_tuners = [
        values["ELBS"],
        values["FRAS"],
        values["TopoMAD"],
        values["StepGAN"],
        values["CAROL-FFSurrogate"],
    ]
    assert values["CAROL"] < np.median(per_interval_tuners)


def test_fig5_ablations(benchmark, fig5_results):
    """The §V-D ablation story in one table."""
    keys = (
        "energy_kwh",
        "slo_violation_rate",
        "fine_tune_overhead_s",
        "memory_percent",
        "decision_time_s",
    )
    benchmark(lambda: [fig5_results[n].summary() for n in ABLATION_NAMES])
    print()
    for key in keys:
        values = {name: fig5_results[name].summary()[key] for name in ("CAROL", *ABLATION_NAMES)}
        print(format_relative_table(f"ablations: {key}", values, reference="CAROL"))
        print()
    # Never-Fine-Tune pays zero overhead by construction.
    never = fig5_results["CAROL-NeverFT"].summary()["fine_tune_overhead_s"]
    always = fig5_results["CAROL-AlwaysFT"].summary()["fine_tune_overhead_s"]
    assert never < always
