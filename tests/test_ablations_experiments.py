"""Ablated models, the experiment harness and reporting helpers."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import (
    AlwaysFineTune,
    GANSurrogate,
    NeverFineTune,
    TraditionalSurrogate,
    WithGAN,
    WithTraditionalSurrogate,
    summary_features,
)
from repro.core import CAROLConfig
from repro.core.features import GONInput
from repro.core.nodeshift import neighbours, random_node_shift
from repro.core.tabu import tabu_search
from repro.experiments import (
    EDGE_SLOWDOWN,
    TABLE1,
    build_model,
    format_relative_table,
    format_table,
    format_table1,
    run_experiment,
    sparkline,
    table1_rows,
    verify_against_implementation,
)
from repro.experiments.calibration import TrainedAssets
from repro.simulator import EdgeFederation
from repro.simulator.detection import FailureReport


def tiny_carol_config():
    return CAROLConfig(
        surrogate_steps=3, tabu_iterations=1, tabu_patience=1,
        neighbourhood_sample=4, pot_calibration=6, min_buffer=2,
        fine_tune_iterations=1, seed=0,
    )


def _drive(model, config, n=8):
    federation = EdgeFederation(config)
    for _ in range(n):
        report = federation.begin_interval()
        proposal = federation.propose_topology()
        topology = model.repair(federation.view, report, proposal)
        federation.set_topology(topology)
        metrics = federation.run_interval()
        model.observe(metrics, federation.view)
    return federation


def _reference_tabu_repair(report, proposal, omega, rng, config):
    """The surrogate ablations' repair as it stood in their own module,
    kept as the oracle: per failed broker, a tabu search from a random
    node shift over neighbourhoods sampled down to
    ``config.neighbourhood_sample``."""
    def sampled_neighbours(topology):
        options = neighbours(topology)
        limit = config.neighbourhood_sample
        if len(options) > limit:
            chosen = rng.choice(len(options), size=limit, replace=False)
            options = [options[i] for i in chosen]
        return options

    current = proposal
    for _failed in report.failed_brokers:
        start = random_node_shift(current, rng)
        result = tabu_search(
            start,
            objective=omega,
            neighbourhood=sampled_neighbours,
            tabu_size=config.tabu_size,
            max_iterations=config.tabu_iterations,
            patience=config.tabu_patience,
        )
        current = result.best
    return current


def _broker_failure(small_config, n_failed):
    """A federation warmed one interval, its next proposal and a
    synthetic report failing its first ``n_failed`` brokers."""
    federation = EdgeFederation(small_config)
    federation.begin_interval()
    federation.set_topology(federation.propose_topology())
    federation.run_interval()
    report = federation.begin_interval()
    proposal = federation.propose_topology()
    forced = FailureReport(
        interval=report.interval,
        failed_brokers=tuple(sorted(proposal.brokers)[:n_failed]),
        failed_workers=(),
        detection_delay_seconds=1.0,
    )
    return federation.view, forced, proposal


class TestSurrogateAblationRepair:
    """``WithGAN`` and ``WithTraditionalSurrogate`` repair through
    CAROL's :func:`~repro.core.carol.tabu_repair` and pick what their
    own copy of it picked."""

    def _config(self):
        return replace(tiny_carol_config(), tabu_iterations=2)

    @pytest.mark.parametrize("n_failed", [1, 2])
    def test_with_gan_matches_reference(self, rng, small_config, n_failed):
        surrogate = GANSurrogate(small_config.federation.n_hosts, rng, hidden=32)
        model = WithGAN(surrogate, 0.5, 0.5, self._config())
        view, report, proposal = _broker_failure(small_config, n_failed)
        schedule = np.asarray(view.last_metrics.schedule_encoding, dtype=float)

        def omega(candidates, keys, segments):
            return [
                model.objective(
                    surrogate.predict_metrics(schedule, candidate.adjacency())
                )
                for candidate in candidates
            ]

        reference = _reference_tabu_repair(
            report, proposal, omega,
            np.random.default_rng(model.config.seed), model.config,
        )
        chosen = model.repair(view, report, proposal)
        assert chosen.canonical_key() == reference.canonical_key()

    @pytest.mark.parametrize("n_failed", [1, 2])
    def test_with_ff_surrogate_matches_reference(self, rng, small_config, n_failed):
        surrogate = TraditionalSurrogate(rng, hidden=16)
        model = WithTraditionalSurrogate(surrogate, 0.5, 0.5, self._config())
        view, report, proposal = _broker_failure(small_config, n_failed)
        last = view.last_metrics
        metrics = np.asarray(last.host_metrics, dtype=float)
        schedule = np.asarray(last.schedule_encoding, dtype=float)

        def omega(candidates, keys, segments):
            return [
                surrogate.predict(GONInput(metrics, schedule, candidate.adjacency()))
                for candidate in candidates
            ]

        reference = _reference_tabu_repair(
            report, proposal, omega,
            np.random.default_rng(model.config.seed), model.config,
        )
        chosen = model.repair(view, report, proposal)
        assert chosen.canonical_key() == reference.canonical_key()


class TestFineTuneAblations:
    def test_always_fine_tunes_every_interval(self, trained_gon, small_config):
        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        model = AlwaysFineTune(gon, 0.5, 0.5, tiny_carol_config())
        _drive(model, small_config, n=6)
        # After the buffer has >= 2 samples every interval fine-tunes.
        assert sum(model.diagnostics.fine_tuned) >= 4

    def test_never_fine_tunes(self, trained_gon, small_config):
        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        model = NeverFineTune(gon, 0.5, 0.5, tiny_carol_config())
        before = {k: v.copy() for k, v in gon.state_dict().items()}
        _drive(model, small_config, n=6)
        after = gon.state_dict()
        assert not any(model.diagnostics.fine_tuned)
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestGANAblation:
    def test_generator_predicts_fixed_shape(self, rng, session_samples):
        n_hosts = session_samples[0].n_hosts
        surrogate = GANSurrogate(n_hosts, rng, hidden=32)
        sample = session_samples[0]
        predicted = surrogate.predict_metrics(sample.schedule, sample.adjacency)
        assert predicted.shape == sample.metrics.shape
        assert np.all(predicted >= 0)

    def test_gan_memory_larger_than_gon(self, rng, trained_gon, session_samples):
        surrogate = GANSurrogate(session_samples[0].n_hosts, rng)
        assert surrogate.memory_bytes() > trained_gon.footprint_bytes()

    def test_with_gan_runs(self, rng, session_samples, small_config):
        surrogate = GANSurrogate(
            small_config.federation.n_hosts, rng, hidden=32
        )
        surrogate.fit(session_samples[:10], epochs=1)
        model = WithGAN(surrogate, 0.5, 0.5, tiny_carol_config())
        _drive(model, small_config, n=6)
        assert model.memory_bytes() > 0

    def test_with_gan_fine_tunes_once_the_gate_opens(self, rng, small_config):
        surrogate = GANSurrogate(
            small_config.federation.n_hosts, rng, hidden=32
        )
        config = replace(tiny_carol_config(), pot_calibration=5)
        model = WithGAN(surrogate, 0.5, 0.5, config)
        # Five confident intervals calibrate the POT gate; every later
        # one reads zero confidence, which falls below the threshold.
        confidences = iter([0.9, 0.8, 0.85, 0.95, 0.9] + [0.0] * 10)
        surrogate.confidence = lambda sample: next(confidences)
        steps = []
        train_step = surrogate.train_step
        surrogate.train_step = lambda sample: steps.append(train_step(sample))
        _drive(model, small_config, n=8)
        assert len(steps) >= config.min_buffer


class TestTraditionalSurrogateAblation:
    def test_fit_reduces_error(self, rng, session_samples, session_trace):
        surrogate = TraditionalSurrogate(rng, hidden=32)
        objectives = [s.objective for s in session_trace.samples]
        before = np.mean([
            (surrogate.predict(s) - o) ** 2
            for s, o in zip(session_samples, objectives)
        ])
        surrogate.fit(session_samples, objectives, epochs=20, rng=rng)
        after = np.mean([
            (surrogate.predict(s) - o) ** 2
            for s, o in zip(session_samples, objectives)
        ])
        assert after < before

    def test_summary_features_fixed_size(self, session_samples):
        sizes = {summary_features(s).shape for s in session_samples}
        assert len(sizes) == 1

    def test_with_ff_surrogate_runs(self, rng, session_samples, session_trace, small_config):
        surrogate = TraditionalSurrogate(rng, hidden=16)
        objectives = [s.objective for s in session_trace.samples]
        surrogate.fit(session_samples, objectives, epochs=2, rng=rng)
        model = WithTraditionalSurrogate(
            surrogate, 0.5, 0.5, tiny_carol_config(), fine_tune_steps=2
        )
        _drive(model, small_config, n=6)
        assert len(model._buffer) == 6


class TestRunner:
    def test_summary_keys(self, small_config, trained_gon):
        from repro.core import CAROL

        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        model = CAROL(gon, 0.5, 0.5, tiny_carol_config())
        config = replace(small_config, n_intervals=4)
        result = run_experiment(model, config)
        summary = result.summary()
        for key in (
            "energy_kwh", "response_time_s", "slo_violation_rate",
            "decision_time_s", "memory_percent", "fine_tune_overhead_s",
        ):
            assert key in summary
        assert result.model_name == "CAROL"
        assert len(result.metrics.decision_times) == 4
        assert EDGE_SLOWDOWN > 1.0


class TestBuildModel:
    def test_unknown_model_rejected(self, session_trace, session_samples, trained_gon, small_config):
        assets = TrainedAssets(
            trace=session_trace,
            samples=session_samples,
            objectives=[s.objective for s in session_trace.samples],
            gon_state=trained_gon.state_dict(),
            gon_hidden=trained_gon.hidden,
            gon_layers=trained_gon.n_layers,
            training_history=None,
        )
        with pytest.raises(ValueError):
            build_model("bogus", assets, small_config)

    @pytest.mark.parametrize("name", ["CAROL", "DYVERSE", "ECLB", "LBOS",
                                      "ELBS", "FRAS", "TopoMAD", "StepGAN"])
    def test_factory_builds_each(self, name, session_trace, session_samples,
                                 trained_gon, small_config):
        assets = TrainedAssets(
            trace=session_trace,
            samples=session_samples,
            objectives=[s.objective for s in session_trace.samples],
            gon_state=trained_gon.state_dict(),
            gon_hidden=trained_gon.hidden,
            gon_layers=trained_gon.n_layers,
            training_history=None,
        )
        model = build_model(name, assets, small_config)
        assert model.name == name


class TestTable1:
    def test_eleven_rows(self):
        assert len(TABLE1) == 11
        assert table1_rows()[-1][0] == "CAROL"

    def test_carol_row_has_all_capabilities(self):
        carol = TABLE1[-1]
        assert carol.iot and carol.broker_resilience and carol.qos_prediction
        assert carol.energy and carol.response_time and carol.slo_violations
        assert carol.overheads and carol.memory

    def test_only_carol_reports_memory(self):
        assert [row.work for row in TABLE1 if row.memory] == ["CAROL"]

    def test_formatting_contains_all_works(self):
        rendered = format_table1()
        for row in TABLE1:
            assert row.work in rendered

    def test_consistency_with_implementation(self):
        consistency = verify_against_implementation()
        assert all(consistency.values())


class TestReporting:
    def test_format_table_aligns(self):
        rendered = format_table(("a", "bb"), [(1, 2.5), (3, 4.0)])
        lines = rendered.splitlines()
        assert len(lines) == 4

    def test_relative_table_has_reference(self):
        rendered = format_relative_table(
            "metric", {"CAROL": 1.0, "X": 2.0}, reference="CAROL"
        )
        assert "2x" in rendered or "2.000x" in rendered
        with pytest.raises(KeyError):
            format_relative_table("m", {"X": 1.0}, reference="CAROL")

    def test_sparkline_length_and_charset(self):
        line = sparkline(list(np.sin(np.linspace(0, 6, 200))), width=40)
        assert 0 < len(line) <= 40
        assert set(line) <= set("▁▂▃▄▅▆▇█")

    def test_sparkline_flat_series(self):
        assert set(sparkline([1.0, 1.0, 1.0])) == {"▁"}

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
