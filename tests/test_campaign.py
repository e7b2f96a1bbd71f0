"""Campaign runner: seed derivation, parallel == serial, aggregation."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.experiments import (
    CampaignConfig,
    DETERMINISTIC_METRICS,
    canonical_model_name,
    ci_campaign_config,
    plan_tasks,
    run_campaign,
)


def small_config(workers: int = 1, **overrides) -> CampaignConfig:
    """Heuristic-model grid: no offline training, seconds to run."""
    defaults = dict(
        scenarios=("paper-default", "fault-free"),
        models=("dyverse",),
        n_seeds=2,
        workers=workers,
        seed=3,
        n_intervals=4,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestPlanning:
    def test_grid_shape(self):
        tasks = plan_tasks(small_config())
        assert len(tasks) == 2 * 1 * 2  # scenarios x models x seeds
        assert [t.run_index for t in tasks] == list(range(4))

    def test_model_names_canonicalised(self):
        tasks = plan_tasks(small_config())
        assert {t.model for t in tasks} == {"DYVERSE"}

    def test_seeds_are_independent_spawn_children(self):
        tasks = plan_tasks(small_config())
        seeds = [
            int(t.seed_sequence.generate_state(1, dtype=np.uint32)[0])
            for t in tasks
        ]
        assert len(set(seeds)) == len(seeds)
        # Spawn keys descend from the campaign root, one per cell.
        assert [t.seed_sequence.spawn_key[-1] for t in tasks] == list(range(4))

    def test_plan_is_reproducible(self):
        a = plan_tasks(small_config())
        b = plan_tasks(small_config())
        states_a = [t.seed_sequence.generate_state(2).tolist() for t in a]
        states_b = [t.seed_sequence.generate_state(2).tolist() for t in b]
        assert states_a == states_b

    def test_ci_config_is_small(self):
        config = ci_campaign_config(workers=1)
        assert len(plan_tasks(config)) <= 4
        assert config.n_intervals <= 10

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="no-such-world"):
            plan_tasks(small_config(scenarios=("no-such-world",)))

    def test_unknown_model_fails_fast(self):
        with pytest.raises(ValueError, match="unknown model"):
            plan_tasks(small_config(models=("skynet",)))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            CampaignConfig(scenarios=())
        with pytest.raises(ValueError, match="n_seeds"):
            small_config(n_seeds=0)
        with pytest.raises(ValueError, match="workers"):
            small_config(workers=0)

    def test_canonical_model_name(self):
        assert canonical_model_name("carol") == "CAROL"
        assert canonical_model_name(" Dyverse ") == "DYVERSE"
        assert canonical_model_name("carol-neverft") == "CAROL-NeverFT"
        # The §VI proactive scheme is a first-class campaign model.
        assert canonical_model_name("carol-proactive") == "CAROL-Proactive"
        assert canonical_model_name("proactive") == "CAROL-Proactive"


class TestExecution:
    def test_same_spec_bit_identical(self):
        """Two runs of the same campaign spec agree to the last bit."""
        first = run_campaign(small_config())
        second = run_campaign(small_config())
        assert first.rows() == second.rows()

    def test_parallel_equals_serial(self):
        """Worker count must not leak into results (independent seeds)."""
        serial = run_campaign(small_config(workers=1))
        parallel = run_campaign(small_config(workers=2))
        assert serial.rows() == parallel.rows()

    def test_different_root_seed_changes_results(self):
        a = run_campaign(small_config())
        b = run_campaign(small_config(seed=4))
        assert a.rows() != b.rows()

    def test_records_carry_deterministic_metrics_only(self):
        result = run_campaign(small_config(n_seeds=1))
        for record in result.records:
            assert tuple(record.metrics) == DETERMINISTIC_METRICS
            for value in record.metrics.values():
                assert np.isfinite(value)

    def test_user_registered_scenario_runs_in_parallel_campaign(self):
        """Tasks carry the resolved spec, so workers never need the
        parent's registry (spawn-platform safety for custom scenarios)."""
        from repro.config import FaultConfig
        from repro.scenarios import SCENARIOS, ScenarioSpec, register

        register(ScenarioSpec(
            name="campaign-test-world", description="ephemeral test spec",
            faults=FaultConfig(rate=0.0),
        ), overwrite=True)
        try:
            result = run_campaign(CampaignConfig(
                scenarios=("campaign-test-world",), models=("eclb",),
                n_intervals=2, workers=2,
            ))
            assert [r.scenario for r in result.records] == ["campaign-test-world"]
        finally:
            SCENARIOS.pop("campaign-test-world", None)

    def test_carol_family_runs_with_tiny_assets(self):
        config = CampaignConfig(
            scenarios=("paper-default",),
            models=("carol",),
            n_seeds=1,
            workers=1,
            seed=1,
            n_intervals=3,
            trace_intervals=12,
            gon_hidden=8,
            gon_layers=2,
            gon_epochs=2,
        )
        result = run_campaign(config)
        assert len(result.records) == 1
        assert result.records[0].model == "CAROL"

    def test_asset_preparation_ascends_once_per_minibatch(self, monkeypatch):
        """Offline training runs one eq.-1 ascent per minibatch step and
        scores no test set; campaign assets carry no training history."""
        from repro import telemetry
        from repro.core import training
        from repro.experiments import prepare_campaign_assets

        steps = []
        train_step = training._train_step

        def counted(*args, **kwargs):
            steps.append(1)
            return train_step(*args, **kwargs)

        monkeypatch.setattr(training, "_train_step", counted)
        config = CampaignConfig(
            scenarios=("paper-default",),
            models=("carol",),
            n_seeds=1,
            seed=1,
            trace_intervals=40,
            gon_hidden=8,
            gon_layers=2,
            gon_epochs=3,
            shared_assets=True,
        )
        calls = telemetry.counter("gon.ascent.calls")
        before = calls.value
        assets = prepare_campaign_assets(config)
        assert len(steps) > config.gon_epochs
        assert calls.value - before == len(steps)
        assert assets["paper-default"].training_history is None


class TestAggregation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(small_config())

    def test_rows_shape(self, result):
        rows = result.rows()
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {
                "scenario", "model", "seed_index", "seed",
                *DETERMINISTIC_METRICS,
            }

    def test_aggregate_shape(self, result):
        aggregate = result.aggregate()
        assert set(aggregate) == {
            ("paper-default", "DYVERSE"),
            ("fault-free", "DYVERSE"),
        }
        for stats in aggregate.values():
            assert set(stats) == set(DETERMINISTIC_METRICS)
            for mean, std in stats.values():
                assert np.isfinite(mean) and std >= 0.0

    def test_aggregate_mean_matches_records(self, result):
        aggregate = result.aggregate()
        group = [
            r.metrics["energy_kwh"] for r in result.records
            if r.scenario == "paper-default"
        ]
        mean, _ = aggregate[("paper-default", "DYVERSE")]["energy_kwh"]
        assert mean == pytest.approx(np.mean(group))

    def test_format_summary(self, result):
        table = result.format_summary()
        assert "paper-default" in table and "fault-free" in table
        assert "DYVERSE" in table
        assert "energy" in table


class TestCLI:
    def test_scenarios_list(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-default", "correlated-rack", "flash-crowd",
                     "network-partition", "diurnal-load"):
            assert name in out

    def test_scenarios_show(self, capsys):
        assert cli_main(["scenarios", "show", "flash-crowd"]) == 0
        assert '"surge_multiplier": 4.0' in capsys.readouterr().out

    def test_scenarios_show_requires_name(self, capsys):
        assert cli_main(["scenarios", "show"]) == 2

    def test_campaign_ci_smoke(self, capsys):
        assert cli_main(["campaign", "--ci", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out

    def test_campaign_ci_rejects_grid_flags(self, capsys):
        code = cli_main([
            "campaign", "--ci", "--scenarios", "paper-default",
            "--models", "dyverse", "--seeds", "2", "--seed", "3",
            "--intervals", "12",
        ])
        assert code == 2
        err = capsys.readouterr().err
        for flag in ("--scenarios", "--models", "--seeds", "--seed",
                     "--intervals"):
            assert flag in err
        assert cli_main(["campaign", "--ci", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "--scenarios" not in err

    def test_serve_ci_rejects_grid_flags(self, capsys, monkeypatch):
        import repro.experiments as experiments
        import repro.experiments.fleet as fleet

        def must_not_run(*args, **kwargs):
            raise AssertionError("serve --ci ran despite a grid flag")

        monkeypatch.setattr(experiments, "prepare_campaign_assets", must_not_run)
        monkeypatch.setattr(fleet, "serve_fleet_service", must_not_run)
        assert cli_main(["serve", "--ci", "--seeds", "2"]) == 2
        err = capsys.readouterr().err
        assert "serve --ci" in err and "--seeds" in err

    def test_campaign_requires_scenarios(self, capsys):
        assert cli_main(["campaign"]) == 2

    def test_campaign_unknown_scenario_clean_error(self, capsys):
        assert cli_main(["campaign", "--scenarios", "no-such-world"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "paper-default" in err

    def test_campaign_unknown_model_clean_error(self, capsys):
        code = cli_main(["campaign", "--scenarios", "fault-free",
                         "--models", "skynet"])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_scenarios_show_unknown_clean_error(self, capsys):
        assert cli_main(["scenarios", "show", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_campaign_explicit_grid(self, capsys):
        code = cli_main([
            "campaign", "--scenarios", "fault-free", "--models", "eclb",
            "--seeds", "1", "--intervals", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free" in out and "ECLB" in out

    def test_campaign_record_json(self, capsys, tmp_path):
        """--record-json dumps per-run records with diagnostics (the
        payload CI uploads from the fleet smoke as an artifact)."""
        import json

        target = tmp_path / "records.json"
        code = cli_main([
            "campaign", "--scenarios", "fault-free", "--models", "dyverse",
            "--seeds", "2", "--intervals", "2",
            "--record-json", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["config"]["models"] == ["DYVERSE"]
        assert payload["config"]["mode"] == "process"
        assert len(payload["records"]) == 2
        for record in payload["records"]:
            assert record["scenario"] == "fault-free"
            assert "energy_kwh" in record
            assert isinstance(record["diagnostics"], dict)
