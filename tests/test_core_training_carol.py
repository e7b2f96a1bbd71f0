"""Algorithm-1 training, fine-tuning and the CAROL loop (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import (
    CAROL,
    CAROLConfig,
    GONDiscriminator,
    GONInput,
    TrainingConfig,
    evaluate,
    fine_tune,
    train_gon,
)
from repro.nn import EarlyStopping
from repro.experiments import run_experiment


class TestTrainingConfigAndHistory:
    def test_training_improves_loss(self, session_samples):
        model = GONDiscriminator(np.random.default_rng(1), hidden=16, n_layers=2)
        config = TrainingConfig(
            epochs=4, batch_size=8, learning_rate=2e-3,
            generation_steps=8, seed=1,
        )
        history = train_gon(model, session_samples, config)
        assert history.losses[-1] < history.losses[0]
        assert len(history.losses) == history.stopped_epoch
        assert history.wall_seconds > 0

    def test_confidence_rises(self, session_samples):
        model = GONDiscriminator(np.random.default_rng(2), hidden=16, n_layers=2)
        config = TrainingConfig(
            epochs=5, batch_size=8, learning_rate=2e-3,
            generation_steps=8, seed=2,
        )
        history = train_gon(model, session_samples, config)
        assert history.confidences[-1] > history.confidences[0]

    def test_history_rows(self, trained_gon, session_samples):
        config = TrainingConfig(epochs=2, batch_size=8, generation_steps=5)
        model = GONDiscriminator(np.random.default_rng(3), hidden=8, n_layers=1)
        history = train_gon(model, session_samples, config)
        rows = history.rows()
        assert rows[0][0] == 1
        assert len(rows) == len(history.losses)

    def test_train_requires_samples(self):
        model = GONDiscriminator(np.random.default_rng(0), hidden=8, n_layers=1)
        with pytest.raises(ValueError):
            train_gon(model, [])

    def test_early_stopping_honoured(self, session_samples):
        model = GONDiscriminator(np.random.default_rng(4), hidden=8, n_layers=1)
        config = TrainingConfig(
            epochs=50, batch_size=8, learning_rate=0.0,
            generation_steps=2, early_stopping_patience=2,
        )
        history = train_gon(model, session_samples, config)
        # Zero learning rate -> no systematic improvement -> early stop
        # long before the 50-epoch budget (generation noise can reset
        # patience a few times, so the bound is loose).
        assert history.stopped_epoch < 30

    def test_early_stopping_unit(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0, 1)
        assert not stopper.update(1.0, 2)
        assert stopper.update(1.0, 3)
        assert stopper.best_epoch == 1


class TestEvaluateAndFineTune:
    def test_evaluate_returns_mse_and_confidence(self, trained_gon, session_samples):
        mse, confidence = evaluate(trained_gon, session_samples[:5], steps=5)
        assert mse >= 0
        assert 0 <= confidence <= 1

    def test_evaluate_requires_samples(self, trained_gon):
        with pytest.raises(ValueError):
            evaluate(trained_gon, [])

    def test_fine_tune_changes_parameters(self, session_samples):
        model = GONDiscriminator(np.random.default_rng(5), hidden=8, n_layers=1)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        fine_tune(
            model, session_samples[:8],
            config=TrainingConfig(generation_steps=4, learning_rate=1e-3),
            iterations=1,
        )
        after = model.state_dict()
        assert any(
            not np.allclose(before[key], after[key]) for key in before
        )

    def test_fine_tune_empty_buffer_rejected(self, trained_gon):
        with pytest.raises(ValueError):
            fine_tune(trained_gon, [])


class TestCAROL:
    @pytest.fixture
    def carol(self, trained_gon):
        # Small search bounds keep the test fast; behaviour identical.
        config = CAROLConfig(
            surrogate_steps=4, tabu_iterations=2, tabu_patience=1,
            neighbourhood_sample=8, pot_calibration=6, min_buffer=3,
            seed=0,
        )
        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        return CAROL(gon, 0.5, 0.5, config)

    def test_full_run_produces_diagnostics(self, carol, small_config):
        result = run_experiment(carol, small_config)
        diag = carol.diagnostics
        assert len(diag.confidences) == small_config.n_intervals
        assert len(diag.thresholds) == small_config.n_intervals
        assert all(0 <= c <= 1 for c in diag.confidences)
        summary = result.summary()
        assert summary["energy_kwh"] > 0

    def test_repair_keeps_live_hosts_attached(self, carol, small_config):
        from repro.simulator import EdgeFederation

        federation = EdgeFederation(small_config)
        for _ in range(15):
            report = federation.begin_interval()
            proposal = federation.propose_topology()
            topology = carol.repair(federation.view, report, proposal)
            live = {h.host_id for h in federation.hosts if h.alive}
            assert live <= topology.attached
            federation.set_topology(topology)
            metrics = federation.run_interval()
            carol.observe(metrics, federation.view)

    def test_no_failure_no_maintenance_returns_proposal(self, trained_gon, small_config):
        from repro.simulator import EdgeFederation

        config = CAROLConfig(maintenance_candidates=0, seed=0)
        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        strict = CAROL(gon, 0.5, 0.5, config)
        federation = EdgeFederation(small_config)
        # Warm-up interval so last_metrics exists.
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        metrics = federation.run_interval()
        strict.observe(metrics, federation.view)
        report = federation.begin_interval()
        proposal = federation.propose_topology()
        if not report.failed_brokers:
            assert strict.repair(federation.view, report, proposal) == proposal

    def test_maintenance_picks_incumbent_or_better(self, carol, small_config):
        """Per-interval maintenance never adopts a topology the
        surrogate scores worse than the engine's proposal."""
        from repro.core.features import GONInput

        from gon_oracle import predict_qos
        from repro.simulator import EdgeFederation

        federation = EdgeFederation(small_config)
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        metrics = federation.run_interval()
        carol.observe(metrics, federation.view)
        report = federation.begin_interval()
        proposal = federation.propose_topology()
        if report.failed_brokers:
            return
        chosen = carol.repair(federation.view, report, proposal)
        last = federation.view.last_metrics

        def omega(topology):
            sample = GONInput(
                np.asarray(last.host_metrics, float),
                np.asarray(last.schedule_encoding, float),
                topology.adjacency(),
            )
            score, _ = predict_qos(
                carol.model, sample, carol.objective,
                gamma=carol.config.gamma,
                max_steps=carol.config.surrogate_steps,
            )
            return score

        assert omega(chosen) <= omega(proposal) + 1e-9

    def test_fine_tune_triggers_on_confidence_dip(self, carol, small_config):
        """Force a dip below the POT threshold and observe a fine-tune."""
        from repro.simulator import EdgeFederation

        federation = EdgeFederation(small_config)
        # Warm up POT and the buffer with normal operation.
        for _ in range(8):
            federation.begin_interval()
            federation.set_topology(federation.propose_topology())
            metrics = federation.run_interval()
            carol.observe(metrics, federation.view)
        # Replace the model scoring with a forced low-confidence answer
        # by injecting an out-of-distribution metric matrix.
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        metrics = federation.run_interval()
        metrics.host_metrics[:] = 3.0  # wildly out of distribution
        carol.pot.threshold = 1.0      # guarantee the gate opens
        buffer_before = len(carol.buffer)
        carol.observe(metrics, federation.view)
        if buffer_before >= carol.config.min_buffer:
            assert carol.diagnostics.fine_tuned[-1]
            assert len(carol.buffer) == 0

    def test_memory_accounts_buffer(self, carol, sample_input):
        base = carol.memory_bytes()
        carol.buffer.append(sample_input)
        assert carol.memory_bytes() > base

    def test_buffer_capacity_respected(self, carol, sample_input, small_config):
        for _ in range(carol.config.buffer_capacity + 50):
            carol.buffer.append(sample_input)
            if len(carol.buffer) > carol.config.buffer_capacity:
                carol.buffer.pop(0)
        assert len(carol.buffer) <= carol.config.buffer_capacity
