"""GON network, eq.-1 surrogate generation and the QoS objective."""

import numpy as np
import pytest

from repro.core import (
    ENERGY_COLUMN,
    GONDiscriminator,
    GONInput,
    N_M_FEATURES,
    N_S_FEATURES,
    QoSObjective,
    SLO_COLUMN,
    from_interval,
    node_features,
)
from repro.core.fastscore import FastGONKernel
from repro.core.surrogate import generate_metrics_batch
from repro.nn import Tensor

from gon_oracle import generate_metrics, predict_qos


def production_ascent(gon, schedule, adjacency, init_metrics=None, **kwargs):
    """One-sample eq.-1 ascent on the production (kernel) path."""
    return generate_metrics_batch(
        FastGONKernel.from_model(gon),
        np.asarray(schedule)[None],
        np.asarray(adjacency)[None],
        init_metrics=None if init_metrics is None else init_metrics[None],
        **kwargs,
    )[0]


@pytest.fixture
def gon(rng):
    return GONDiscriminator(rng, hidden=16, n_layers=2)


def make_sample(rng, n_hosts=6):
    metrics = rng.uniform(0, 1, size=(n_hosts, N_M_FEATURES))
    schedule = rng.uniform(0, 1, size=(n_hosts, N_S_FEATURES))
    adjacency = (rng.random((n_hosts, n_hosts)) > 0.5).astype(float)
    adjacency = np.triu(adjacency, 1)
    adjacency = adjacency + adjacency.T
    return GONInput(metrics, schedule, adjacency)


class TestGONInput:
    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            GONInput(np.zeros((4, 3)), np.zeros((4, N_S_FEATURES)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            GONInput(np.zeros((4, N_M_FEATURES)), np.zeros((3, N_S_FEATURES)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            GONInput(np.zeros((4, N_M_FEATURES)), np.zeros((4, N_S_FEATURES)), np.zeros((4, 5)))

    def test_node_features_is_util_block(self, rng):
        sample = make_sample(rng)
        np.testing.assert_array_equal(
            node_features(sample.metrics), sample.metrics[:, :4]
        )

    def test_from_interval_override_topology(self, federation):
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        record = federation.run_interval()
        sample = from_interval(record)
        assert sample.n_hosts == record.host_metrics.shape[0]
        other = record.topology.reassign(record.topology.workers[0],
                                         sorted(record.topology.brokers)[-1])
        overridden = from_interval(record, topology=other)
        assert not np.array_equal(sample.adjacency, overridden.adjacency)


class TestGONDiscriminator:
    def test_output_in_unit_interval(self, gon, rng):
        for _ in range(10):
            sample = make_sample(rng)
            score = gon.score(sample)
            assert 0.0 <= score <= 1.0

    def test_host_count_agnostic(self, gon, rng):
        for n_hosts in (3, 6, 12):
            sample = make_sample(rng, n_hosts=n_hosts)
            assert 0.0 <= gon.score(sample) <= 1.0

    def test_gradient_wrt_metrics(self, gon, rng):
        sample = make_sample(rng)
        metrics = Tensor(sample.metrics, requires_grad=True)
        out = gon(metrics, sample.schedule, sample.adjacency)
        out.log().backward()
        assert metrics.grad is not None
        assert np.abs(metrics.grad).sum() > 0

    def test_clone_architecture(self, gon, rng):
        clone = gon.clone_architecture(np.random.default_rng(1))
        assert clone.hidden == gon.hidden
        assert clone.n_layers == gon.n_layers
        assert clone.parameter_count() == gon.parameter_count()

    def test_footprint_scales_with_depth(self, rng):
        small = GONDiscriminator(rng, hidden=16, n_layers=1)
        large = GONDiscriminator(rng, hidden=16, n_layers=4)
        assert large.footprint_bytes() > small.footprint_bytes()

    def test_rejects_zero_layers(self, rng):
        with pytest.raises(ValueError):
            GONDiscriminator(rng, n_layers=0)

    def test_state_roundtrip(self, gon, rng):
        sample = make_sample(rng)
        clone = gon.clone_architecture(np.random.default_rng(5))
        clone.load_state_dict(gon.state_dict())
        assert clone.score(sample) == pytest.approx(gon.score(sample))


class TestSurrogateGeneration:
    def test_ascent_increases_confidence(self, gon, rng):
        sample = make_sample(rng)
        before = gon.score(sample)
        result = production_ascent(
            gon, sample.schedule, sample.adjacency,
            init_metrics=sample.metrics, gamma=1e-2, max_steps=30,
        )
        assert result.confidence >= before - 1e-6

    def test_metrics_stay_in_bounds(self, gon, rng):
        sample = make_sample(rng)
        result = production_ascent(
            gon, sample.schedule, sample.adjacency,
            init_metrics=sample.metrics, gamma=0.1, max_steps=20,
        )
        assert np.all(result.metrics >= 0.0)
        assert np.all(result.metrics <= 3.0)

    def test_random_init_requires_rng(self, gon, rng):
        sample = make_sample(rng)
        with pytest.raises(ValueError):
            production_ascent(gon, sample.schedule, sample.adjacency)

    def test_random_init_shape(self, gon, rng):
        sample = make_sample(rng)
        result = production_ascent(
            gon, sample.schedule, sample.adjacency, rng=rng, max_steps=5
        )
        assert result.metrics.shape == sample.metrics.shape

    def test_gamma_validation(self, gon, rng):
        sample = make_sample(rng)
        with pytest.raises(ValueError):
            production_ascent(
                gon, sample.schedule, sample.adjacency,
                init_metrics=sample.metrics, gamma=0.0,
            )

    def test_plain_gradient_mode(self, gon, rng):
        sample = make_sample(rng)
        result = generate_metrics(
            gon, sample.schedule, sample.adjacency,
            init_metrics=sample.metrics, gamma=1e-3, max_steps=5,
            adaptive=False,
        )
        assert result.n_steps >= 1

    def test_steps_bounded(self, gon, rng):
        sample = make_sample(rng)
        result = production_ascent(
            gon, sample.schedule, sample.adjacency,
            init_metrics=sample.metrics, max_steps=7,
        )
        assert result.n_steps <= 7

    def test_predict_qos_returns_objective(self, gon, rng):
        sample = make_sample(rng)
        objective = QoSObjective(0.5, 0.5)
        value, result = predict_qos(gon, sample, objective, max_steps=5)
        assert value == pytest.approx(objective(result.metrics))


class TestQoSObjective:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QoSObjective(0.7, 0.7)
        with pytest.raises(ValueError):
            QoSObjective(1.5, -0.5)

    def test_value_composition(self):
        metrics = np.zeros((3, N_M_FEATURES))
        metrics[:, ENERGY_COLUMN] = 0.4
        metrics[:, SLO_COLUMN] = 0.2
        objective = QoSObjective(0.5, 0.5)
        assert objective(metrics) == pytest.approx(0.5 * 1.2 + 0.5 * 0.6)

    def test_alpha_weighting(self):
        metrics = np.zeros((2, N_M_FEATURES))
        metrics[:, ENERGY_COLUMN] = 1.0
        energy_focused = QoSObjective(0.9, 0.1)
        latency_focused = QoSObjective(0.1, 0.9)
        assert energy_focused(metrics) > latency_focused(metrics)

    def test_components(self):
        metrics = np.zeros((2, N_M_FEATURES))
        metrics[:, ENERGY_COLUMN] = 0.5
        metrics[:, SLO_COLUMN] = 0.25
        q_energy, q_slo = QoSObjective().components(metrics)
        assert q_energy == pytest.approx(1.0)
        assert q_slo == pytest.approx(0.5)

    def test_rejects_vector_input(self):
        with pytest.raises(ValueError):
            QoSObjective()(np.zeros(N_M_FEATURES))
