"""Losses and functional ops."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    kl_gaussian,
    mse_loss,
    relu,
    sigmoid,
    softmax,
    tanh,
)


class TestActivations:
    def test_relu_values(self):
        out = relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_bounds(self):
        out = sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert 0.0 <= out.data[0] < 1e-6
        assert out.data[1] == pytest.approx(0.5)
        assert 1.0 - 1e-6 < out.data[2] <= 1.0

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(tanh(x).data, np.tanh(x))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(rng.normal(size=(4, 5)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            softmax(x).data, softmax(x + 100.0).data, rtol=1e-10
        )

    def test_large_values_stable(self):
        out = softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])


class TestLosses:
    def test_mse_zero_at_target(self):
        x = np.ones((3, 3))
        assert float(mse_loss(Tensor(x), x).data) == 0.0

    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert float(mse_loss(pred, np.array([0.0, 0.0])).data) == pytest.approx(2.5)

    def test_kl_standard_normal_is_zero(self):
        mu = np.zeros((2, 3))
        log_var = np.zeros((2, 3))
        assert float(kl_gaussian(mu, log_var).data) == pytest.approx(0.0)

    def test_kl_positive(self):
        mu = np.ones((2, 3))
        log_var = np.zeros((2, 3))
        assert float(kl_gaussian(mu, log_var).data) > 0.0

    def test_mse_detaches_target(self):
        target = Tensor(np.ones(3), requires_grad=True)
        pred = Tensor(np.zeros(3), requires_grad=True)
        mse_loss(pred, target).backward()
        assert pred.grad is not None
        assert target.grad is None
