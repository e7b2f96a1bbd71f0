"""Module system, layers, optimisers, init and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    FeedForward,
    Linear,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tensor,
    mse_loss,
    save_state,
)
from repro.nn import init as nn_init


class TestModuleSystem:
    def test_named_parameters_paths(self, rng):
        layer = Linear(3, 2, rng)
        names = [name for name, _ in layer.named_parameters()]
        assert names == ["bias", "weight"]

    def test_nested_module_discovery(self, rng):
        seq = Sequential(Linear(3, 4, rng), ReLU(), Linear(4, 2, rng))
        names = {name for name, _ in seq.named_parameters()}
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names
        assert len(seq.parameters()) == 4

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 3, rng)
        b = Linear(3, 3, np.random.default_rng(99))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_load_state_dict_rejects_missing_key(self, rng):
        layer = Linear(2, 2, rng)
        state = layer.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            layer.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shape(self, rng):
        layer = Linear(2, 2, rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_zero_grad_clears_all(self, rng):
        layer = Linear(2, 2, rng)
        mse_loss(layer(Tensor(np.ones((4, 2)))), np.zeros((4, 2))).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_parameter_count_and_memory(self, rng):
        layer = Linear(10, 5, rng)
        assert layer.parameter_count() == 55
        assert layer.memory_bytes() == 3 * 55 * 8


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 7, rng)
        assert layer(Tensor(np.ones((3, 4)))).shape == (3, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_affine_correct(self, rng):
        layer = Linear(2, 1, rng)
        layer.weight.data = np.array([[2.0], [3.0]])
        layer.bias.data = np.array([1.0])
        out = layer(Tensor(np.array([[1.0, 1.0]])))
        assert out.data.item() == pytest.approx(6.0)


class TestFeedForward:
    def test_depth_one(self, rng):
        net = FeedForward(3, 2, rng, layers=1)
        assert net(Tensor(np.ones(3))).shape == (2,)

    def test_hidden_width(self, rng):
        net = FeedForward(3, 2, rng, hidden=16, layers=3)
        assert net.blocks[0].out_features == 16
        assert net.blocks[1].in_features == 16

    def test_final_sigmoid_bounds(self, rng):
        net = FeedForward(3, 1, rng, layers=2, final_activation="sigmoid")
        out = net(Tensor(np.full(3, 100.0)))
        assert 0.0 <= out.data.item() <= 1.0

    def test_rejects_zero_layers(self, rng):
        with pytest.raises(ValueError):
            FeedForward(3, 2, rng, layers=0)

    def test_unknown_activation(self, rng):
        net = FeedForward(3, 2, rng, layers=2, activation="bogus")
        with pytest.raises(ValueError):
            net(Tensor(np.ones(3)))


class TestActivationsAndDropout:
    def test_sigmoid_layer(self):
        assert Sigmoid()(Tensor(np.zeros(1))).data.item() == pytest.approx(0.5)


class TestOptimisers:
    def _fit(self, optimizer_cls, **kwargs):
        rng = np.random.default_rng(0)
        layer = Linear(1, 1, rng)
        opt = optimizer_cls(layer.parameters(), **kwargs)
        x = rng.normal(size=(32, 1))
        y = 3.0 * x - 1.0
        for _ in range(400):
            opt.zero_grad()
            loss = mse_loss(layer(Tensor(x)), y)
            loss.backward()
            opt.step()
        return float(loss.data)

    def test_adam_converges(self):
        assert self._fit(Adam, lr=0.05, weight_decay=0.0) < 1e-3

    def test_adam_weight_decay_shrinks(self):
        param = Parameter(np.array([10.0]))
        opt = Adam([param], lr=0.1, weight_decay=1.0)
        param.grad = np.array([0.0])
        opt.step()
        assert abs(param.data.item()) < 10.0

    def test_step_skips_gradless_params(self):
        param = Parameter(np.array([1.0]))
        Adam([param]).step()
        assert param.data.item() == 1.0

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([])


class TestInit:
    def test_xavier_uniform_bounds(self, rng):
        w = nn_init.xavier_uniform((100, 100), rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit

    def test_kaiming_nonzero(self, rng):
        w = nn_init.kaiming_uniform((50, 50), rng)
        assert w.std() > 0

    def test_orthogonal_columns(self, rng):
        w = nn_init.orthogonal((8, 8), rng)
        np.testing.assert_allclose(w.T @ w, np.eye(8), atol=1e-8)

    def test_orthogonal_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            nn_init.orthogonal((2, 2, 2), rng)

    def test_zeros(self):
        np.testing.assert_array_equal(nn_init.zeros((3,)), np.zeros(3))


class TestSerialization:
    def test_npz_roundtrip(self, tmp_path, rng):
        layer = Linear(4, 4, rng)
        path = str(tmp_path / "model.npz")
        save_state(layer.state_dict(), path)
        with np.load(path) as loaded:
            np.testing.assert_array_equal(loaded["weight"], layer.weight.data)
            np.testing.assert_array_equal(loaded["bias"], layer.bias.data)
