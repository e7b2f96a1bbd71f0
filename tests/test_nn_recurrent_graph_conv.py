"""LSTM, graph attention and Conv1d layers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv1d,
    GraphAttention,
    GraphEncoder,
    LSTM,
    LSTMCell,
    Tensor,
    adjacency_with_self_loops,
    max_pool1d,
    mse_loss,
)


class TestLSTM:
    def test_cell_shapes_unbatched(self, rng):
        cell = LSTMCell(3, 5, rng)
        h, c = cell(Tensor(np.ones(3)))
        assert h.shape == (5,) and c.shape == (5,)

    def test_cell_shapes_batched(self, rng):
        cell = LSTMCell(3, 5, rng)
        h, c = cell(Tensor(np.ones((7, 3))))
        assert h.shape == (7, 5) and c.shape == (7, 5)

    def test_forget_bias_initialised_to_one(self, rng):
        cell = LSTMCell(2, 4, rng)
        np.testing.assert_array_equal(cell.bias.data[4:8], np.ones(4))

    def test_sequence_output_shape(self, rng):
        lstm = LSTM(3, 6, rng)
        outputs, (h, c) = lstm(Tensor(np.ones((10, 3))))
        assert outputs.shape == (10, 6)
        assert h.shape == (6,)

    def test_state_threads_through_time(self, rng):
        lstm = LSTM(2, 4, rng)
        seq = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        outputs, _ = lstm(seq)
        # Hidden state evolves: consecutive outputs differ.
        assert not np.allclose(outputs.data[0], outputs.data[-1])

    def test_gradient_reaches_input(self, rng):
        lstm = LSTM(2, 4, rng)
        seq = Tensor(np.ones((5, 2)), requires_grad=True)
        outputs, _ = lstm(seq)
        outputs.sum().backward()
        assert seq.grad is not None and np.abs(seq.grad).sum() > 0

    def test_lstm_learns_to_sum(self, rng):
        """Regression check: fit the cumulative mean of a short sequence."""
        lstm = LSTM(1, 8, rng)
        from repro.nn import Linear

        head = Linear(8, 1, rng)
        opt = Adam(lstm.parameters() + head.parameters(), lr=0.02, weight_decay=0)
        data_rng = np.random.default_rng(1)
        losses = []
        for _ in range(150):
            seq = data_rng.uniform(size=(6, 1))
            target = np.array([seq.mean()])
            opt.zero_grad()
            _, (h, _c) = lstm(Tensor(seq))
            loss = mse_loss(head(h), target)
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestGraphAttention:
    def test_output_shape_and_range(self, rng):
        layer = GraphAttention(4, 8, rng)
        adjacency = np.array([[0, 1], [1, 0]], float)
        out = layer(Tensor(np.ones((2, 4))), adjacency)
        assert out.shape == (2, 8)
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_self_loops_added(self):
        adjacency = np.zeros((3, 3))
        looped = adjacency_with_self_loops(adjacency)
        np.testing.assert_array_equal(np.diag(looped), np.ones(3))
        # Original untouched.
        assert adjacency[0, 0] == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            adjacency_with_self_loops(np.zeros((2, 3)))

    def test_isolated_node_gets_own_features_only(self, rng):
        layer = GraphAttention(2, 4, rng)
        features = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        # Node 2 is isolated; nodes 0-1 are connected.
        adjacency = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], float)
        out_with = layer(Tensor(features), adjacency)
        features_changed = features.copy()
        features_changed[0] = [9.0, 9.0]
        out_changed = layer(Tensor(features_changed), adjacency)
        # Changing node 0 must not change isolated node 2's embedding.
        np.testing.assert_allclose(out_with.data[2], out_changed.data[2])
        # But it must change node 1's (its neighbour).
        assert not np.allclose(out_with.data[1], out_changed.data[1])

    def test_mismatched_features_rejected(self, rng):
        layer = GraphAttention(2, 4, rng)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((3, 2))), np.zeros((2, 2)))

    def test_gradient_flows_to_features(self, rng):
        layer = GraphAttention(3, 5, rng)
        features = Tensor(np.ones((4, 3)), requires_grad=True)
        adjacency = np.ones((4, 4)) - np.eye(4)
        layer(features, adjacency).sum().backward()
        assert features.grad is not None
        assert np.abs(features.grad).sum() > 0

    def test_encoder_pools_to_fixed_size(self, rng):
        encoder = GraphEncoder(3, 8, rng, layers=2)
        for n_nodes in (2, 5, 9):
            adjacency = np.ones((n_nodes, n_nodes)) - np.eye(n_nodes)
            out = encoder(Tensor(np.ones((n_nodes, 3))), adjacency)
            assert out.shape == (8,)

    def test_encoder_rejects_zero_layers(self, rng):
        with pytest.raises(ValueError):
            GraphEncoder(3, 8, rng, layers=0)


class TestConv1d:
    def test_output_shape_with_padding(self, rng):
        conv = Conv1d(2, 3, 3, rng, padding=1)
        out = conv(Tensor(np.ones((2, 10))))
        assert out.shape == (3, 10)

    def test_output_shape_no_padding(self, rng):
        conv = Conv1d(1, 1, 3, rng)
        out = conv(Tensor(np.ones((1, 10))))
        assert out.shape == (1, 8)

    def test_matches_manual_convolution(self, rng):
        conv = Conv1d(1, 1, 3, rng)
        kernel = conv.weight.data.reshape(3)
        bias = conv.bias.data.item()
        signal = np.arange(8.0)
        out = conv(Tensor(signal.reshape(1, 8))).data.reshape(-1)
        expected = np.array(
            [signal[i:i + 3] @ kernel + bias for i in range(6)]
        )
        np.testing.assert_allclose(out, expected)

    def test_rejects_wrong_channels(self, rng):
        conv = Conv1d(2, 3, 3, rng)
        with pytest.raises(ValueError):
            conv(Tensor(np.ones((3, 10))))

    def test_rejects_too_short_input(self, rng):
        conv = Conv1d(1, 1, 5, rng)
        with pytest.raises(ValueError):
            conv(Tensor(np.ones((1, 3))))

    def test_gradient_flows(self, rng):
        conv = Conv1d(2, 4, 3, rng, padding=1)
        x = Tensor(np.ones((2, 6)), requires_grad=True)
        conv(x).sum().backward()
        assert x.grad is not None

    def test_max_pool_values(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0, 8.0, 3.0]]))
        out = max_pool1d(x, 2)
        np.testing.assert_array_equal(out.data, [[5.0, 8.0]])

    def test_max_pool_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            max_pool1d(Tensor(np.ones((1, 2))), 4)
