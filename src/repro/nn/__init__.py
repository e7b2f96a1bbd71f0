"""``repro.nn`` -- a from-scratch neural network library over numpy.

Replaces PyTorch (used by the paper) with a reverse-mode autodiff
engine plus the layer zoo the reproduction needs:

* :class:`~repro.nn.tensor.Tensor` -- autodiff arrays with gradients
  w.r.t. parameters *and* inputs (the GON generates samples by input-
  space gradient ascent, eq. 1);
* feed-forward, LSTM, graph-attention and 1-D convolution layers;
* the Adam optimiser, losses, weight init and state-dict
  serialization.

Layers follow a batched convention: ops broadcast over leading axes,
so ``[B, n_hosts, F]`` stacks (with ``[B, n, n]`` adjacencies for the
graph layers) evaluate ``B`` samples in one vectorized pass -- see
:mod:`repro.nn.tensor` and :mod:`repro.core.surrogate`.
"""

from .activations import ReLU, Sigmoid
from .conv import Conv1d
from .functional import (
    kl_gaussian,
    mse_loss,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from .gat import GraphAttention, GraphEncoder, adjacency_with_self_loops
from .linear import FeedForward, Linear
from .lstm import LSTM, LSTMCell
from .module import Module, Parameter, Sequential
from .optim import Adam, Optimizer
from .serialization import save_module, save_state
from .tensor import Tensor, as_tensor, concatenate, stack, where
from .utils import EarlyStopping, minibatches, train_test_split

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "FeedForward",
    "ReLU",
    "Sigmoid",
    "LSTM",
    "LSTMCell",
    "GraphAttention",
    "GraphEncoder",
    "adjacency_with_self_loops",
    "Conv1d",
    "Optimizer",
    "Adam",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "mse_loss",
    "kl_gaussian",
    "save_state",
    "save_module",
    "minibatches",
    "train_test_split",
    "EarlyStopping",
]
