"""LSTM cells and sequence layers.

Required by two baselines: FRAS (fuzzy *recurrent* surrogate) and
TopoMAD (LSTM + VAE reconstruction).  Implemented as a fused-gate cell
over the autodiff tensors.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor, stack


class LSTMCell(Module):
    """Single-step LSTM cell with fused gate weights.

    Gate order in the fused matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to one, the standard trick to
    keep memory open early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, 4 * hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def forward(
        self,
        x,
        state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Advance one step; returns ``(h, c)``."""
        x = as_tensor(x)
        batch = x.shape[0] if x.ndim == 2 else None
        if state is None:
            shape = (batch, self.hidden_size) if batch else (self.hidden_size,)
            h = Tensor(np.zeros(shape))
            c = Tensor(np.zeros(shape))
        else:
            h, c = state

        gates = x @ self.w_ih + h @ self.w_hh + self.bias
        hs = self.hidden_size
        i = gates[..., 0 * hs:1 * hs].sigmoid()
        f = gates[..., 1 * hs:2 * hs].sigmoid()
        g = gates[..., 2 * hs:3 * hs].tanh()
        o = gates[..., 3 * hs:4 * hs].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class LSTM(Module):
    """Run an :class:`LSTMCell` over a sequence.

    Input shape ``(seq_len, features)`` or ``(seq_len, batch, features)``;
    output is the stacked hidden states plus the final ``(h, c)``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(
        self,
        sequence,
        state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        sequence = as_tensor(sequence)
        outputs = []
        h_c = state
        for t in range(sequence.shape[0]):
            h, c = self.cell(sequence[t], h_c)
            h_c = (h, c)
            outputs.append(h)
        return stack(outputs, axis=0), h_c  # type: ignore[return-value]

