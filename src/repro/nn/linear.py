"""Fully-connected layers (the feed-forward blocks of eq. 3 and 5).

Both :class:`Linear` and :class:`FeedForward` are batch-agnostic: the
matmul acts on the trailing axis, so ``[n, F]`` inputs (one sample) and
``[B, n, F]`` stacks (a whole tabu neighbourhood or training minibatch)
run through the same code path, with the weight gradient reduced over
the leading axes by the autodiff engine.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor


class Linear(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Random generator used for Xavier/He initialisation.
    bias:
        Whether to learn an additive bias (default true).
    activation_hint:
        ``"relu"`` selects He init, anything else Xavier; this mirrors
        how the paper's encoders (ReLU) and head (sigmoid) are set up.

    Accepts inputs of any leading shape ``[..., in_features]``; extra
    axes (batch, node) broadcast through the matmul.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        activation_hint: str = "relu",
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if activation_hint == "relu":
            weight = init.kaiming_uniform((in_features, out_features), rng)
        else:
            weight = init.xavier_uniform((in_features, out_features), rng)
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.ndim > 2:
            # Flatten leading axes into one gemm: the stacked form
            # would loop BLAS per slice (and reduce the weight gradient
            # over the batch slice by slice); one [B*n, F] product does
            # forward and both backward products in single BLAS calls.
            #
            # The flat gemm measured 5-10x faster than a per-slice
            # loop at ``[24, 16, 13] @ [13, 32]`` and exact (max|diff| =
            # 0.0) with OpenBLAS 0.3.31 on a 2-core x86 box.  In general
            # BLAS only guarantees per-row agreement to the last ulp or
            # two when the leading dimension changes, so the parity
            # tolerance of ``tests/test_batched.py`` (rtol 1e-9) is the
            # contract, and anything needing *bitwise* batch-size
            # invariance must keep stack shapes fixed instead (which is
            # why the fleet scorer runs every request stack as its own
            # call).
            lead = x.shape[:-1]
            out = (x.reshape(-1, self.in_features) @ self.weight).reshape(
                *lead, self.out_features
            )
        else:
            out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear({self.in_features} -> {self.out_features})"


class FeedForward(Module):
    """Stack of ``Linear`` + activation blocks with a fixed hidden width.

    The paper fixes layer width at 128 and grid-searches layer count
    (§IV-E, Fig. 6b); this class is the unit being swept there.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        hidden: int = 128,
        layers: int = 2,
        activation: str = "relu",
        final_activation: str | None = None,
    ) -> None:
        super().__init__()
        if layers < 1:
            raise ValueError("FeedForward needs at least one layer")
        self.activation = activation
        self.final_activation = final_activation
        dims = [in_features] + [hidden] * (layers - 1) + [out_features]
        self.blocks = [
            Linear(dims[i], dims[i + 1], rng, activation_hint=activation)
            for i in range(layers)
        ]

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            x = block(x)
            if i < last:
                x = _apply_activation(x, self.activation)
            elif self.final_activation is not None:
                x = _apply_activation(x, self.final_activation)
        return x


def _apply_activation(x: Tensor, name: str) -> Tensor:
    if name == "relu":
        return x.relu()
    if name == "tanh":
        return x.tanh()
    if name == "sigmoid":
        return x.sigmoid()
    if name == "identity":
        return x
    raise ValueError(f"unknown activation {name!r}")
