"""1-D convolution for the StepGAN baseline.

StepGAN (Feng et al., 2021) converts input time series into matrices
and applies convolutions to capture temporal trends; this module gives
it an autodiff-compatible Conv1d.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["Conv1d"]


class Conv1d(Module):
    """1-D convolution over inputs shaped ``[channels, length]``.

    Stride 1, explicit zero padding.  Implemented by materialising the
    sliding windows (im2col) so both forward and backward reduce to
    matmuls the autodiff already supports.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        padding: int = 0,
    ) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(
            init.xavier_uniform((in_channels * kernel_size, out_channels), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2:
            raise ValueError(f"Conv1d expects [channels, length], got shape {x.shape}")
        channels, length = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")

        if self.padding:
            pad_block = Tensor(np.zeros((channels, self.padding)))
            from .tensor import concatenate

            x = concatenate([pad_block, x, pad_block], axis=1)
            length = length + 2 * self.padding

        out_length = length - self.kernel_size + 1
        if out_length < 1:
            raise ValueError(
                f"input length {length} shorter than kernel {self.kernel_size}"
            )

        # im2col: windows stacked as rows -> [out_length, channels*kernel].
        from .tensor import stack

        windows = [
            x[:, start:start + self.kernel_size].reshape(-1)
            for start in range(out_length)
        ]
        patch_matrix = stack(windows, axis=0)
        out = patch_matrix @ self.weight + self.bias  # [out_length, out_channels]
        return out.transpose()  # [out_channels, out_length]
