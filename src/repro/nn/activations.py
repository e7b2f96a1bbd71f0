"""Activation layers usable inside :class:`repro.nn.module.Sequential`."""

from __future__ import annotations

from .module import Module
from .tensor import Tensor, as_tensor


class ReLU(Module):
    """Rectified linear unit layer."""

    def forward(self, x) -> Tensor:
        return as_tensor(x).relu()


class Sigmoid(Module):
    """Logistic sigmoid layer (output head of the GON, eq. 5)."""

    def forward(self, x) -> Tensor:
        return as_tensor(x).sigmoid()
