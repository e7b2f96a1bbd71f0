"""Optimisers.

The paper trains and fine-tunes the GON with Adam (learning rate 1e-4,
weight decay 1e-5, §IV-E); the same implementation also serves every
baseline model.  Weight decay is applied in the decoupled (AdamW)
form so it acts as true L2 shrinkage regardless of gradient scale.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with decoupled weight decay.

    Defaults follow the paper's training setup (§IV-E): lr = 1e-4,
    weight decay = 1e-5.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-5,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * parameter.data
            parameter.data = parameter.data - self.lr * update
