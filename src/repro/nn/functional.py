"""Functional interface over :mod:`repro.nn.tensor`.

Stateless functions used throughout the neural models: activations,
losses and a numerically-stable softmax.  The GON training loop
(Algorithm 1 of the paper) builds its clipped log-likelihood terms
itself (:func:`repro.core.training._gon_loss_batch`), and the
surrogate optimisation of eq. (1) ascends the log of the
discriminator output.
"""

from __future__ import annotations

from .tensor import ArrayLike, Tensor, as_tensor, concatenate, stack, where

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "mse_loss",
    "kl_gaussian",
    "concatenate",
    "stack",
    "where",
]


def relu(x: ArrayLike) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: ArrayLike) -> Tensor:
    """Logistic sigmoid, clipped for numerical stability."""
    return as_tensor(x).sigmoid()


def tanh(x: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def mse_loss(prediction: ArrayLike, target: ArrayLike) -> Tensor:
    """Mean squared error."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def kl_gaussian(mu: ArrayLike, log_var: ArrayLike) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, 1)) summed over latent dims, meaned over batch.

    Used by the TopoMAD baseline's variational autoencoder.
    """
    mu = as_tensor(mu)
    log_var = as_tensor(log_var)
    per_dim = (log_var.exp() + mu * mu - log_var - 1.0) * 0.5
    if per_dim.ndim > 1:
        return per_dim.sum(axis=-1).mean()
    return per_dim.sum()
