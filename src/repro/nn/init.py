"""Weight-initialisation schemes.

All initialisers draw from an explicitly supplied
:class:`numpy.random.Generator` so experiments are reproducible
end-to-end (the simulator, the GON and every baseline thread RNGs
through their configs rather than touching global state).
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "kaiming_uniform", "zeros", "orthogonal"]


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation.

    Suitable for tanh/sigmoid layers such as the GON output head.
    """
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def kaiming_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He initialisation for ReLU layers (used by the encoders of eq. 3)."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation (recurrent weights of LSTM baselines)."""
    if len(shape) != 2:
        raise ValueError("orthogonal init requires a 2-D shape")
    rows, cols = shape
    a = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    q = q[:rows, :cols] if rows >= cols else q.T[:rows, :cols]
    return gain * q


def zeros(shape: tuple) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Convolutional kernels: (out, in, k)
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
