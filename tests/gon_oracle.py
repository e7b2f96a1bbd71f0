"""The autodiff eq.-1 ascent: the parity oracle for the GON kernel.

Production runs every eq.-1 ascent through
:func:`repro.core.surrogate.generate_metrics_batch` on a graph-free
:class:`repro.core.fastscore.FastGONKernel`.  This module keeps the
reference it is gated against: the same Adam ascent differentiated by
the :class:`repro.nn.Tensor` autodiff engine through
:meth:`GONDiscriminator.forward_batch`, one graph per step.

* :func:`generate_metrics` / :func:`predict_qos` -- one sample at a
  time (the paper's literal loop; ``adaptive=False`` gives the plain
  gradient form of eq. 1);
* :func:`generate_metrics_batch` / :func:`predict_qos_batch` -- the
  batched ascent, a fixed number of steps over the whole stack;
* :func:`oracle_ascents` -- a context manager that swaps the oracle in
  for every production ascent (decisions, scoring service, training)
  and every confidence read (:meth:`FastGONKernel.score_stack` runs
  the model forward instead), so whole campaigns can be run on it and
  compared with the kernel.

Test modules import it directly (``tests/`` is on ``sys.path`` under
pytest).
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import List, Optional, Sequence

import numpy as np

from repro.core.fastscore import FastGONKernel
from repro.core.features import GONInput
from repro.core.gon import GONDiscriminator
from repro.core.surrogate import SurrogateResult
from repro.nn import Tensor

__all__ = [
    "generate_metrics",
    "generate_metrics_batch",
    "predict_qos",
    "predict_qos_batch",
    "model_from_kernel",
    "oracle_ascents",
]

_EPS = 1e-8

#: Production modules that bind ``generate_metrics_batch`` at import.
ASCENT_BINDINGS = (
    "repro.core.scoring",
    "repro.core.training",
    "repro.serving.service",
)


@contextmanager
def _frozen_parameters(model: GONDiscriminator):
    """Disable weight gradients for the duration of an ascent.

    Eq. 1 only differentiates with respect to the *input* metrics;
    freezing the parameters lets the autodiff engine skip every
    weight-gradient gemm without changing the input gradients.
    """
    parameters = model.parameters()
    flags = [p.requires_grad for p in parameters]
    for parameter in parameters:
        parameter.requires_grad = False
    try:
        yield
    finally:
        for parameter, flag in zip(parameters, flags):
            parameter.requires_grad = flag


def generate_metrics(
    model: GONDiscriminator,
    schedule: np.ndarray,
    adjacency: np.ndarray,
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: float = 1e-3,
    max_steps: int = 40,
    adaptive: bool = True,
) -> SurrogateResult:
    """One-sample eq.-1 ascent; returns ``M*`` with its confidence."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n_hosts = int(np.asarray(schedule).shape[0])
    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        start = rng.uniform(0.0, 1.0, size=(n_hosts, model.n_m_features))
    else:
        start = np.array(init_metrics, dtype=float, copy=True)

    current = Tensor(start, requires_grad=True)
    first_moment = np.zeros_like(start)
    second_moment = np.zeros_like(start)
    beta1, beta2 = 0.9, 0.999
    steps_taken = 0
    with _frozen_parameters(model):
        score = model(current, schedule, adjacency)
        for step in range(max_steps):
            log_likelihood = score.clip(_EPS, 1.0 - _EPS).log()
            log_likelihood.backward()
            gradient = current.grad
            if gradient is None:
                break
            if adaptive:
                first_moment = beta1 * first_moment + (1 - beta1) * gradient
                second_moment = beta2 * second_moment + (1 - beta2) * gradient ** 2
                m_hat = first_moment / (1 - beta1 ** (step + 1))
                v_hat = second_moment / (1 - beta2 ** (step + 1))
                update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                update = gamma * gradient
            current = Tensor(
                np.clip(current.data + update, 0.0, 3.0), requires_grad=True
            )
            steps_taken = step + 1
            score = model(current, schedule, adjacency)

    return SurrogateResult(
        metrics=current.data.copy(),
        confidence=float(score.data),
        n_steps=steps_taken,
        converged=False,
    )


def generate_metrics_batch(
    model: GONDiscriminator,
    schedules: Sequence[np.ndarray],
    adjacencies: Sequence[np.ndarray],
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma: float = 1e-3,
    max_steps: int = 40,
    adaptive: bool = True,
) -> List[SurrogateResult]:
    """Batched autodiff ascent: one graph per step over the whole stack.

    Matches looped :func:`generate_metrics`.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    schedules = np.asarray(schedules, dtype=float)
    adjacencies = np.asarray(adjacencies, dtype=float)
    if schedules.ndim != 3 or adjacencies.ndim != 3:
        raise ValueError(
            f"expected stacked [B, ...] inputs, got schedules "
            f"{schedules.shape} and adjacencies {adjacencies.shape}"
        )
    batch = schedules.shape[0]
    if batch == 0:
        return []
    n_hosts = schedules.shape[1]
    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        current = rng.uniform(
            0.0, 1.0, size=(batch, n_hosts, model.n_m_features)
        )
    else:
        current = np.array(init_metrics, dtype=float, copy=True)
        if current.shape[0] != batch:
            raise ValueError(
                f"init_metrics batch {current.shape[0]} != {batch}"
            )

    first_moment = np.zeros_like(current)
    second_moment = np.zeros_like(current)
    beta1, beta2 = 0.9, 0.999
    steps_taken = 0
    with _frozen_parameters(model):
        tensor = Tensor(current, requires_grad=True)
        scores = model.forward_batch(tensor, schedules, adjacencies)
        for step in range(max_steps):
            log_likelihood = scores.clip(_EPS, 1.0 - _EPS).log()
            log_likelihood.sum().backward()
            gradient = tensor.grad
            if gradient is None:
                break
            if adaptive:
                first_moment = beta1 * first_moment + (1 - beta1) * gradient
                second_moment = (
                    beta2 * second_moment + (1 - beta2) * gradient ** 2
                )
                m_hat = first_moment / (1 - beta1 ** (step + 1))
                v_hat = second_moment / (1 - beta2 ** (step + 1))
                update = gamma * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                update = gamma * gradient
            current = np.clip(current + update, 0.0, 3.0)
            steps_taken = step + 1
            tensor = Tensor(current, requires_grad=True)
            scores = model.forward_batch(tensor, schedules, adjacencies)

    return [
        SurrogateResult(
            metrics=current[i].copy(),
            confidence=float(scores.data[i]),
            n_steps=steps_taken,
            converged=False,
        )
        for i in range(batch)
    ]


def predict_qos(
    model: GONDiscriminator,
    sample: GONInput,
    objective,
    gamma: float = 1e-3,
    max_steps: int = 40,
) -> tuple:
    """``(O(M*), result)`` of one warm-started ascent."""
    result = generate_metrics(
        model,
        sample.schedule,
        sample.adjacency,
        init_metrics=sample.metrics,
        gamma=gamma,
        max_steps=max_steps,
    )
    return objective(result.metrics), result


def predict_qos_batch(
    model: GONDiscriminator,
    samples: Sequence[GONInput],
    objective,
    gamma: float = 1e-3,
    max_steps: int = 40,
) -> List[tuple]:
    """Batched :func:`predict_qos`, results in input order."""
    if not samples:
        return []
    results = generate_metrics_batch(
        model,
        np.stack([s.schedule for s in samples]),
        np.stack([s.adjacency for s in samples]),
        init_metrics=np.stack([s.metrics for s in samples]),
        gamma=gamma,
        max_steps=max_steps,
    )
    return [(objective(r.metrics), r) for r in results]


# ----------------------------------------------------------------------
# Swapping the oracle in for production ascents
# ----------------------------------------------------------------------
_MODELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def model_from_kernel(kernel) -> GONDiscriminator:
    """The autodiff GON holding exactly a float64 kernel's weights."""
    model = _MODELS.get(kernel)
    if model is None:
        if kernel.dtype != np.float64:
            raise ValueError("the oracle only mirrors float64 kernels")
        model = GONDiscriminator(
            np.random.default_rng(0),
            hidden=kernel.hidden,
            n_layers=kernel.n_layers,
            n_m_features=kernel.n_m_features,
            n_s_features=kernel.n_s_features,
        )
        model.load_state_dict(dict(kernel.pack.arrays))
        _MODELS[kernel] = model
    return model


def _uniform(values, name: str):
    """A per-element hyper-parameter vector as the scalar it repeats."""
    flat = np.unique(np.asarray(values).reshape(-1))
    if flat.size != 1:
        raise NotImplementedError(
            f"the autodiff oracle takes one {name} per call, got {flat}"
        )
    return flat[0].item()


def kernel_ascent(
    kernel,
    schedules,
    adjacencies,
    init_metrics=None,
    rng=None,
    gamma=1e-3,
    max_steps: int = 40,
) -> List[SurrogateResult]:
    """Drop-in for the production ascent, run on the autodiff oracle."""
    return generate_metrics_batch(
        model_from_kernel(kernel),
        schedules,
        adjacencies,
        init_metrics=init_metrics,
        rng=rng,
        gamma=_uniform(gamma, "gamma"),
        max_steps=max_steps,
    )


def kernel_scores(kernel, metrics, schedules, adjacencies) -> np.ndarray:
    """Drop-in for :meth:`FastGONKernel.score_stack` on the model forward."""
    metrics = np.asarray(metrics, dtype=float)
    if metrics.shape[0] == 0:
        return np.zeros(0)
    return model_from_kernel(kernel).forward_batch(
        metrics, np.asarray(schedules, dtype=float), adjacencies
    ).data.copy()


@contextmanager
def oracle_ascents():
    """Run every eq.-1 ascent and confidence read on the autodiff oracle.

    In-process only: worker processes a campaign forks or spawns keep
    the kernel, so oracle campaigns must run serially.
    """
    import pytest

    with pytest.MonkeyPatch.context() as patch:
        for module in ASCENT_BINDINGS:
            patch.setattr(f"{module}.generate_metrics_batch", kernel_ascent)
        patch.setattr(FastGONKernel, "score_stack", kernel_scores)
        yield
