"""Surrogate QoS generation by input-space gradient ascent (eq. 1).

GONs generate samples without a generator network: starting from an
initial guess, the metric matrix is optimised to maximise the
discriminator's log-likelihood,

    M <- M + gamma * grad_M log D(M, S, G; theta),

and the resulting ``M*`` is the predicted performance for ``(S, G)``
while ``D(M*, S, G)`` is the prediction's confidence score.  In
deployment the ascent warm-starts from the previous interval's metrics
``M_{t-1}`` (temporal-correlation trick of §III-B) rather than noise.

One ascent path
---------------
:func:`generate_metrics_batch` is the only eq.-1 ascent in the
package: CAROL's decisions (:class:`repro.core.scoring.LocalScorer`),
the fleet scoring service and Algorithm-1 training all call it.  It
runs Adam in the input space over a whole ``[B, n_hosts, F]``
candidate stack on a :class:`repro.core.fastscore.FastGONKernel` --
the graph-free forward and closed-form input gradient of an exported
GON -- so no autodiff graph is built per step.  A float64 kernel
reproduces the autodiff ascent bit for bit; the test suite keeps that
autodiff ascent as its parity oracle (``tests/gon_oracle.py``).

Every ascent has a fixed shape: each element of the stack takes
exactly ``max_steps`` Adam steps.  The paper ascends "until
convergence", but trained GONs do not converge within the step
budget: log D still climbs at the last step, and no update-norm
tolerance stops an element early.  Adam runs as a fixed sequence of
in-place ufuncs on preallocated ``[k, n, F]`` state, and the kernel
runs every step on the plan compiled for the stack's shape.  ``gamma``
may differ per element; the step count is one per call.  Results come
back in input order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry as _telemetry

__all__ = ["SurrogateResult", "generate_metrics_batch"]

# Process-registry handles for the eq.-1 ascent (the fleet's hottest
# kernel); counted per vectorized call, not per element.
_ASCENT_SPAN = _telemetry.span("gon.ascent")
_ASCENT_CALLS = _telemetry.counter("gon.ascent.calls")
_ASCENT_ELEMENTS = _telemetry.counter("gon.ascent.elements")
_ASCENT_STEPS = _telemetry.counter("gon.ascent.steps")
_ASCENT_BATCH = _telemetry.histogram("gon.ascent.batch_size", _telemetry.SIZE_EDGES)


@dataclass(frozen=True)
class SurrogateResult:
    """Outcome of one eq.-1 optimisation run."""

    metrics: np.ndarray       # M* after the ascent
    confidence: float         # D(M*, S, G)
    n_steps: int              # ascent steps taken: always ``max_steps``
    #: Always False: every ascent runs its fixed step count (kept for
    #: callers that tally convergence).
    converged: bool


def generate_metrics_batch(
    kernel,
    schedules: Sequence[np.ndarray],
    adjacencies: Sequence[np.ndarray],
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma=1e-3,
    max_steps: int = 40,
) -> List[SurrogateResult]:
    """Eq.-1 Adam ascent over a candidate stack on a GON kernel.

    Parameters
    ----------
    kernel:
        A :class:`repro.core.fastscore.FastGONKernel` exported from the
        trained discriminator.
    schedules / adjacencies:
        Length-``B`` sequences (or pre-stacked ``[B, ...]`` arrays) of
        the fixed inputs ``S`` and ``G``, sharing one host count.
    init_metrics:
        ``[B, n_hosts, F]`` warm starts (``M_{t-1}``).  When omitted
        the noise starts (Algorithm 1's ``Z``) are drawn from ``rng``
        in one call.
    gamma:
        Ascent step size (the learning rate swept in Fig. 6a; positive
        and finite), a scalar or a per-element vector -- which is what
        lets the scoring service merge requests with different step
        sizes into one call.
    max_steps:
        The number of Adam steps every element takes.

    The final confidence is read from the loop's own last forward pass,
    so no extra forward runs after the loop.
    """
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
    dtype = kernel.dtype
    gamma = np.asarray(gamma, dtype=float)
    # ``not (gamma > 0)`` also catches NaN, which ``gamma <= 0`` lets by.
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise ValueError("gamma must be positive and finite")
    step_sizes = np.broadcast_to(gamma, (batch,)).astype(dtype)[:, None, None]
    max_steps = operator.index(max_steps)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")

    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        current = rng.uniform(
            0.0, 1.0, size=(batch, schedules.shape[1], kernel.n_m_features)
        ).astype(dtype)
    else:
        current = np.array(init_metrics, dtype=dtype, copy=True)
        if current.shape[0] != batch:
            raise ValueError(
                f"init_metrics batch {current.shape[0]} != {batch}"
            )

    # Read-only inputs are never copied here (broadcast views pass
    # through): the kernel copies S into its plan once per call.
    sched = np.asarray(schedules, dtype=dtype)
    masks, push = kernel.graph_inputs(adjacencies)
    first_moment = np.zeros_like(current)
    second_moment = np.zeros_like(current)
    scratch = np.empty_like(current)
    update = np.empty_like(current)
    beta1, beta2 = 0.9, 0.999

    # One schedule tag per call: the kernel writes the constant S half
    # of its joint input once per call instead of every step.
    tag = object()
    with _ASCENT_SPAN.time():
        scores, saved = kernel.forward(current, sched, masks, push, tag=tag)
        for step in range(max_steps):
            gradient = kernel.input_gradient(saved)
            # Adam, in place: the same IEEE operations in the same
            # order as ``m = b1*m + (1-b1)*g`` and friends.
            first_moment *= beta1
            np.multiply(gradient, 1 - beta1, out=scratch)
            first_moment += scratch
            second_moment *= beta2
            np.square(gradient, out=scratch)
            scratch *= 1 - beta2
            second_moment += scratch
            np.divide(first_moment, 1 - beta1 ** (step + 1), out=update)
            np.divide(second_moment, 1 - beta2 ** (step + 1), out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += 1e-8
            update *= step_sizes
            update /= scratch
            current += update
            np.clip(current, 0.0, 3.0, out=current)
            # The next ascent point's forward; after the last step it
            # scores M*.
            scores, saved = kernel.forward(
                current, sched, masks, push, tag=tag
            )
        # ``scores`` is a kernel buffer: read it before the next call.
        confidences = scores.tolist()

    results = [
        SurrogateResult(
            metrics=row, confidence=confidence, n_steps=max_steps,
            converged=False,
        )
        for row, confidence in zip(
            current.astype(np.float64, copy=False), confidences
        )
    ]
    _ASCENT_CALLS.inc()
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(batch * max_steps)
    _ASCENT_BATCH.observe(batch)
    return results
