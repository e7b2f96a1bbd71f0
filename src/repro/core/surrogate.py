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
GON -- so no autodiff graph is built per step.  The kernel reproduces
the autodiff ascent bit for bit; the test suite keeps that
autodiff ascent as its parity oracle (``tests/gon_oracle.py``).

Every ascent has a fixed shape: each element of the stack takes
exactly ``max_steps`` Adam steps.  The paper ascends "until
convergence", but trained GONs do not converge within the step
budget: log D still climbs at the last step, and no update-norm
tolerance stops an element early.  Adam runs as a fixed sequence of
in-place ufuncs on preallocated state (its two moments share one
``[2, k, n, F]`` buffer, so each moment-wide operation is one ufunc
call), and the kernel runs every step on the plan compiled for the
stack's shape.  ``gamma`` may differ per element; the step count is
one per call.  Results come back in input order.

An ascent runs only what it reads: one forward and one input gradient
per step, so ``M*`` is never scored.  Callers that need ``D(M*)`` read
it with :meth:`repro.core.fastscore.FastGONKernel.score_stack`; no
decision does (the POT gate scores the observed interval).

A call may cut its stack into segments: each segment's results are
bitwise-equal to a separate call on it alone (see
:mod:`repro.core.fastscore`), so independent stacks of one decision
-- a tabu start and its first neighbourhood -- share one call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as _telemetry
from .fastscore import _clip

__all__ = ["SurrogateResult", "generate_metrics_batch"]

# Process-registry handles for the eq.-1 ascent (the fleet's hottest
# kernel); counted per vectorized call, not per element.
_ASCENT_SPAN = _telemetry.span("gon.ascent")
_ASCENT_CALLS = _telemetry.counter("gon.ascent.calls")
#: Segments per call (see :func:`generate_metrics_batch`): segments
#: minus calls is the number of calls that merging saved.
_ASCENT_SEGMENTS = _telemetry.counter("gon.ascent.segments")
_ASCENT_ELEMENTS = _telemetry.counter("gon.ascent.elements")
_ASCENT_STEPS = _telemetry.counter("gon.ascent.steps")
_ASCENT_BATCH = _telemetry.histogram("gon.ascent.batch_size", _telemetry.SIZE_EDGES)

_BETA1, _BETA2 = 0.9, 0.999


@functools.lru_cache(maxsize=None)
def _adam_constants(max_steps: int) -> tuple:
    """Adam's scalar operands as arrays.

    Each is computed in Python floats first, which is what NEP 50 does
    to the Python scalars of ``m = b1*m + (1-b1)*g`` and friends.  The
    operands that act on both moments are ``[2, 1, 1, 1]`` pairs
    (first moment, second moment) that broadcast over the ``[2, k, n,
    F]`` moment buffer; bias corrections are one pair per step.
    """
    const = np.asarray

    def pair(first: float, second: float) -> np.ndarray:
        return const([first, second]).reshape(2, 1, 1, 1)

    return (
        pair(_BETA1, _BETA2), const(1 - _BETA1), const(1 - _BETA2),
        [pair(1 - _BETA1 ** (step + 1), 1 - _BETA2 ** (step + 1))
         for step in range(max_steps)],
        const(1e-8), const(0.0), const(3.0),
    )


def _segment_sizes(segments: Sequence[int], batch: int) -> Tuple[int, ...]:
    """``segments`` as positive ints summing to ``batch``, else raise."""
    sizes = tuple(operator.index(size) for size in segments)
    if not sizes:
        return (batch,)
    if min(sizes) < 1 or sum(sizes) != batch:
        raise ValueError(
            f"segments {sizes} must be positive and sum to the batch {batch}"
        )
    return sizes


@dataclass(frozen=True)
class SurrogateResult:
    """Outcome of one eq.-1 optimisation run.

    ``M*`` only: its confidence ``D(M*)`` is not computed (see the
    module docstring).
    """

    metrics: np.ndarray       # M* after the ascent
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
    segments: Sequence[int] = (),
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
        and finite), a scalar or a per-element vector, so stacks with
        different step sizes can share one call as segments.
    max_steps:
        The number of Adam steps every element takes.
    segments:
        Sizes of consecutive runs of the stack (summing to ``B``);
        each run's results are bitwise what a separate call on it
        would return.  Empty (the default) is one segment.

    Each step runs one kernel forward and one input gradient: no
    forward scores ``M*``.  Misshapen inputs are rejected before any
    kernel work.
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
    # A scalar step size is checked in Python, without an array round
    # trip.  ``not (gamma > 0)`` also catches NaN, which ``gamma <= 0``
    # lets by.
    if isinstance(gamma, (int, float)):
        if not (math.isfinite(gamma) and gamma > 0):
            raise ValueError("gamma must be positive and finite")
        step_sizes = np.asarray(float(gamma))
    else:
        gamma = np.asarray(gamma, dtype=float)
        if not np.all(np.isfinite(gamma) & (gamma > 0)):
            raise ValueError("gamma must be positive and finite")
        step_sizes = np.broadcast_to(gamma, (batch,))[:, None, None]
    max_steps = operator.index(max_steps)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    segments = _segment_sizes(segments, batch)

    shape = (batch, schedules.shape[1], kernel.n_m_features)
    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        current = rng.uniform(0.0, 1.0, size=shape)
    else:
        # C order: a copy keeps the input's stride order by default,
        # which puts the stack axis of a broadcast warm start innermost.
        current = np.array(init_metrics, dtype=float, order="C")
        if current.shape != shape:
            raise ValueError(
                f"init_metrics shape {current.shape} is not the "
                f"[batch, n_hosts, n_m_features] stack {shape}"
            )

    # Read-only inputs are never copied here (broadcast views pass
    # through): the kernel copies S into its plan once per call.
    masks, push = kernel.graph_inputs(adjacencies)
    # Adam's first and second moments, and a pair buffer holding first
    # their gradient terms, then their bias-corrected estimates.
    moments = np.zeros((2,) + shape)
    pair = np.empty_like(moments)
    (betas, one_m_beta1, one_m_beta2, corrections, eps, lo,
     hi) = _adam_constants(max_steps)
    multiply, add, divide = np.multiply, np.add, np.divide

    # One schedule tag per call: the kernel writes the constant S half
    # of its joint input once per call instead of every step.
    tag = object()
    with _ASCENT_SPAN.time():
        for step in range(max_steps):
            _, saved = kernel.forward(
                current, schedules, masks, push, tag, segments
            )
            gradient = kernel.input_gradient(saved)
            # Adam, in place: the same IEEE operations in the same
            # order as ``m = b1*m + (1-b1)*g`` and friends, each one
            # ufunc call over both moments where both take it.
            multiply(moments, betas, moments)
            multiply(gradient, one_m_beta1, pair[0])
            np.square(gradient, pair[1])
            multiply(pair[1], one_m_beta2, pair[1])
            add(moments, pair, moments)
            divide(moments, corrections[step], pair)  # m_hat, v_hat
            np.sqrt(pair[1], pair[1])
            add(pair[1], eps, pair[1])
            multiply(pair[0], step_sizes, pair[0])
            divide(pair[0], pair[1], pair[0])
            add(current, pair[0], current)
            _clip(current, lo, hi, current)

    results = [
        SurrogateResult(metrics=row, n_steps=max_steps, converged=False)
        for row in current
    ]
    _ASCENT_CALLS.inc()
    _ASCENT_SEGMENTS.add(len(segments))
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(batch * max_steps)
    _ASCENT_BATCH.observe(batch)
    return results
