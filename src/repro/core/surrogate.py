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
in-place ufuncs on preallocated ``[k, n, F]`` state, and the kernel
runs every step on the plan compiled for the stack's shape.  ``gamma``
may differ per element; the step count is one per call.  Results come
back in input order.

A call may cut its stack into segments: each segment's results are
bitwise-equal to a separate call on it alone (see
:mod:`repro.core.fastscore`), so independent stacks of one decision
-- a tabu start and its first neighbourhood -- share one call.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as _telemetry

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

try:
    _clip = np._core.umath.clip  # the ufunc behind np.clip's wrappers
except AttributeError:  # numpy < 2
    _clip = np.core.umath.clip


@functools.lru_cache(maxsize=None)
def _adam_constants(max_steps: int) -> tuple:
    """Adam's scalar operands as 0-d arrays.

    Each is computed in Python floats first, which is what NEP 50 does
    to the Python scalars of ``m = b1*m + (1-b1)*g`` and friends;
    per-step bias corrections are one array per step.
    """
    const = np.asarray

    return (
        const(_BETA1), const(1 - _BETA1), const(_BETA2), const(1 - _BETA2),
        [const(1 - _BETA1 ** (step + 1)) for step in range(max_steps)],
        [const(1 - _BETA2 ** (step + 1)) for step in range(max_steps)],
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
    gamma = np.asarray(gamma, dtype=float)
    # ``not (gamma > 0)`` also catches NaN, which ``gamma <= 0`` lets by.
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise ValueError("gamma must be positive and finite")
    step_sizes = np.broadcast_to(gamma, (batch,))[:, None, None]
    max_steps = operator.index(max_steps)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    segments = _segment_sizes(segments, batch)

    if init_metrics is None:
        if rng is None:
            raise ValueError("need rng when init_metrics is omitted")
        current = rng.uniform(
            0.0, 1.0, size=(batch, schedules.shape[1], kernel.n_m_features)
        )
    else:
        current = np.array(init_metrics, dtype=float, copy=True)
        if current.shape[:1] != (batch,):
            raise ValueError(
                f"init_metrics shape {current.shape} does not lead "
                f"with batch {batch}"
            )

    # Read-only inputs are never copied here (broadcast views pass
    # through): the kernel copies S into its plan once per call.
    masks, push = kernel.graph_inputs(adjacencies)
    first_moment = np.zeros_like(current)
    second_moment = np.zeros_like(current)
    scratch = np.empty_like(current)
    update = np.empty_like(current)
    (beta1, one_m_beta1, beta2, one_m_beta2, corrections1, corrections2,
     eps, lo, hi) = _adam_constants(max_steps)
    multiply, add, divide = np.multiply, np.add, np.divide

    # One schedule tag per call: the kernel writes the constant S half
    # of its joint input once per call instead of every step.
    tag = object()
    with _ASCENT_SPAN.time():
        scores, saved = kernel.forward(
            current, schedules, masks, push, tag, segments
        )
        for step in range(max_steps):
            gradient = kernel.input_gradient(saved)
            # Adam, in place: the same IEEE operations in the same
            # order as ``m = b1*m + (1-b1)*g`` and friends.
            multiply(first_moment, beta1, first_moment)
            multiply(gradient, one_m_beta1, scratch)
            add(first_moment, scratch, first_moment)
            multiply(second_moment, beta2, second_moment)
            np.square(gradient, scratch)
            multiply(scratch, one_m_beta2, scratch)
            add(second_moment, scratch, second_moment)
            divide(first_moment, corrections1[step], update)
            divide(second_moment, corrections2[step], scratch)
            np.sqrt(scratch, scratch)
            add(scratch, eps, scratch)
            multiply(update, step_sizes, update)
            divide(update, scratch, update)
            add(current, update, current)
            _clip(current, lo, hi, current)
            # The next ascent point's forward; after the last step it
            # scores M*.
            scores, saved = kernel.forward(
                current, schedules, masks, push, tag, segments
            )
        # ``scores`` is a kernel buffer: read it before the next call.
        confidences = scores.tolist()

    results = [
        SurrogateResult(
            metrics=row, confidence=confidence, n_steps=max_steps,
            converged=False,
        )
        for row, confidence in zip(current, confidences)
    ]
    _ASCENT_CALLS.inc()
    _ASCENT_SEGMENTS.add(len(segments))
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(batch * max_steps)
    _ASCENT_BATCH.observe(batch)
    return results
