"""Surrogate QoS generation by input-space gradient ascent (eq. 1).

GONs generate samples without a generator network: starting from an
initial guess, the metric matrix is optimised to maximise the
discriminator's log-likelihood,

    M <- M + gamma * grad_M log D(M, S, G; theta),

and the converged ``M*`` is the predicted performance for ``(S, G)``
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

Convergence is tracked per batch element: an element whose update norm
falls below ``tol`` -- or that reaches its own step cap -- freezes (its
metrics, step count and confidence are finalised) while the remaining
elements continue in a compacted stack, so each element follows
exactly the trajectory a one-element ascent would.  Results come back
in input order.
"""

from __future__ import annotations

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
_ASCENT_CONVERGED = _telemetry.counter("gon.ascent.converged")
_ASCENT_BATCH = _telemetry.histogram("gon.ascent.batch_size", _telemetry.SIZE_EDGES)


@dataclass(frozen=True)
class SurrogateResult:
    """Outcome of one eq.-1 optimisation run."""

    metrics: np.ndarray       # converged M*
    confidence: float         # D(M*, S, G)
    n_steps: int              # ascent steps actually taken
    converged: bool


def generate_metrics_batch(
    kernel,
    schedules: Sequence[np.ndarray],
    adjacencies: Sequence[np.ndarray],
    init_metrics: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    gamma=1e-3,
    max_steps=40,
    tol: float = 1e-5,
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
    gamma / max_steps:
        Ascent step size (the learning rate swept in Fig. 6a) and step
        cap.  Either may be a per-element vector, which is what lets
        the scoring service fuse requests with different
        hyper-parameters into one call.
    tol:
        An element converges once its largest update falls below it.

    The final confidence is read from the loop's own last forward pass
    (the score of the post-update metrics doubles as the convergence
    check's score), so no extra forward runs after the loop.
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
    gamma_vec = np.broadcast_to(
        np.asarray(gamma, dtype=float), (batch,)
    ).astype(dtype)
    if np.any(gamma_vec <= 0):
        raise ValueError("gamma must be positive")
    caps = np.broadcast_to(np.asarray(max_steps, dtype=int), (batch,)).copy()
    if np.any(caps < 0):
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

    sched = schedules.astype(dtype)
    masks, push = kernel.graph_inputs(adjacencies)
    first_moment = np.zeros_like(current)
    second_moment = np.zeros_like(current)
    beta1, beta2 = 0.9, 0.999
    steps_taken = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    confidence = np.zeros(batch, dtype=dtype)

    active = np.arange(batch)
    # One schedule tag per call: the kernel writes the constant S half
    # of its joint input once per workspace instead of every step.
    tag = object()
    with _ASCENT_SPAN.time():
        scores, saved = kernel.forward(
            current, sched, masks, push, tag=tag
        )
        # When elements freeze mid-iteration, ``scores``/``saved``
        # still describe the larger stack; ``rows`` maps the survivors
        # into it so their gradients are read without a new forward.
        rows: Optional[np.ndarray] = None
        for step in range(int(caps.max(initial=0))):
            if active.size == 0:
                break
            gradient = kernel.input_gradient(saved, rows)
            if rows is not None:
                gradient = gradient[rows]
            first_moment[active] = (
                beta1 * first_moment[active] + (1 - beta1) * gradient
            )
            second_moment[active] = (
                beta2 * second_moment[active] + (1 - beta2) * gradient ** 2
            )
            m_hat = first_moment[active] / (1 - beta1 ** (step + 1))
            v_hat = second_moment[active] / (1 - beta2 ** (step + 1))
            update = (
                gamma_vec[active][:, None, None]
                * m_hat
                / (np.sqrt(v_hat) + 1e-8)
            )
            current[active] = np.clip(current[active] + update, 0.0, 3.0)
            steps_taken[active] = step + 1

            # One vectorized forward over the still-active stack: the
            # next ascent point, and the confidence of any element the
            # convergence mask freezes right here.
            scores, saved = kernel.forward(
                current[active], sched[active], masks[active], push[active],
                tag=tag,
            )
            rows = None
            tol_done = (
                np.abs(update).reshape(active.size, -1).max(axis=1) < tol
            )
            done = tol_done | (steps_taken[active] >= caps[active])
            if done.any():
                frozen = active[done]
                converged[frozen] = tol_done[done]
                confidence[frozen] = scores[done]
                active = active[~done]
                if active.size == 0:
                    break
                rows = np.flatnonzero(~done)
    if active.size:
        confidence[active] = scores if rows is None else scores[rows]

    _ASCENT_CALLS.inc()
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(int(steps_taken.sum()))
    _ASCENT_CONVERGED.add(int(converged.sum()))
    _ASCENT_BATCH.observe(batch)

    return [
        SurrogateResult(
            metrics=current[i].astype(np.float64, copy=True),
            confidence=float(confidence[i]),
            n_steps=int(steps_taken[i]),
            converged=bool(converged[i]),
        )
        for i in range(batch)
    ]
