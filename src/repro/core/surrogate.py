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

Adam runs as a fixed sequence of in-place ufuncs on preallocated
``[k, n, F]`` state, and the kernel forward reads the whole stack, so
a step does no fancy-index gathers or scatters.  Convergence is
tracked per batch element: an element whose update norm falls below
``tol`` -- or that reaches its own step cap -- freezes (its metrics,
step count and confidence are finalised) and the stack is compacted
to the survivors on that step only, so each element follows exactly
the trajectory a one-element ascent would.  Results come back in
input order.
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
        Ascent step size (the learning rate swept in Fig. 6a; positive
        and finite) and step cap.  Either may be a per-element vector,
        which is what lets the scoring service fuse requests with
        different hyper-parameters into one call.
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
    gamma = np.asarray(gamma, dtype=float)
    # ``not (gamma > 0)`` also catches NaN, which ``gamma <= 0`` lets by.
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise ValueError("gamma must be positive and finite")
    step_sizes = np.broadcast_to(gamma, (batch,)).astype(dtype)[:, None, None]
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

    # Read-only inputs are never copied here (broadcast views pass
    # through); compaction below makes the survivors' own arrays.
    sched = np.asarray(schedules, dtype=dtype)
    masks, push = kernel.graph_inputs(adjacencies)
    first_moment = np.zeros_like(current)
    second_moment = np.zeros_like(current)
    scratch = np.empty_like(current)
    update = np.empty_like(current)
    beta1, beta2 = 0.9, 0.999
    # Input indices of the stack's rows; None while no row has frozen.
    order: Optional[np.ndarray] = None
    cap_floor = int(caps.min())
    # Frozen rows: (input indices or None, metrics, steps, converged,
    # confidences) -- read out after the loop.
    frozen: list = []

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
        n_steps = 0
        for step in range(int(caps.max(initial=0))):
            gradient = kernel.input_gradient(saved, rows)
            if rows is not None:
                gradient = gradient[rows]
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
            n_steps = step + 1

            # One vectorized forward over the stack: the next ascent
            # point, and the confidence of any element that freezes
            # right here.
            scores, saved = kernel.forward(
                current, sched, masks, push, tag=tag
            )
            rows = None
            np.abs(update, out=scratch)
            largest = np.maximum.reduce(
                scratch.reshape(len(current), -1), axis=1
            )
            tol_done = largest < tol
            done = tol_done if n_steps < cap_floor else (
                tol_done | (caps <= n_steps)
            )
            if not done.any():
                continue
            if done.all():
                frozen.append((order, current, n_steps, tol_done, scores))
                break
            # Compact the stack once, on the step elements freeze.
            frozen.append((
                np.flatnonzero(done) if order is None else order[done],
                current[done], n_steps, tol_done[done], scores[done],
            ))
            keep = ~done
            rows = np.flatnonzero(keep)
            order = rows if order is None else order[keep]
            current = current[keep]
            first_moment = first_moment[keep]
            second_moment = second_moment[keep]
            sched = sched[keep]
            masks = masks[keep]
            push = push[keep]
            step_sizes = step_sizes[keep]
            caps = caps[keep]
            cap_floor = int(caps.min())
            scratch = np.empty_like(current)
            update = np.empty_like(current)
        else:
            # No step ran (every cap is 0): the start point is final.
            frozen.append((None, current, 0, np.zeros(batch, bool), scores))

    results: List[SurrogateResult] = [None] * batch  # type: ignore[list-item]
    for indices, metrics, n_steps, converged, confidences in frozen:
        for index, row, hit, confidence in zip(
            range(batch) if indices is None else indices.tolist(),
            metrics.astype(np.float64, copy=False),
            converged.tolist(),
            confidences.tolist(),
        ):
            results[index] = SurrogateResult(
                metrics=row, confidence=confidence, n_steps=n_steps,
                converged=hit,
            )

    _ASCENT_CALLS.inc()
    _ASCENT_ELEMENTS.add(batch)
    _ASCENT_STEPS.add(sum(r.n_steps for r in results))
    _ASCENT_CONVERGED.add(sum(r.converged for r in results))
    _ASCENT_BATCH.observe(batch)
    return results
