"""QoS objective ``O(M)`` (eq. 6-7 of the paper).

A convex combination of system-wide energy consumption and SLO
violation rates computed from the per-host metric matrix:

    q_energy = sum_i M[i, energy],  q_slo = sum_i M[i, slo]
    O(M) = alpha * q_energy + beta * q_slo,   alpha + beta = 1

Lower is better.  ``alpha = beta = 0.5`` throughout the paper's
experiments; energy-constrained deployments raise ``alpha``,
latency-critical ones raise ``beta`` (§IV-B).
"""

from __future__ import annotations

import numpy as np

from .features import ENERGY_COLUMN, SLO_COLUMN

__all__ = ["QoSObjective"]


class QoSObjective:
    """Callable computing ``O(M)`` from a metric matrix or a stack.

    A ``[n_hosts, features]`` matrix gives a float; a ``[k, n_hosts,
    features]`` stack gives the ``[k]`` vector of its matrices'
    objectives in one call, bitwise-equal to calling each matrix on its
    own.  The stack is read in C order, so numpy sums each matrix's
    column as the inner loop of the reduction, as it sums a lone
    column (pairwise from 8 hosts up); with the stack axis innermost
    it would add the hosts one by one instead.
    """

    def __init__(self, alpha: float = 0.5, beta: float = 0.5) -> None:
        if abs(alpha + beta - 1.0) > 1e-9:
            raise ValueError("alpha + beta must equal 1 (eq. 7)")
        if alpha < 0 or beta < 0:
            raise ValueError("weights must be non-negative")
        self.alpha = alpha
        self.beta = beta

    def __call__(self, metrics: np.ndarray):
        metrics = np.asarray(metrics)
        if metrics.ndim == 3:
            metrics = np.ascontiguousarray(metrics)
            q_energy = metrics[:, :, ENERGY_COLUMN].sum(axis=1)
            q_slo = metrics[:, :, SLO_COLUMN].sum(axis=1)
            return self.alpha * q_energy + self.beta * q_slo
        if metrics.ndim != 2:
            raise ValueError(
                "metrics must be a [n_hosts, features] matrix or a "
                "[k, n_hosts, features] stack"
            )
        q_energy = float(metrics[:, ENERGY_COLUMN].sum())
        q_slo = float(metrics[:, SLO_COLUMN].sum())
        return self.alpha * q_energy + self.beta * q_slo

    def components(self, metrics: np.ndarray) -> tuple[float, float]:
        """Return ``(q_energy, q_slo)`` separately."""
        metrics = np.asarray(metrics)
        return (
            float(metrics[:, ENERGY_COLUMN].sum()),
            float(metrics[:, SLO_COLUMN].sum()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QoSObjective(alpha={self.alpha}, beta={self.beta})"
