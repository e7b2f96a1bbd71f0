"""Streaming Peak-Over-Threshold (POT) for confidence dips.

The paper gates GON fine-tuning with the POT method of Siffer et al.
(KDD'17): extreme-value theory fits a Generalised Pareto Distribution
(GPD) to threshold exceedances and converts a target risk ``q`` into a
dynamic threshold ``z_q`` that adapts to the incoming stream (§III-B).

CAROL watches the *lower* tail -- fine-tune when the confidence score
dips below the running threshold -- so we run SPOT on the negated
series internally.  The GPD is fitted by the method of moments, which
is robust at the small excess counts seen early in a run.

The estimator is incremental.  The sliding window is kept twice: in
arrival order (a deque) and as a list kept sorted by ``bisect`` insert
and remove, so each update costs one insertion and at most one
removal.  The initial threshold ``t`` is read from two order
statistics of the sorted copy; the excesses over it are gathered in
arrival order.

**Bit-identity contract.** Every threshold equals, bit for bit, the
full-window recompute with numpy's ``quantile`` (``linear``), ``mean``,
``var`` and ``clip`` that ``tests/pot_oracle.py`` keeps as the
reference.  The rules that make it hold, each mirroring numpy:

* virtual index ``(n - 1) * q`` (numpy's ``linear`` shortcut); an index
  at or past ``n - 1`` clips to the last order statistic;
* interpolation ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` when
  ``g >= 0.5`` (numpy's ``_lerp``);
* excesses in arrival order, because the pairwise sum depends on it;
* mean ``add.reduce(x) / n`` and variance ``add.reduce((x - mean)**2)
  / n``, the square taken in place: the order numpy's ``mean`` and
  ``var`` use, without their wrappers;
* ``np.log`` (not ``math.log``) on the ``|xi| < 1e-6`` branch.

The contract covers finite values.  They compare as floats, so ``0.0``
and ``-0.0`` are one value to the sorted window: with both in one
window, the sign of a zero threshold is not covered.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, List

import numpy as np

__all__ = ["PeakOverThreshold"]


class PeakOverThreshold:
    """Lower-tail streaming POT threshold estimator.

    Parameters
    ----------
    risk:
        Target probability ``q`` of observing a value below ``z_q``.
    init_quantile:
        Quantile of the calibration window used as the initial
        threshold ``t`` (the paper's implementation uses a low
        percentile of past confidence scores).
    calibration_size:
        Observations accumulated before the first threshold is emitted;
        until then :meth:`update` returns ``-inf`` so no fine-tuning
        triggers during warm-up.
    max_history:
        Cap on stored observations (sliding calibration for
        non-stationary streams).
    """

    def __init__(
        self,
        risk: float = 2e-2,
        init_quantile: float = 0.1,
        calibration_size: int = 20,
        max_history: int = 500,
    ) -> None:
        if not 0.0 < risk < 1.0:
            raise ValueError("risk must be in (0, 1)")
        if not 0.0 < init_quantile < 1.0:
            raise ValueError("init_quantile must be in (0, 1)")
        if calibration_size < 5:
            raise ValueError("calibration_size must be >= 5")
        self.risk = risk
        self.init_quantile = init_quantile
        self.calibration_size = calibration_size
        self.max_history = max_history
        self._window: Deque[float] = deque()  # arrival order
        self._sorted: List[float] = []  # the same values, ascending
        self.threshold: float = -np.inf

    # ------------------------------------------------------------------
    @property
    def n_observations(self) -> int:
        return len(self._window)

    @property
    def calibrated(self) -> bool:
        return len(self._window) >= self.calibration_size

    def update(self, value: float) -> float:
        """Ingest a confidence score; return the current threshold.

        The caller fine-tunes when ``value < threshold``.
        """
        value = float(value)
        self._window.append(value)
        insort(self._sorted, value)
        if len(self._window) > self.max_history:
            oldest = self._window.popleft()
            del self._sorted[bisect_left(self._sorted, oldest)]
        if not self.calibrated:
            self.threshold = -np.inf
            return self.threshold
        self.threshold = self._compute_threshold()
        return self.threshold

    # ------------------------------------------------------------------
    def _compute_threshold(self) -> float:
        """SPOT on the negated series (lower-tail extremes)."""
        ranked = self._sorted
        n = len(ranked)
        # Initial threshold: the high ``1 - init_quantile`` quantile of
        # the negated series (the low ``init_quantile`` of the raw
        # one).  Index ``i`` of the ascending negated series is
        # ``-ranked[n - 1 - i]``.
        virtual = (n - 1) * (1.0 - self.init_quantile)
        if virtual >= n - 1:
            # numpy reads index -1 on both sides and measures the
            # weight from -1; it matters only for the sign of a zero.
            below = above = -ranked[0]
            gamma = virtual + 1.0
        else:
            lo = int(virtual)
            below = -ranked[n - 1 - lo]
            above = -ranked[n - 2 - lo]
            gamma = virtual - lo
        diff = above - below
        if gamma >= 0.5:
            t = above - diff * (1.0 - gamma)
        else:
            t = below + diff * gamma
        # Peaks of the negated series are raw values below ``-t``.
        cut = -t
        n_excess = bisect_left(ranked, cut)
        if n_excess < 2:
            # Too few peaks for a tail fit; fall back to the empirical
            # initial threshold.
            return cut
        excesses = np.array([-v - t for v in self._window if v < cut])

        sigma, xi = self._fit_gpd(excesses)
        ratio = self.risk * n / n_excess
        if abs(xi) < 1e-6:
            z = t + sigma * np.log(1.0 / max(ratio, 1e-12))
        else:
            z = t + (sigma / xi) * (max(ratio, 1e-12) ** (-xi) - 1.0)
        # z is the upper-tail threshold of the negated series; flip
        # back to the confidence scale.  Guard against degenerate fits
        # pushing the trigger above the bulk of the data.
        z = max(z, t)
        return -float(z)

    @staticmethod
    def _fit_gpd(excesses: np.ndarray) -> tuple[float, float]:
        """Method-of-moments GPD fit: returns ``(sigma, xi)``."""
        n = len(excesses)
        mean = float(np.add.reduce(excesses) / n)
        deviations = excesses - mean
        np.multiply(deviations, deviations, out=deviations)
        var = float(np.add.reduce(deviations) / n)
        if var <= 1e-12 or mean <= 1e-12:
            return max(mean, 1e-6), 0.0
        ratio = mean * mean / var
        xi = 0.5 * (1.0 - ratio)
        sigma = 0.5 * mean * (ratio + 1.0)
        # Clamp to the range where moments exist and the fit is sane.
        xi = min(max(xi, -0.5), 0.49)
        return max(sigma, 1e-6), xi
