"""The full-window POT recompute: the parity oracle for the streaming gate.

Production runs :class:`repro.core.pot.PeakOverThreshold`, which keeps
its window sorted as it slides and reads the SPOT threshold from two
order statistics.  This module keeps the reference it is gated
against: the original estimator, which rebuilds the whole window on
every update and fits it with ``np.quantile``, ``np.mean``, ``np.var``
and ``np.clip``.  Every threshold the streaming gate emits must equal
this one bit for bit.

Test modules import it directly (``tests/`` is on ``sys.path`` under
pytest).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["OraclePeakOverThreshold"]


class OraclePeakOverThreshold:
    """Lower-tail POT threshold, recomputed from the whole window."""

    def __init__(
        self,
        risk: float = 2e-2,
        init_quantile: float = 0.1,
        calibration_size: int = 20,
        max_history: int = 500,
    ) -> None:
        self.risk = risk
        self.init_quantile = init_quantile
        self.calibration_size = calibration_size
        self.max_history = max_history
        self._values: List[float] = []
        self.threshold: float = -np.inf

    @property
    def n_observations(self) -> int:
        return len(self._values)

    @property
    def calibrated(self) -> bool:
        return len(self._values) >= self.calibration_size

    def update(self, value: float) -> float:
        self._values.append(float(value))
        if len(self._values) > self.max_history:
            self._values.pop(0)
        if not self.calibrated:
            self.threshold = -np.inf
            return self.threshold
        self.threshold = self._compute_threshold()
        return self.threshold

    def _compute_threshold(self) -> float:
        series = -np.asarray(self._values)
        n = len(series)
        t = float(np.quantile(series, 1.0 - self.init_quantile))
        excesses = series[series > t] - t
        n_excess = len(excesses)
        if n_excess < 2:
            return -t

        sigma, xi = self._fit_gpd(excesses)
        ratio = self.risk * n / n_excess
        if abs(xi) < 1e-6:
            z = t + sigma * np.log(1.0 / max(ratio, 1e-12))
        else:
            z = t + (sigma / xi) * (max(ratio, 1e-12) ** (-xi) - 1.0)
        z = max(z, t)
        return -float(z)

    @staticmethod
    def _fit_gpd(excesses: np.ndarray) -> tuple[float, float]:
        mean = float(np.mean(excesses))
        var = float(np.var(excesses))
        if var <= 1e-12 or mean <= 1e-12:
            return max(mean, 1e-6), 0.0
        ratio = mean * mean / var
        xi = 0.5 * (1.0 - ratio)
        sigma = 0.5 * mean * (ratio + 1.0)
        xi = float(np.clip(xi, -0.5, 0.49))
        return max(sigma, 1e-6), xi
