"""Host power models.

Energy is a first-class QoS metric in the paper (eq. 6-7); the testbed
measures it per Raspberry-Pi node.  We model power as a piecewise-linear
interpolation over CPU utilisation, anchored at published Pi-4B
measurements (idle ~2.7 W, all-cores-loaded ~6.4 W, with throttling
headroom up to ~7.3 W under combined CPU+IO stress).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "InterpolatedPowerModel",
    "PI4B_POWER",
    "NUC_POWER",
    "XEON_POWER",
]


class InterpolatedPowerModel:
    """Piecewise-linear power curve through measured (util, watts) points.

    Maps CPU utilisation in [0, 1+] to instantaneous watts.

    Utilisation beyond the last anchor saturates at the final wattage,
    modelling thermal throttling under over-utilisation attacks.
    """

    def __init__(self, utilisations: Sequence[float], watts: Sequence[float]) -> None:
        utilisations = np.asarray(utilisations, dtype=float)
        watts_arr = np.asarray(watts, dtype=float)
        if utilisations.ndim != 1 or utilisations.shape != watts_arr.shape:
            raise ValueError("utilisations and watts must be equal-length 1-D")
        if len(utilisations) < 2:
            raise ValueError("need at least two anchor points")
        if np.any(np.diff(utilisations) <= 0):
            raise ValueError("utilisation anchors must be strictly increasing")
        if np.any(watts_arr < 0):
            raise ValueError("watts must be non-negative")
        self._utils = utilisations
        self._watts = watts_arr

    def watts(self, cpu_utilisation: float) -> float:
        return float(np.interp(cpu_utilisation, self._utils, self._watts))


#: Measured Raspberry Pi 4B curve (util fraction -> watts).
PI4B_POWER = InterpolatedPowerModel(
    utilisations=[0.0, 0.25, 0.5, 0.75, 1.0, 1.5],
    watts=[2.7, 4.0, 5.0, 5.8, 6.4, 7.3],
)

#: Intel NUC (i5-class mini PC) curve, anchored at published SPECpower-
#: style measurements: ~6 W idle, ~32 W all-cores, throttling headroom.
NUC_POWER = InterpolatedPowerModel(
    utilisations=[0.0, 0.25, 0.5, 0.75, 1.0, 1.5],
    watts=[6.0, 14.0, 21.0, 27.0, 32.0, 36.0],
)

#: Single-socket Xeon edge server curve (~55 W idle, ~150 W loaded).
XEON_POWER = InterpolatedPowerModel(
    utilisations=[0.0, 0.25, 0.5, 0.75, 1.0, 1.5],
    watts=[55.0, 85.0, 110.0, 132.0, 150.0, 165.0],
)
