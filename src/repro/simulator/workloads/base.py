"""Workload generator framework.

Generators produce :class:`~repro.simulator.task.TaskSpec` draws around
per-application envelopes and are explicitly *non-stationary*: demand
statistics drift via a bounded random walk and occasionally jump
regime, reproducing the paper's setting where "statistical moments and
correlations of the workload characteristics are non-stationary and
vary over time" (§I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..task import TaskSpec

__all__ = ["ApplicationProfile", "WorkloadGenerator"]


@dataclass(frozen=True)
class ApplicationProfile:
    """Mean resource envelope for one benchmark application."""

    name: str
    mean_mi: float
    mean_ram_gb: float
    mean_disk_mb: float
    mean_net_mb: float
    slo_seconds: float
    #: Coefficient of variation applied to each demand draw.
    cv: float = 0.25

    def __post_init__(self) -> None:
        if min(self.mean_mi, self.mean_ram_gb, self.mean_disk_mb,
               self.mean_net_mb, self.slo_seconds) < 0:
            raise ValueError("profile means must be non-negative")
        if self.mean_mi <= 0:
            raise ValueError("mean_mi must be positive")
        if not 0 <= self.cv < 1:
            raise ValueError("cv must be in [0, 1)")


class WorkloadGenerator:
    """Poisson bag-of-tasks generator over a set of application profiles.

    Parameters
    ----------
    profiles:
        Application envelopes sampled uniformly at random per task
        (§V-A: "sampled uniformly from the ... applications").
    arrival_rate:
        Poisson rate of new tasks per LEI per interval (paper: 1.2).
    rng:
        Random source.
    drift_scale / jump_probability:
        Non-stationarity knobs: per-interval multiplicative random walk
        on demand means, and the chance of an abrupt regime change.
    """

    def __init__(
        self,
        profiles: Sequence[ApplicationProfile],
        arrival_rate: float,
        rng: np.random.Generator,
        drift_scale: float = 0.02,
        jump_probability: float = 0.01,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one application profile")
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.profiles = list(profiles)
        self.arrival_rate = arrival_rate
        self.rng = rng
        self.drift_scale = drift_scale
        self.jump_probability = jump_probability
        #: Multiplicative demand modifier, one per profile (random walk).
        self._regime = np.ones(len(self.profiles))

    # ------------------------------------------------------------------
    def advance_regime(self) -> None:
        """One step of the non-stationary demand process."""
        walk = self.rng.normal(0.0, self.drift_scale, size=len(self.profiles))
        self._regime = np.clip(self._regime * np.exp(walk), 0.4, 2.5)
        if self.rng.random() < self.jump_probability:
            # Regime jump: demand statistics shift abruptly.
            self._regime = np.clip(
                self._regime * self.rng.uniform(0.6, 1.8, size=len(self.profiles)),
                0.4,
                2.5,
            )

    def tasks_for_interval(
        self, n_leis: int, rate_multiplier: float = 1.0
    ) -> List[TaskSpec]:
        """Draw the new-task bag for one interval across all LEIs.

        ``rate_multiplier`` scales the arrival rate for this interval
        only -- the hook through which flash-crowd surges and diurnal
        load curves modulate the gateway-side arrival process.
        """
        if rate_multiplier < 0:
            raise ValueError("rate_multiplier must be non-negative")
        self.advance_regime()
        total = int(self.rng.poisson(self.arrival_rate * n_leis * rate_multiplier))
        return [self._draw_task() for _ in range(total)]

    # ------------------------------------------------------------------
    def _draw_task(self) -> TaskSpec:
        index = int(self.rng.integers(len(self.profiles)))
        profile = self.profiles[index]
        scale = self._regime[index]

        def noisy(mean: float) -> float:
            if mean == 0:
                return 0.0
            draw = self.rng.normal(1.0, profile.cv)
            return max(mean * scale * draw, mean * 0.1)

        return TaskSpec(
            application=profile.name,
            total_mi=noisy(profile.mean_mi),
            ram_gb=noisy(profile.mean_ram_gb),
            disk_mb=noisy(profile.mean_disk_mb),
            net_mb=noisy(profile.mean_net_mb),
            slo_seconds=profile.slo_seconds,
        )
