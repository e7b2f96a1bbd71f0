"""Proactive CAROL -- the paper's stated future-work extension (§VI).

The paper closes: "For stationary settings, we propose to extend the
current reactive model to a proactive scheme that is able to prevent
node failures.  However, proactive optimization may entail higher
computation for improved predictive performance."

This module implements that scheme on top of the reactive CAROL loop:

* every interval, the eq.-1 surrogate predicts next-interval metrics
  ``M*`` for the *current* topology;
* brokers whose predicted CPU+RAM pressure exceeds ``risk_threshold``
  are treated as at-risk, and a bounded tabu search runs over the
  node-shift neighbourhood *before* any failure materialises, shedding
  load off the endangered broker;
* the trade the paper anticipates is preserved and measurable: the
  per-interval prediction and occasional searches raise decision time
  (Fig. 5d axis) in exchange for fewer realised broker failures.

Campaigns sweep this scheme under the model name ``CAROL-Proactive``
(``python -m repro campaign --models carol-proactive ...``), in every
execution mode including ``--fleet``: the proactive loop scores all
its slates through the shared :class:`~repro.core.scoring.SurrogateScorer`
seam, so fleet runs consolidate into the batched scoring service, and
-- because ProactiveCAROL fine-tunes like reactive CAROL does -- rely
on the service's per-client weight overlays to stay there after the
POT gate first opens (see :mod:`repro.serving`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..simulator.detection import FailureReport
from ..simulator.engine import SystemView
from ..simulator.topology import Topology
from .carol import CAROL, CAROLConfig
from .gon import GONDiscriminator
from .nodeshift import neighbours, sample
from .scoring import SurrogateScorer
from .tabu import tabu_search

__all__ = ["ProactiveCAROL"]


class ProactiveCAROL(CAROL):
    """CAROL with failure *prevention* on top of reactive repair.

    Parameters
    ----------
    risk_threshold:
        Predicted per-broker CPU+RAM pressure above which the broker is
        considered at risk of byzantine failure next interval.
    """

    name = "CAROL-Proactive"

    def __init__(
        self,
        model: GONDiscriminator,
        alpha: float = 0.5,
        beta: float = 0.5,
        config: Optional[CAROLConfig] = None,
        risk_threshold: float = 1.0,
        scorer: Optional[SurrogateScorer] = None,
    ) -> None:
        super().__init__(model, alpha, beta, config, scorer=scorer)
        if risk_threshold <= 0:
            raise ValueError("risk_threshold must be positive")
        self.risk_threshold = risk_threshold
        #: Intervals on which a preventive search ran (telemetry).
        self.preventive_actions: List[int] = []

    def scorer_diagnostics(self) -> dict:
        counters = super().scorer_diagnostics()
        counters["preventive_actions"] = len(self.preventive_actions)
        return counters

    # ------------------------------------------------------------------
    def repair(
        self,
        view: SystemView,
        report: FailureReport,
        proposal: Topology,
    ) -> Topology:
        # Reactive behaviour first (failures always take precedence).
        chosen = super().repair(view, report, proposal)
        if report.failed_brokers or view.last_metrics is None:
            return chosen

        last = view.last_metrics
        schedule = np.asarray(last.schedule_encoding, dtype=float)
        metrics = np.asarray(last.host_metrics, dtype=float)
        ctx = self._context_hash(metrics, schedule)

        at_risk = self._at_risk_brokers(chosen, metrics, schedule, ctx)
        if not at_risk:
            return chosen

        # Preventive step: search for a topology that relieves the
        # endangered brokers, scored by the same surrogate objective
        # plus a risk penalty.

        def omega(
            candidates: List[Topology], keys=None, segments=()
        ) -> List[float]:
            # Whole slate through the shared persistent cache (one
            # vectorized eq.-1 ascent for the misses -- entries are
            # shared with the reactive repair and the risk prediction),
            # then the per-candidate risk penalty on each cached M*.
            scored = self.surrogate_scores(
                candidates, metrics, schedule, ctx=ctx, keys=keys,
                segments=segments,
            )
            return [
                value + self._risk_penalty(candidate, predicted)
                for candidate, (value, predicted) in zip(candidates, scored)
            ]

        def sampled(topology: Topology) -> List[Topology]:
            return sample(
                neighbours(topology), self.config.neighbourhood_sample, self.rng
            )

        result = tabu_search(
            chosen,
            objective=omega,
            neighbourhood=sampled,
            tabu_size=self.config.tabu_size,
            max_iterations=max(self.config.tabu_iterations // 2, 1),
            patience=self.config.tabu_patience,
        )
        self.preventive_actions.append(view.interval)
        final = result.best if result.best_score <= omega([chosen])[0] else chosen
        self.diagnostics.note_decision("preventive", final.canonical_key())
        return final

    # ------------------------------------------------------------------
    def _at_risk_brokers(
        self,
        topology: Topology,
        metrics: np.ndarray,
        schedule: np.ndarray,
        ctx: bytes,
    ) -> List[int]:
        """Brokers whose predicted pressure crosses the risk threshold.

        Prediction: the surrogate's M* for the current (S, G), read on
        the broker rows' CPU and RAM columns.  The prediction goes
        through the persistent score cache, so on quiet intervals it is
        usually already resident from the maintenance slate.
        """
        _value, predicted = self.surrogate_scores(
            [topology], metrics, schedule, ctx=ctx
        )[0]
        at_risk = []
        for broker in sorted(topology.brokers):
            pressure = float(predicted[broker, 0] + predicted[broker, 1])
            # Blend with the *observed* pressure so a cold surrogate
            # cannot mask an obviously overloaded broker.
            observed = float(metrics[broker, 0] + metrics[broker, 1])
            if max(pressure, observed) > self.risk_threshold:
                at_risk.append(broker)
        return at_risk

    @staticmethod
    def _risk_penalty(topology: Topology, predicted: np.ndarray) -> float:
        """Penalise candidate topologies with endangered brokers."""
        penalty = 0.0
        for broker in topology.brokers:
            pressure = float(predicted[broker, 0] + predicted[broker, 1])
            penalty += max(pressure - 1.0, 0.0)
        return penalty
