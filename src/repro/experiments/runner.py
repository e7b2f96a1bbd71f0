"""Experiment runner: drive a resilience model on the co-simulator.

One function, :func:`run_experiment`, executes the four-phase interval
protocol for any :class:`~repro.core.interface.ResilienceModel` and
measures -- from the outside -- the three cost metrics of Fig. 5:
decision time (the ``repair`` call), fine-tuning overhead (the
``observe`` call) and the model's memory footprint.

Model compute is charged back to the simulated brokers: a second of
Python wall-time on this machine corresponds to ``edge_slowdown``
seconds on a Raspberry Pi-class broker (single-core ratio between a
workstation core and the Pi 4B's A72), reproducing the paper's causal
link between fine-tuning overhead and broker contention (§I).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import ExperimentConfig
from ..core.interface import ResilienceModel
from ..simulator.engine import EdgeFederation
from ..simulator.metrics import RunMetrics

__all__ = ["run_experiment", "ExperimentResult", "EDGE_SLOWDOWN"]

#: Wall-time multiplier mapping workstation-Python seconds to Pi-class
#: broker seconds.
EDGE_SLOWDOWN = 25.0


@dataclass
class ExperimentResult:
    """A model's run plus its identity, ready for the Fig. 5 tables."""

    model_name: str
    metrics: RunMetrics

    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()


def run_experiment(
    model: ResilienceModel,
    config: ExperimentConfig,
    federation: Optional[EdgeFederation] = None,
    edge_slowdown: float = EDGE_SLOWDOWN,
) -> ExperimentResult:
    """Run ``model`` for ``config.n_intervals`` scheduling intervals."""
    federation = federation or EdgeFederation(config)
    run = RunMetrics()
    previous_overhead_seconds = 0.0

    for _ in range(config.n_intervals):
        report = federation.begin_interval()
        proposal = federation.propose_topology()
        view = federation.view

        started = time.perf_counter()
        topology = model.repair(view, report, proposal)
        decision_seconds = time.perf_counter() - started
        federation.set_topology(topology)

        # The model's compute and memory live on the brokers.
        federation.set_management_profile(
            cpu_seconds=min(
                (decision_seconds + previous_overhead_seconds) * edge_slowdown,
                config.federation.interval_seconds,
            ),
            memory_gb=model.memory_bytes() / 1024 ** 3,
        )

        metrics = federation.run_interval()

        started = time.perf_counter()
        model.observe(metrics, federation.view)
        overhead_seconds = time.perf_counter() - started

        run.add(metrics)
        run.decision_times.append(decision_seconds)
        run.fine_tune_times.append(overhead_seconds)
        previous_overhead_seconds = overhead_seconds

    run.model_memory_bytes = model.memory_bytes()
    return ExperimentResult(model_name=model.name, metrics=run)
