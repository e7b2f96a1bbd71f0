"""Ablated CAROL variants (§V-D, the hatched bars of Fig. 5).

* **AlwaysFineTune** -- CAROL without the confidence gate: the GON is
  fine-tuned every interval, inflating overheads and decision latency.
* **NeverFineTune** -- CAROL that never adapts, degrading QoS in the
  non-stationary AIoT workload.
* **WithGAN** -- the GON is replaced by a conventional GAN surrogate:
  a generator predicts metrics in one forward pass (faster decisions,
  no input-space optimisation) at ~6x the memory (Fig. 5e's 5% -> 30%).
  Like the GAN detectors of §II, the generator's flat output ties it to
  a fixed host count.
* **WithTraditionalSurrogate** -- a plain feed-forward regressor maps
  state summaries to QoS.  Decisions are fast but, lacking a confidence
  signal, it must fine-tune every interval.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

import numpy as np

from ..core.carol import CAROL, CAROLConfig, tabu_repair
from ..core.features import GONInput, from_interval
from ..core.gon import GONDiscriminator
from ..core.interface import ResilienceModel
from ..core.objectives import QoSObjective
from ..core.pot import PeakOverThreshold
from ..nn import Adam, FeedForward, Tensor, mse_loss
from ..simulator.detection import FailureReport
from ..simulator.engine import SystemView
from ..simulator.metrics import IntervalMetrics
from ..simulator.topology import Topology

__all__ = [
    "AlwaysFineTune",
    "NeverFineTune",
    "GANSurrogate",
    "WithGAN",
    "TraditionalSurrogate",
    "WithTraditionalSurrogate",
    "summary_features",
]


class AlwaysFineTune(CAROL):
    """CAROL fine-tuning at every scheduling interval (no POT gate)."""

    name = "CAROL-AlwaysFT"

    def observe(self, metrics: IntervalMetrics, view: SystemView) -> None:
        sample = from_interval(metrics)
        # CAROL's Γ buffer is a bounded deque: eviction is automatic.
        self.buffer.append(sample)
        confidence = self.scorer.confidence(sample)
        threshold = self.pot.update(confidence)
        if len(self.buffer) >= 2:
            # Through the scorer so the generation bump flushes the
            # persistent score cache (the model just changed).
            self.scorer.fine_tune(
                list(self.buffer)[-self.config.min_buffer:],
                config=self._training_config,
                iterations=1,
                rng=self.rng,
            )
            self._invalidate_score_cache()
        self.diagnostics.confidences.append(confidence)
        self.diagnostics.thresholds.append(
            threshold if np.isfinite(threshold) else float("nan")
        )
        self.diagnostics.fine_tuned.append(True)


class NeverFineTune(CAROL):
    """CAROL that never adapts its GON after offline training."""

    name = "CAROL-NeverFT"

    def observe(self, metrics: IntervalMetrics, view: SystemView) -> None:
        sample = from_interval(metrics)
        confidence = self.scorer.confidence(sample)
        threshold = self.pot.update(confidence)
        self.diagnostics.confidences.append(confidence)
        self.diagnostics.thresholds.append(
            threshold if np.isfinite(threshold) else float("nan")
        )
        self.diagnostics.fine_tuned.append(False)


# ----------------------------------------------------------------------
# GAN ablation
# ----------------------------------------------------------------------
def summary_features(sample: GONInput) -> np.ndarray:
    """Fixed-size global summary of an (M, S, G) tuple."""
    metrics = sample.metrics
    schedule = sample.schedule
    adjacency = sample.adjacency
    degrees = adjacency.sum(axis=1)
    return np.concatenate(
        [
            metrics.mean(axis=0),
            metrics.max(axis=0),
            schedule.mean(axis=0),
            [
                degrees.mean() / max(sample.n_hosts, 1),
                degrees.max() / max(sample.n_hosts, 1),
                float((degrees > degrees.mean()).sum()) / max(sample.n_hosts, 1),
            ],
        ]
    )


class GANSurrogate:
    """Conventional GAN: generator predicts M from (S, G) + noise.

    The generator emits a *flat* ``n_hosts x n_features`` block, so --
    unlike the GON -- the model is tied to the host count it was built
    for (a §II criticism of GAN detectors the ablation preserves).
    """

    def __init__(
        self,
        n_hosts: int,
        rng: np.random.Generator,
        hidden: int = 256,
        noise_dim: int = 16,
        n_m_features: int = 10,
        n_s_features: int = 3,
    ) -> None:
        self.n_hosts = n_hosts
        self.noise_dim = noise_dim
        self.n_m_features = n_m_features
        condition_dim = n_hosts * n_s_features + 3
        self.generator = FeedForward(
            condition_dim + noise_dim,
            n_hosts * n_m_features,
            rng,
            hidden=hidden,
            layers=4,
            activation="relu",
            final_activation="sigmoid",
        )
        self.discriminator = GONDiscriminator(rng, hidden=hidden // 2, n_layers=3)
        self.g_optimizer = Adam(self.generator.parameters(), lr=1e-3, weight_decay=1e-5)
        self.d_optimizer = Adam(
            self.discriminator.parameters(), lr=1e-3, weight_decay=1e-5
        )
        self.rng = rng

    # ------------------------------------------------------------------
    def _condition(self, schedule: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
        degrees = adjacency.sum(axis=1)
        return np.concatenate(
            [
                schedule.reshape(-1),
                [
                    degrees.mean() / self.n_hosts,
                    degrees.max() / self.n_hosts,
                    degrees.std() / self.n_hosts,
                ],
            ]
        )

    def predict_metrics(
        self, schedule: np.ndarray, adjacency: np.ndarray
    ) -> np.ndarray:
        """One deterministic generator pass (zero noise)."""
        condition = self._condition(schedule, adjacency)
        inputs = np.concatenate([condition, np.zeros(self.noise_dim)])
        output = self.generator(Tensor(inputs)).data
        return output.reshape(self.n_hosts, self.n_m_features) * 3.0

    def confidence(self, sample: GONInput) -> float:
        return self.discriminator.score(sample)

    def train_step(self, sample: GONInput) -> float:
        """One adversarial step on a single (M, S, G) sample."""
        condition = self._condition(sample.schedule, sample.adjacency)
        noise = self.rng.normal(size=self.noise_dim)
        inputs = np.concatenate([condition, noise])

        # Discriminator update.
        fake = self.generator(Tensor(inputs)).data.reshape(
            self.n_hosts, self.n_m_features
        ) * 3.0
        self.d_optimizer.zero_grad()
        d_real = self.discriminator(
            sample.metrics, sample.schedule, sample.adjacency
        ).clip(1e-8, 1 - 1e-8)
        d_fake = self.discriminator(
            fake, sample.schedule, sample.adjacency
        ).clip(1e-8, 1 - 1e-8)
        d_loss = -(d_real.log() + (1.0 - d_fake).log())
        d_loss.backward()
        self.d_optimizer.step()

        # Generator update (non-saturating).
        self.g_optimizer.zero_grad()
        generated = self.generator(Tensor(inputs)).reshape(
            self.n_hosts, self.n_m_features
        ) * 3.0
        g_score = self.discriminator(
            generated, sample.schedule, sample.adjacency
        ).clip(1e-8, 1 - 1e-8)
        g_loss = -g_score.log()
        g_loss.backward()
        self.g_optimizer.step()
        return float(d_loss.data)

    def fit(self, samples: Sequence[GONInput], epochs: int = 3) -> None:
        """Offline pre-training over the trace."""
        for _ in range(epochs):
            order = self.rng.permutation(len(samples))
            for index in order:
                self.train_step(samples[index])

    def parameter_count(self) -> int:
        return (
            self.generator.parameter_count()
            + self.discriminator.parameter_count()
        )

    def memory_bytes(self) -> int:
        return 3 * 8 * self.parameter_count()


class WithGAN(ResilienceModel):
    """CAROL's loop with a GAN surrogate instead of the GON."""

    name = "CAROL-WithGAN"

    def __init__(
        self,
        surrogate: GANSurrogate,
        alpha: float = 0.5,
        beta: float = 0.5,
        config: Optional[CAROLConfig] = None,
    ) -> None:
        self.surrogate = surrogate
        self.config = config or CAROLConfig()
        self.objective = QoSObjective(alpha, beta)
        self.pot = PeakOverThreshold(
            risk=self.config.pot_risk,
            calibration_size=self.config.pot_calibration,
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.buffer: Deque[GONInput] = deque(maxlen=self.config.buffer_capacity)

    def repair(
        self,
        view: SystemView,
        report: FailureReport,
        proposal: Topology,
    ) -> Topology:
        if not report.failed_brokers or view.last_metrics is None:
            return proposal
        last = view.last_metrics
        schedule = np.asarray(last.schedule_encoding, dtype=float)

        def omega(candidates: List[Topology], keys, segments) -> List[float]:
            # Single generator forward per candidate -- no input-space
            # optimisation, hence the lower decision time of the
            # ablation (§V-D).  Each candidate scores alone, so every
            # group of ``segments`` does too.
            return [
                self.objective(
                    self.surrogate.predict_metrics(schedule, candidate.adjacency())
                )
                for candidate in candidates
            ]

        return tabu_repair(report, proposal, omega, self.rng, self.config)[0]

    def observe(self, metrics: IntervalMetrics, view: SystemView) -> None:
        sample = from_interval(metrics)
        report = metrics.failure_report
        if not (report and report.failed_brokers):
            self.buffer.append(sample)
        confidence = self.surrogate.confidence(sample)
        threshold = self.pot.update(confidence)
        if confidence < threshold and len(self.buffer) >= self.config.min_buffer:
            for stored in list(self.buffer)[-self.config.min_buffer:]:
                self.surrogate.train_step(stored)
            self.buffer.clear()

    def memory_bytes(self) -> int:
        buffer_bytes = sum(
            s.metrics.nbytes + s.schedule.nbytes + s.adjacency.nbytes
            for s in self.buffer
        )
        return self.surrogate.memory_bytes() + buffer_bytes


# ----------------------------------------------------------------------
# Traditional feed-forward surrogate ablation
# ----------------------------------------------------------------------
class TraditionalSurrogate:
    """Plain MLP regressor: state summary -> QoS objective."""

    def __init__(self, rng: np.random.Generator, hidden: int = 128) -> None:
        self.feature_dim = 2 * 10 + 3 + 3
        self.network = FeedForward(
            self.feature_dim, 1, rng,
            hidden=hidden, layers=3,
            activation="relu", final_activation="identity",
        )
        self.optimizer = Adam(self.network.parameters(), lr=1e-3, weight_decay=1e-5)

    def predict(self, sample: GONInput) -> float:
        features = summary_features(sample)
        return float(self.network(Tensor(features)).data.reshape(-1)[0])

    def fit_step(self, sample: GONInput, target: float) -> float:
        self.optimizer.zero_grad()
        features = summary_features(sample)
        prediction = self.network(Tensor(features)).reshape(())
        loss = mse_loss(prediction, np.array(target))
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    def fit(
        self,
        samples: Sequence[GONInput],
        objectives: Sequence[float],
        epochs: int = 10,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        for _ in range(epochs):
            for index in rng.permutation(len(samples)):
                self.fit_step(samples[index], objectives[index])

    def memory_bytes(self) -> int:
        return 3 * 8 * self.network.parameter_count()


class WithTraditionalSurrogate(ResilienceModel):
    """Tabu repair over a feed-forward surrogate, fine-tuned always."""

    name = "CAROL-FFSurrogate"

    def __init__(
        self,
        surrogate: TraditionalSurrogate,
        alpha: float = 0.5,
        beta: float = 0.5,
        config: Optional[CAROLConfig] = None,
        fine_tune_steps: int = 24,
    ) -> None:
        self.surrogate = surrogate
        self.config = config or CAROLConfig()
        self.objective = QoSObjective(alpha, beta)
        self.rng = np.random.default_rng(self.config.seed)
        self.fine_tune_steps = fine_tune_steps
        self._buffer: Deque[tuple] = deque(maxlen=100)

    def repair(
        self,
        view: SystemView,
        report: FailureReport,
        proposal: Topology,
    ) -> Topology:
        if not report.failed_brokers or view.last_metrics is None:
            return proposal
        last = view.last_metrics
        metrics = np.asarray(last.host_metrics, dtype=float)
        schedule = np.asarray(last.schedule_encoding, dtype=float)

        def omega(candidates: List[Topology], keys, segments) -> List[float]:
            # Each candidate scores alone, so every group does too.
            return [
                self.surrogate.predict(
                    GONInput(metrics, schedule, candidate.adjacency())
                )
                for candidate in candidates
            ]

        return tabu_repair(report, proposal, omega, self.rng, self.config)[0]

    def observe(self, metrics: IntervalMetrics, view: SystemView) -> None:
        sample = from_interval(metrics)
        energy = float(metrics.host_metrics[:, 4].sum())
        slo = float(metrics.host_metrics[:, 5].sum())
        objective = self.objective.alpha * energy + self.objective.beta * slo
        self._buffer.append((sample, objective))
        # No confidence signal: fine-tune every interval (§V-D: "at the
        # cost of higher fine-tuning overheads").
        for _ in range(self.fine_tune_steps):
            index = int(self.rng.integers(len(self._buffer)))
            stored, target = self._buffer[index]
            self.surrogate.fit_step(stored, target)

    def memory_bytes(self) -> int:
        buffer_bytes = sum(
            s.metrics.nbytes + s.schedule.nbytes + s.adjacency.nbytes
            for s, _ in self._buffer
        )
        return self.surrogate.memory_bytes() + buffer_bytes
