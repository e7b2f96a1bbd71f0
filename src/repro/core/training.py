"""GON training (Algorithm 1) and confidence-gated fine-tuning.

Adversarial minibatch training without a generator network: fake
samples ``Z*`` are *generated by the discriminator itself* via the
eq.-1 input-space ascent, then the discriminator ascends

    (1/m) sum_i [ log D(M_i, S_i, G_i) + log(1 - D(Z*_i, S_i, G_i)) ]

so real datapoints score high and self-generated ones are pushed to be
indistinguishable from data -- the GON objective of Tuli et al. (2021).
Training uses Adam (lr 1e-4, weight decay 1e-5), batch size 32, an
80/20 train/test split and early stopping; converged runs take ~30
epochs (Fig. 4).

Every minibatch runs fully vectorized: fake-sample generation is one
batched eq.-1 ascent over the whole batch -- on a graph-free
:class:`~repro.core.fastscore.FastGONKernel` exported from the current
weights, the same ascent path decisions use -- and the discriminator
loss is a single autodiff graph over the stacked real+fake scores (see
:mod:`repro.core.surrogate` for the batched conventions).

The epoch loop runs only what it reads: early stopping reads the loss,
so training makes one eq.-1 ascent per minibatch and nothing else.
The test-set curves of Fig. 4 (generation MSE and mean confidence) are
scored from per-epoch weight snapshots when a reader first asks for
them (:class:`TrainingHistory`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam, EarlyStopping, Tensor, minibatches, train_test_split
from .fastscore import FastGONKernel
from .features import GONInput
from .gon import GONDiscriminator
from .surrogate import generate_metrics_batch

__all__ = ["TrainingConfig", "TrainingHistory", "train_gon", "fine_tune", "evaluate"]

_EPS = 1e-8


def _host_count_groups(samples: Sequence[GONInput]) -> List[List[int]]:
    """Index groups of equal host count, in first-appearance order.

    Batched passes need uniform ``[B, n_hosts, F]`` stacks; traces from
    one federation share a host count, so this is normally one group.
    """
    groups: dict = {}
    for i, sample in enumerate(samples):
        groups.setdefault(sample.n_hosts, []).append(i)
    return list(groups.values())


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of Algorithm 1 (§IV-E defaults)."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    #: Ascent step size for fake-sample generation (gamma of eq. 1).
    #: The paper's best value is 1e-3 on its feature scales; on our
    #: normalised encodings the optimum shifts one decade up (the
    #: Fig. 6a sweep reproduces the same U-shape around it).
    generation_gamma: float = 1e-2
    #: Ascent iterations per fake sample during training.  The paper
    #: runs "till convergence"; a fixed bound keeps edge training cheap.
    generation_steps: int = 30
    test_fraction: float = 0.2
    early_stopping_patience: int = 5
    seed: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch curves (the Fig. 4 series).

    Training records ``losses``, ``stopped_epoch`` and ``wall_seconds``
    (the training loop alone: no test-set scoring is timed) and keeps a
    ``state_dict()`` copy of each epoch's weights with the test split,
    the GON architecture and :func:`evaluate`'s ``gamma``/``steps``.
    The first read of ``mses``, ``confidences`` or :meth:`rows` scores
    every snapshot with :func:`evaluate`, caches both curves and drops
    the snapshots.  ``evaluate`` draws from its own ``default_rng(0)``
    on a kernel exported from the weights, so the curves equal a
    per-epoch evaluation during training bit for bit.
    """

    losses: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    stopped_epoch: int = 0
    snapshots: List[Dict[str, np.ndarray]] = field(
        default_factory=list, repr=False, compare=False
    )
    test_set: Sequence[GONInput] = field(default=(), repr=False, compare=False)
    architecture: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    gamma: float = 1e-3
    steps: int = 10
    _curves: Optional[Tuple[List[float], List[float]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _scored(self) -> Tuple[List[float], List[float]]:
        """(mses, confidences), scoring the snapshots on first call."""
        if self._curves is None:
            model = GONDiscriminator(
                np.random.default_rng(0), **self.architecture
            )
            mses, confidences = [], []
            for state in self.snapshots:
                model.load_state_dict(state)
                mse, confidence = evaluate(
                    model, self.test_set, gamma=self.gamma, steps=self.steps
                )
                mses.append(mse)
                confidences.append(confidence)
            self._curves = (mses, confidences)
            self.snapshots = []
        return self._curves

    @property
    def mses(self) -> List[float]:
        """Test-set MSE of eq.-1 generated metrics after each epoch."""
        return self._scored()[0]

    @property
    def confidences(self) -> List[float]:
        """Mean test-set confidence after each epoch."""
        return self._scored()[1]

    def rows(self) -> List[tuple]:
        """(epoch, loss, mse, confidence) rows for reporting."""
        return [
            (epoch, loss, mse, confidence)
            for epoch, (loss, mse, confidence) in enumerate(
                zip(self.losses, self.mses, self.confidences), start=1
            )
        ]


def _gon_loss_batch(
    model: GONDiscriminator,
    reals: Sequence[GONInput],
    fake_metrics: np.ndarray,
) -> Tensor:
    """Summed adversarial log-likelihood loss over a uniform stack.

    Real and eq.-1-generated samples share schedules and adjacencies,
    so both halves run through one ``2B``-wide vectorized forward.
    """
    batch = len(reals)
    schedule = np.stack([s.schedule for s in reals])
    adjacency = np.stack([s.adjacency for s in reals])
    metrics = np.concatenate(
        [np.stack([s.metrics for s in reals]), fake_metrics]
    )
    scores = model.forward_batch(
        metrics,
        np.concatenate([schedule, schedule]),
        np.concatenate([adjacency, adjacency]),
    )
    real_score, fake_score = scores[:batch], scores[batch:]
    log_real = real_score.clip(_EPS, 1.0 - _EPS).log()
    log_fake = (1.0 - fake_score).clip(_EPS, 1.0 - _EPS).log()
    return -(log_real + log_fake).sum()


def _train_step(
    model: GONDiscriminator,
    optimizer: Adam,
    batch: Sequence[GONInput],
    config: TrainingConfig,
    rng: np.random.Generator,
) -> float:
    """One minibatch of Algorithm 1; returns the mean loss.

    Both halves of the step are batched: the fake samples ``Z*`` come
    from one vectorized eq.-1 ascent over the whole minibatch, and the
    discriminator loss is a single graph over the stacked real+fake
    scores (grouped by host count when the batch mixes federations).
    """
    groups = _host_count_groups(batch)
    # Line 4: generate fake samples Z* from noise by one batched ascent
    # on a kernel exported from this step's weights.
    kernel = FastGONKernel.from_model(model)
    fakes: List[Optional[np.ndarray]] = [None] * len(batch)
    for indices in groups:
        results = generate_metrics_batch(
            kernel,
            np.stack([batch[i].schedule for i in indices]),
            np.stack([batch[i].adjacency for i in indices]),
            init_metrics=None,
            rng=rng,
            gamma=config.generation_gamma,
            max_steps=config.generation_steps,
        )
        for i, result in zip(indices, results):
            fakes[i] = result.metrics

    # Line 5: ascend the discriminator objective (descend its negation)
    # with the whole minibatch loss in one computation graph.
    optimizer.zero_grad()
    total = None
    for indices in groups:
        loss = _gon_loss_batch(
            model,
            [batch[i] for i in indices],
            np.stack([fakes[i] for i in indices]),
        )
        total = loss if total is None else total + loss
    mean_loss = total * (1.0 / len(batch))
    mean_loss.backward()
    optimizer.step()
    return float(mean_loss.data)


def evaluate(
    model: GONDiscriminator,
    samples: Sequence[GONInput],
    gamma: float = 1e-3,
    steps: int = 10,
) -> tuple[float, float]:
    """Test-set metrics: (MSE of generated metrics, mean confidence).

    MSE compares the eq.-1 generation (warm-started from the true
    metrics' shape but random values) against the recorded metrics --
    the quantity the paper grid-searches on (§IV-E).  Confidences are
    one forward of the same float64 kernel over the recorded samples.
    """
    if not samples:
        raise ValueError("no evaluation samples")
    rng = np.random.default_rng(0)
    kernel = FastGONKernel.from_model(model)
    errors = []
    confidences = []
    for indices in _host_count_groups(samples):
        group = [samples[i] for i in indices]
        schedules = np.stack([s.schedule for s in group])
        adjacencies = np.stack([s.adjacency for s in group])
        results = generate_metrics_batch(
            kernel,
            schedules,
            adjacencies,
            init_metrics=None,
            rng=rng,
            gamma=gamma,
            max_steps=steps,
        )
        errors.extend(
            float(np.mean((result.metrics - sample.metrics) ** 2))
            for sample, result in zip(group, results)
        )
        confidences.extend(kernel.score_stack(
            np.stack([s.metrics for s in group]), schedules, adjacencies
        ).tolist())
    return float(np.mean(errors)), float(np.mean(confidences))


def train_gon(
    model: GONDiscriminator,
    samples: Sequence[GONInput],
    config: Optional[TrainingConfig] = None,
) -> TrainingHistory:
    """Offline Algorithm-1 training over the trace dataset Λ."""
    config = config or TrainingConfig()
    if len(samples) < 5:
        raise ValueError("need at least 5 samples to train")
    rng = np.random.default_rng(config.seed)
    train_idx, test_idx = train_test_split(
        len(samples), config.test_fraction, rng
    )
    train_set = [samples[i] for i in train_idx]
    test_set = [samples[i] for i in test_idx]

    optimizer = Adam(
        model.parameters(),
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    stopper = EarlyStopping(patience=config.early_stopping_patience)
    history = TrainingHistory(
        test_set=test_set,
        architecture={
            "hidden": model.hidden,
            "n_layers": model.n_layers,
            "n_m_features": model.n_m_features,
            "n_s_features": model.n_s_features,
        },
        gamma=config.generation_gamma,
        steps=config.generation_steps,
    )
    started = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        epoch_losses = []
        for index_batch in minibatches(len(train_set), config.batch_size, rng):
            batch = [train_set[i] for i in index_batch]
            epoch_losses.append(
                _train_step(model, optimizer, batch, config, rng)
            )
        loss = float(np.mean(epoch_losses))
        history.losses.append(loss)
        history.snapshots.append(model.state_dict())
        history.stopped_epoch = epoch
        if stopper.update(loss, epoch):
            break

    history.wall_seconds = time.perf_counter() - started
    return history


def fine_tune(
    model: GONDiscriminator,
    samples: Sequence[GONInput],
    config: Optional[TrainingConfig] = None,
    iterations: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Online fine-tuning on the running dataset Γ (Alg. 2 line 15).

    Runs a few Algorithm-1 minibatch steps on the most recent samples
    and returns the final loss.  Kept deliberately short: this is the
    overhead CAROL pays only when confidence dips below the POT
    threshold.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("cannot fine-tune on an empty buffer")
    config = config or TrainingConfig()
    rng = rng or np.random.default_rng(config.seed)
    optimizer = Adam(
        model.parameters(),
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    loss = 0.0
    for _ in range(iterations):
        for index_batch in minibatches(
            len(samples), min(config.batch_size, len(samples)), rng
        ):
            batch = [samples[i] for i in index_batch]
            loss = _train_step(model, optimizer, batch, config, rng)
    return loss
