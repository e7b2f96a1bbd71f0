"""Surrogate scorer seam: where CAROL's GON evaluations execute.

CAROL's decision loop needs three operations from its surrogate --
batched eq.-1 ascents over candidate stacks, single-sample confidence
reads, and confidence-gated fine-tuning.  This module pins that surface
down as the *scorer* interface so the execution backend is swappable:

* :class:`LocalScorer` (the default) runs everything in-process on the
  model CAROL owns;
* ``repro.serving.FleetScorer`` routes ascent stacks to a shared
  scoring service that holds the published weights of many concurrent
  federations; once fine-tuning diverges this replica from the fleet,
  it scores on its own kernel exactly as :class:`LocalScorer` does.

Every scorer carries a monotone ``generation`` counter, bumped exactly
when :meth:`fine_tune` mutates the model.  CAROL's persistent surrogate
cache keys its validity on this counter: scores stay reusable across
scheduling intervals precisely as long as the generation stands still
(the model only changes when the POT gate opens -- §III-B).

Every ascent runs the one production path,
:func:`repro.core.surrogate.generate_metrics_batch`, on a
:class:`~repro.core.fastscore.FastGONKernel` exported from the
scorer's model, and confidence reads (the POT gate input) run one
forward of it; both are bitwise-equal to the autodiff oracle
(``tests/gon_oracle.py``).  Kernels re-export their weights after
every ``generation`` bump, so a fine-tuned scorer never serves stale
parameters.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

import numpy as np

from .features import GONInput
from .gon import GONDiscriminator
from .fastscore import FastGONKernel
from .surrogate import SurrogateResult, generate_metrics_batch
from .training import TrainingConfig, fine_tune

__all__ = [
    "SurrogateScorer",
    "LocalScorer",
    "sample_confidence",
]

def sample_confidence(kernel: FastGONKernel, sample: GONInput) -> float:
    """``D(M, S, G)`` of one sample: a single kernel forward."""
    return float(kernel.score_stack(
        sample.metrics[None], sample.schedule[None], sample.adjacency[None]
    )[0])


class SurrogateScorer(Protocol):
    """The execution backend surface CAROL's decision loop consumes."""

    #: Bumped once per :meth:`fine_tune`; persistent caches key on it.
    generation: int

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
        segments: Sequence[int] = (),
    ) -> List[SurrogateResult]:
        """Batched eq.-1 ascent over ``[B, n, F]`` warm-started stacks.

        ``segments`` cut the stack as
        :func:`~repro.core.surrogate.generate_metrics_batch` does: each
        segment scores bitwise as a call of its own.
        """
        ...

    def confidence(self, sample: GONInput) -> float:
        """``D(M, S, G)`` of one realised sample (no gradients kept)."""
        ...

    def fine_tune(
        self,
        samples: Sequence[GONInput],
        config: TrainingConfig,
        iterations: int,
        rng: np.random.Generator,
    ) -> float:
        """Fine-tune on Γ, bump :attr:`generation`, return the loss."""
        ...


class LocalScorer:
    """In-process scorer over an owned :class:`GONDiscriminator`.

    The kernel is built lazily on first use and rebuilt whenever
    :meth:`fine_tune` bumps :attr:`generation`.  Ascents and
    confidence reads share it: each stack size keeps its own plan, so
    a single-sample read never replaces an ascent's.
    """

    def __init__(self, model: GONDiscriminator) -> None:
        self.model = model
        self.generation = 0
        self._kernel = None
        self._kernel_generation = -1

    def kernel(self) -> FastGONKernel:
        """The cached kernel, re-exported after fine-tuning."""
        if self._kernel is None or self._kernel_generation != self.generation:
            self._kernel = FastGONKernel.from_model(self.model)
            self._kernel_generation = self.generation
        return self._kernel

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
        segments: Sequence[int] = (),
    ) -> List[SurrogateResult]:
        return generate_metrics_batch(
            self.kernel(),
            schedules,
            adjacencies,
            init_metrics=metrics,
            gamma=gamma,
            max_steps=max_steps,
            segments=segments,
        )

    def confidence(self, sample: GONInput) -> float:
        return sample_confidence(self.kernel(), sample)

    def fine_tune(
        self,
        samples: Sequence[GONInput],
        config: Optional[TrainingConfig],
        iterations: int,
        rng: np.random.Generator,
    ) -> float:
        loss = fine_tune(
            self.model,
            list(samples),
            config=config,
            iterations=iterations,
            rng=rng,
        )
        self.generation += 1
        return loss
