"""Surrogate scorer seam: where CAROL's GON evaluations execute.

CAROL's decision loop needs three operations from its surrogate --
batched eq.-1 ascents over candidate stacks, single-sample confidence
reads, and confidence-gated fine-tuning.  This module pins that surface
down as the *scorer* interface so the execution backend is swappable:

* :class:`LocalScorer` (the default) runs everything in-process on the
  model CAROL owns;
* ``repro.serving.FleetScorer`` routes ascent stacks to a shared
  scoring service consolidating many concurrent federations into one
  batched GON stream; when fine-tuning diverges this replica from the
  fleet, the new weights ship to the service as a per-client overlay
  so the run stays in the consolidated stream.

Every scorer carries a monotone ``generation`` counter, bumped exactly
when :meth:`fine_tune` mutates the model.  CAROL's persistent surrogate
cache keys its validity on this counter: scores stay reusable across
scheduling intervals precisely as long as the generation stands still
(the model only changes when the POT gate opens -- §III-B).

A scorer may also expose a ``diagnostics`` mapping of integer
counters and a ``telemetry`` registry; CAROL folds both into its
records when present (``FleetScorer`` counts its overlay installs).

Inference backends
------------------
Every ascent runs through the one production path,
:func:`repro.core.surrogate.generate_metrics_batch`, on a
:class:`~repro.core.fastscore.FastGONKernel` exported from the
scorer's model.  The backend only picks the kernel's arithmetic:

``"fast"`` (default)
    float64 kernels, bitwise-equal to the autodiff ascent.  The test
    suite keeps that autodiff ascent as its oracle
    (``tests/gon_oracle.py``) and gates bit-identical records and
    decision digests against it on the whole scenario catalog.
``"fast32"``
    float32 kernels for decision scoring only (training always runs
    float64).  Gate: scores within ``rtol=1e-5`` of float64 on every
    catalog scenario, plus a strong-majority decision-agreement canary.
    Agreement is *expected but not universal*: wherever a surrogate
    scores two candidates within float32 noise of each other the
    tie-break can flip (observed on one of the nine catalog scenarios
    even at full training scale).  A kernel regression flips decisions
    systematically; the canary catches that, the rtol tier pins
    per-score correctness.

Confidence reads (``confidence()``, the POT gate input) run one
forward on a float64 kernel under either backend, so the gate never
depends on the backend's arithmetic; the float64 forward is
bitwise-equal to the model's own (the catalog sweep gates this too).
Kernels re-export their weights after every ``generation`` bump, so a
fine-tuned scorer never serves stale parameters.
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
    "BACKENDS",
    "validate_backend",
    "sample_confidence",
]

#: Inference backends a scorer accepts (see the module docstring for
#: the per-tier parity contract).
BACKENDS = ("fast", "fast32")


def validate_backend(backend: str) -> str:
    """``backend`` itself, or ``ValueError`` listing the options."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown scorer backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


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
    ) -> List[SurrogateResult]:
        """Batched eq.-1 ascent over ``[B, n, F]`` warm-started stacks."""
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

    ``backend`` picks the kernel arithmetic (``"fast"`` | ``"fast32"``,
    module docstring has the parity tiers).  The kernel is built lazily
    on first ascent and rebuilt whenever :meth:`fine_tune` bumps
    :attr:`generation`; so is the float64 kernel confidence reads use.
    """

    def __init__(self, model: GONDiscriminator, backend: str = "fast") -> None:
        self.model = model
        self.backend = validate_backend(backend)
        self.generation = 0
        self._kernel = None
        self._kernel_generation = -1
        self._reader = None
        self._reader_generation = -1

    def kernel(self) -> FastGONKernel:
        """The cached kernel, re-exported after fine-tuning."""
        if self._kernel is None or self._kernel_generation != self.generation:
            dtype = "float32" if self.backend == "fast32" else "float64"
            self._kernel = FastGONKernel.from_model(self.model, dtype=dtype)
            self._kernel_generation = self.generation
        return self._kernel

    def confidence_kernel(self) -> FastGONKernel:
        """The cached float64 kernel of confidence reads.

        Its own instance, so single-sample reads never replace the
        ascent kernel's plan; under ``"fast"`` it shares that
        kernel's export.
        """
        if self._reader is None or self._reader_generation != self.generation:
            if self.backend == "fast":
                self._reader = FastGONKernel(self.kernel().pack)
            else:
                self._reader = FastGONKernel.from_model(self.model)
            self._reader_generation = self.generation
        return self._reader

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
    ) -> List[SurrogateResult]:
        return generate_metrics_batch(
            self.kernel(),
            schedules,
            adjacencies,
            init_metrics=metrics,
            gamma=gamma,
            max_steps=max_steps,
        )

    def confidence(self, sample: GONInput) -> float:
        return sample_confidence(self.confidence_kernel(), sample)

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
