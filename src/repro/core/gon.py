"""The GON discriminator network (Fig. 3 of the paper).

A composite network over three inputs, matching §IV-A:

* ``E_MS = ReLU(FeedForward([M, S]))`` applied per host and mean-pooled
  (eq. 3) -- pooling keeps the encoder agnostic to the host count,
  like the paper's stacked representation;
* ``E_G``: a graph attention network over the topology whose node
  features are the utilisations ``u_i`` (eq. 4), mean-pooled;
* ``D(M,S,G) = Sigmoid(FeedForward([E_MS, E_G]))`` (eq. 5), a scalar
  likelihood in [0, 1] that doubles as the *confidence score*.

Because GONs drop the GAN generator entirely, the discriminator is the
whole model -- the memory-efficiency argument of the paper.  The
layer count is the knob grid-searched in §V-E (Fig. 6b).  Layer width
is the ``hidden`` parameter: 128 is the paper's width and this
class's default, and scenario campaigns train at
``CampaignConfig.gon_hidden`` (24).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import FeedForward, GraphEncoder, Module, Tensor, as_tensor, concatenate
from .features import GONInput, N_M_FEATURES, N_NODE_FEATURES, N_S_FEATURES

__all__ = ["GONDiscriminator"]


class GONDiscriminator(Module):
    """``D(M, S, G; theta)`` returning a likelihood/confidence scalar.

    Parameters
    ----------
    rng:
        Generator for weight init.
    hidden:
        Layer width (paper: 128).
    n_layers:
        Feed-forward depth of the [M,S] encoder; the paper's deployed
        model uses 3 layers (~1 GB footprint on its inputs, §IV-E).
        Swept by the Fig. 6(b) sensitivity experiment.
    n_m_features / n_s_features:
        Input dimensionalities (default: the canonical encodings).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        hidden: int = 128,
        n_layers: int = 3,
        n_m_features: int = N_M_FEATURES,
        n_s_features: int = N_S_FEATURES,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        self.hidden = hidden
        self.n_layers = n_layers
        self.n_m_features = n_m_features
        self.n_s_features = n_s_features
        # Eq. 3: E_{M,S} = ReLU(FeedForward([M, S])).
        self.ms_encoder = FeedForward(
            n_m_features + n_s_features,
            hidden,
            rng,
            hidden=hidden,
            layers=n_layers,
            activation="relu",
            final_activation="relu",
        )
        # Eq. 4: graph attention over node features u_i.
        self.graph_encoder = GraphEncoder(N_NODE_FEATURES, hidden, rng, layers=1)
        # Eq. 5: sigmoid head over the concatenated embeddings.
        self.head = FeedForward(
            2 * hidden,
            1,
            rng,
            hidden=hidden,
            layers=2,
            activation="relu",
            final_activation="identity",
        )

    # ------------------------------------------------------------------
    def forward(self, metrics, schedule, adjacency) -> Tensor:
        """Likelihood of ``(M, S, G)`` under the learned distribution.

        ``metrics`` may be a Tensor with ``requires_grad=True``; the
        surrogate's input-space optimisation (eq. 1) relies on the
        gradient flowing through both encoders (graph node features are
        a slice of ``M``).
        """
        metrics = as_tensor(metrics)
        schedule = as_tensor(schedule)
        joint = concatenate([metrics, schedule], axis=1)
        e_ms = self.ms_encoder(joint).mean(axis=0)
        e_g = self.graph_encoder(metrics[:, :N_NODE_FEATURES], np.asarray(adjacency))
        logits = self.head(concatenate([e_ms, e_g], axis=0))
        return logits.sigmoid().reshape(())

    def forward_batch(self, metrics, schedule, adjacency) -> Tensor:
        """Batched likelihoods for a ``[B, n_hosts, ...]`` sample stack.

        ``metrics`` is ``[B, n_hosts, n_m_features]`` (may require
        grad -- the batched eq.-1 ascent differentiates through it),
        ``schedule`` ``[B, n_hosts, n_s_features]`` and ``adjacency``
        ``[B, n, n]``.  Returns a ``[B]`` tensor of confidences, each
        element computed exactly as a single :meth:`forward` would.
        """
        metrics = as_tensor(metrics)
        schedule = as_tensor(schedule)
        if metrics.ndim != 3:
            raise ValueError(f"expected [B, n, F] metrics, got {metrics.shape}")
        joint = concatenate([metrics, schedule], axis=2)
        e_ms = self.ms_encoder(joint).mean(axis=1)  # [B, hidden]
        e_g = self.graph_encoder(
            metrics[:, :, :N_NODE_FEATURES], np.asarray(adjacency)
        )  # [B, hidden]
        logits = self.head(concatenate([e_ms, e_g], axis=1))  # [B, 1]
        return logits.sigmoid().reshape(-1)

    def score(self, sample: GONInput) -> float:
        """Confidence of a concrete sample (no gradients kept)."""
        value = self.forward(sample.metrics, sample.schedule, sample.adjacency)
        return float(value.data)

    def score_batch(self, samples: Sequence[GONInput]) -> np.ndarray:
        """Confidences of many samples in one vectorized pass.

        All samples must share the same host count (a tabu
        neighbourhood always does: node-shifts preserve ``n_hosts``).
        Returns a ``[B]`` float array matching looped :meth:`score`.
        """
        if not samples:
            return np.zeros(0)
        n_hosts = samples[0].n_hosts
        if any(s.n_hosts != n_hosts for s in samples):
            raise ValueError("score_batch requires a uniform host count")
        metrics = np.stack([s.metrics for s in samples])
        schedule = np.stack([s.schedule for s in samples])
        adjacency = np.stack([s.adjacency for s in samples])
        return self.forward_batch(metrics, schedule, adjacency).data.copy()

    def footprint_bytes(self) -> int:
        """Resident memory: parameters plus optimiser moments."""
        return self.memory_bytes()

    def clone_architecture(self, rng: np.random.Generator) -> "GONDiscriminator":
        """Fresh network with identical hyper-parameters."""
        return GONDiscriminator(
            rng,
            hidden=self.hidden,
            n_layers=self.n_layers,
            n_m_features=self.n_m_features,
            n_s_features=self.n_s_features,
        )
