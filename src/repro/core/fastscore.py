"""Graph-free GON arithmetic: the network half of every eq.-1 ascent.

A trained :class:`~repro.core.gon.GONDiscriminator` is exported once
into a flat :class:`~repro.nn.serialization.InferencePack` of frozen
arrays, and :class:`FastGONKernel` evaluates the forward **and the
closed-form input gradient** ``d sum(log clip(D)) / dM`` of the
GAT -> encoder -> discriminator stack as fused numpy kernels over a
whole ``[B, n, F]`` stack, with no :class:`repro.nn.Tensor` graph.
The Adam/convergence loop that drives these kernels lives in
:func:`repro.core.surrogate.generate_metrics_batch` -- the one
production ascent (decisions, the scoring service, training).

Fidelity contract:

* every kernel mirrors the autodiff op order and gemm shapes -- the
  same flat ``[B*n, F]`` BLAS calls, the same masked-softmax
  arithmetic (non-edges pushed by -1e9, detached row-max shift, 1e-12
  denominator) and the same inclusive clip masks -- so a float64
  kernel is bitwise-equal to the autodiff model it was exported from
  (the test suite's autodiff oracle gates this on the whole catalog);
* :meth:`FastGONKernel.input_gradient` runs at the *forward* stack
  size with zeroed rows for frozen elements, exactly like the autodiff
  differentiable-slice trick, so per-element trajectories never depend
  on which batch-mates converged;
* a float32 export (the ``fast32`` scorer backend) reuses the same
  kernels on downcast weights for decision scoring, never training.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.gat import adjacency_with_self_loops
from ..nn.serialization import (
    InferencePack,
    export_inference,
    verify_inference_pack,
)
from .features import N_NODE_FEATURES
from .gon import GONDiscriminator

__all__ = ["FastGONKernel", "gon_inference_meta"]

_EPS = 1e-8  # clip epsilon of the ascent's log-likelihood


def gon_inference_meta(model: GONDiscriminator) -> Dict[str, object]:
    """Architecture metadata an :class:`InferencePack` needs for a GON."""
    return {
        "arch": "gon-discriminator",
        "hidden": int(model.hidden),
        "n_layers": int(model.n_layers),
        "n_m_features": int(model.n_m_features),
        "n_s_features": int(model.n_s_features),
    }


class FastGONKernel:
    """Fused forward + closed-form input gradient of one exported GON.

    Instances are immutable snapshots: fine-tuning the live model does
    not affect a built kernel, so scorers re-export after every
    generation bump (see :class:`repro.core.scoring.LocalScorer`) and
    training exports once per minibatch.
    """

    def __init__(self, pack: InferencePack) -> None:
        meta = pack.meta
        if meta.get("arch") != "gon-discriminator":
            raise ValueError(
                f"inference pack is not a GON export: arch={meta.get('arch')!r}"
            )
        try:
            hidden = int(meta["hidden"])
            n_layers = int(meta["n_layers"])
            n_m = int(meta["n_m_features"])
            n_s = int(meta["n_s_features"])
        except KeyError as exc:  # pragma: no cover - defensive
            raise ValueError(f"inference pack meta missing {exc}") from exc
        self.pack = pack
        self.dtype = np.dtype(pack.dtype)
        self.hidden = hidden
        self.n_layers = n_layers
        self.n_m_features = n_m
        self.n_s_features = n_s

        arrays = pack.arrays
        expected = {"graph_encoder.layers.0.attention",
                    "graph_encoder.layers.0.bias",
                    "graph_encoder.layers.0.weight",
                    "head.blocks.0.bias", "head.blocks.0.weight",
                    "head.blocks.1.bias", "head.blocks.1.weight"}
        for i in range(n_layers):
            expected.add(f"ms_encoder.blocks.{i}.bias")
            expected.add(f"ms_encoder.blocks.{i}.weight")
        if set(arrays) != expected:
            raise KeyError(
                f"inference pack arrays mismatch: "
                f"missing={sorted(expected - set(arrays))} "
                f"unexpected={sorted(set(arrays) - expected)}"
            )

        def take(name: str, shape: Tuple[int, ...]) -> np.ndarray:
            array = arrays[name]
            if tuple(array.shape) != shape:
                raise ValueError(
                    f"inference pack shape mismatch for {name!r}: "
                    f"{tuple(array.shape)} != {shape}"
                )
            return np.ascontiguousarray(array, dtype=self.dtype)

        dims = [n_m + n_s] + [hidden] * n_layers
        self._ms: List[Tuple[np.ndarray, np.ndarray]] = [
            (
                take(f"ms_encoder.blocks.{i}.weight", (dims[i], dims[i + 1])),
                take(f"ms_encoder.blocks.{i}.bias", (dims[i + 1],)),
            )
            for i in range(n_layers)
        ]
        self._gat_w = take(
            "graph_encoder.layers.0.weight", (N_NODE_FEATURES, hidden)
        )
        self._gat_b = take("graph_encoder.layers.0.bias", (hidden,))
        self._gat_a = take(
            "graph_encoder.layers.0.attention", (hidden, hidden)
        )
        self._head_w0 = take("head.blocks.0.weight", (2 * hidden, hidden))
        self._head_b0 = take("head.blocks.0.bias", (hidden,))
        self._head_w1 = take("head.blocks.1.weight", (hidden, 1))
        self._head_b1 = take("head.blocks.1.bias", (1,))
        # The preallocated workspace of the last ``(batch, hosts)``
        # shape: forward activations, masked-softmax scratch and
        # backward temporaries live here, so steady-state ascent steps
        # allocate nothing.  At most one entry: an ascent runs at one
        # stack size (it only shrinks when elements converge), so older
        # shapes are dead weight.
        self._workspaces: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: GONDiscriminator, dtype: str = "float64"
    ) -> "FastGONKernel":
        """Export ``model`` (with verification) and build a kernel."""
        pack = export_inference(model, meta=gon_inference_meta(model), dtype=dtype)
        verify_inference_pack(pack, model)
        return cls(pack)

    # ------------------------------------------------------------------
    def _workspace(self, batch: int, n: int) -> Dict[str, np.ndarray]:
        key = (batch, n)
        ws = self._workspaces.get(key)
        if ws is None:
            self._workspaces.clear()
            h, dt = self.hidden, self.dtype
            flat = batch * n
            f_in = self.n_m_features + self.n_s_features
            dims = [f_in] + [h] * self.n_layers
            ws = {
                "joint": np.empty((batch, n, f_in), dtype=dt),
                "joint_tag": None,  # schedule tag of the S half (see forward)
                "u": np.empty((flat, N_NODE_FEATURES), dtype=dt),
                "msg": np.empty((flat, h), dtype=dt),
                "q": np.empty((flat, h), dtype=dt),
                "att": np.empty((batch, n, n), dtype=dt),
                "row": np.empty((batch, n, 1), dtype=dt),
                "agg": np.empty((batch, n, h), dtype=dt),
                "e_ms": np.empty((batch, h), dtype=dt),
                "e_g": np.empty((batch, h), dtype=dt),
                "h0": np.empty((batch, 2 * h), dtype=dt),
                "z1": np.empty((batch, h), dtype=dt),
                "mask1": np.empty((batch, h), dtype=bool),
                "z2": np.empty((batch, 1), dtype=dt),
                # backward scratch
                "dz1": np.empty((batch, h), dtype=dt),
                "dh0": np.empty((batch, 2 * h), dtype=dt),
                "dagg": np.empty((batch, n, h), dtype=dt),
                "datt": np.empty((batch, n, n), dtype=dt),
                "dscores": np.empty((batch, n, n), dtype=dt),
                "dmsg3": np.empty((batch, n, h), dtype=dt),
                "dtmp3": np.empty((batch, n, h), dtype=dt),
                "dmsg_flat": np.empty((flat, h), dtype=dt),
                "dpre": np.empty((flat, h), dtype=dt),
                "du": np.empty((flat, N_NODE_FEATURES), dtype=dt),
                "djoint": np.empty((flat, f_in), dtype=dt),
                "dmetrics": np.empty((batch, n, self.n_m_features), dtype=dt),
            }
            for i in range(self.n_layers):
                ws[f"ms_z{i}"] = np.empty((flat, dims[i + 1]), dtype=dt)
                ws[f"ms_mask{i}"] = np.empty((flat, dims[i + 1]), dtype=bool)
                ws[f"ms_dz{i}"] = np.empty((flat, dims[i + 1]), dtype=dt)
                if i:
                    ws[f"ms_dx{i}"] = np.empty((flat, dims[i]), dtype=dt)
            self._workspaces[key] = ws
        return ws

    # ------------------------------------------------------------------
    def graph_inputs(
        self, adjacencies: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Self-looped attention masks and their -1e9 non-edge push."""
        masks = adjacency_with_self_loops(np.asarray(adjacencies)).astype(
            self.dtype, copy=False
        )
        push = np.where(masks > 0, 0.0, -1e9).astype(self.dtype, copy=False)
        return masks, push

    # ------------------------------------------------------------------
    def forward(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        masks: np.ndarray,
        push: np.ndarray,
        tag: object = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Fused forward over a ``[k, n, F]`` stack.

        Returns the ``[k]`` confidence vector plus the saved
        activations :meth:`input_gradient` needs; both live in the
        kernel's workspace until the next forward.  Mirrors
        ``GONDiscriminator.forward_batch`` op for op.  ``tag`` names
        the schedule stack: an ascent passes one tag per call so the
        constant S half of the joint input is written once per
        workspace instead of once per step.
        """
        k, n, _ = metrics.shape
        h = self.hidden
        ws = self._workspace(k, n)

        # --- eq. 3: per-host feed-forward over [M, S], mean-pooled.
        joint = ws["joint"]
        joint[..., : self.n_m_features] = metrics
        if tag is None or ws["joint_tag"] != tag:
            joint[..., self.n_m_features:] = schedules
            ws["joint_tag"] = tag
        x = joint.reshape(k * n, -1)
        for i, (weight, bias) in enumerate(self._ms):
            z = ws[f"ms_z{i}"]
            np.matmul(x, weight, out=z)
            z += bias
            mask = ws[f"ms_mask{i}"]
            np.greater(z, 0.0, out=mask)
            z *= mask  # ReLU, every layer incl. the final one
            x = z
        e_ms = np.add.reduce(x.reshape(k, n, h), axis=1, out=ws["e_ms"])
        e_ms *= self.dtype.type(1.0) / n  # .mean(axis=1) == sum * (1/n)

        # --- eq. 4: one-layer GAT over u_i = M[:, :, :4].
        u_flat = ws["u"]
        u_flat.reshape(k, n, -1)[...] = metrics[..., :N_NODE_FEATURES]
        msg = ws["msg"]
        np.matmul(u_flat, self._gat_w, out=msg)
        msg += self._gat_b
        np.tanh(msg, out=msg)  # messages_flat
        q = ws["q"]
        np.matmul(msg, self._gat_a, out=q)
        messages = msg.reshape(k, n, h)
        queries = q.reshape(k, n, h)
        att = ws["att"]
        np.matmul(queries, messages.swapaxes(-1, -2), out=att)
        # Fused masked softmax (same arithmetic as nn.gat._masked_softmax).
        att += push
        row = ws["row"]
        np.maximum.reduce(att, axis=-1, keepdims=True, out=row)
        att -= row
        np.exp(att, out=att)
        att *= masks
        np.add.reduce(att, axis=-1, keepdims=True, out=row)
        row += 1e-12
        att /= row
        agg = ws["agg"]
        np.matmul(att, messages, out=agg)
        # sigma(agg).  The autodiff model clips the sigmoid input to
        # [-60, 60] first, but agg is an attention-weighted average of
        # tanh outputs: |agg| <= sum_j w_j |m_j| < 1 (weights are
        # non-negative and sum to at most 1), so the clip is an exact
        # identity here and is skipped.
        np.negative(agg, out=agg)
        np.exp(agg, out=agg)
        agg += 1.0
        np.reciprocal(agg, out=agg)  # g
        e_g = np.add.reduce(agg, axis=1, out=ws["e_g"])
        e_g *= self.dtype.type(1.0) / n

        # --- eq. 5: sigmoid head over [E_MS, E_G].
        h0 = ws["h0"]
        h0[:, :h] = e_ms
        h0[:, h:] = e_g
        z1 = ws["z1"]
        np.matmul(h0, self._head_w0, out=z1)
        z1 += self._head_b0
        mask1 = ws["mask1"]
        np.greater(z1, 0.0, out=mask1)
        z1 *= mask1  # r1
        z2 = ws["z2"]
        np.matmul(z1, self._head_w1, out=z2)
        z2 += self._head_b1
        scores = 1.0 / (1.0 + np.exp(-np.clip(z2, -60.0, 60.0)))
        scores = scores.reshape(-1)

        saved = {
            "n": n,
            "ws": ws,
            "messages": messages,
            "queries": queries,
            "att": att,
            "g": agg,
            "r1": z1,
            "mask1": mask1,
            "scores": scores,
        }
        return scores, saved

    # ------------------------------------------------------------------
    def input_gradient(
        self, saved: Dict[str, np.ndarray], rows: Optional[np.ndarray]
    ) -> np.ndarray:
        """``d sum(log clip(D)) / dM`` for the last :meth:`forward`.

        ``rows`` selects the still-active elements; like the autodiff
        differentiable-slice trick the gemms run at the forward stack
        size with zeroed gradient rows, and the caller slices the
        result back down to the survivors.  The returned array is a
        workspace view, valid until the next forward.
        """
        n = saved["n"]
        ws = saved["ws"]
        scores = saved["scores"]
        k = scores.shape[0]
        h = self.hidden
        inv_n = self.dtype.type(1.0) / n

        clipped = np.clip(scores, _EPS, 1.0 - _EPS)
        d_scores = ((scores >= _EPS) & (scores <= 1.0 - _EPS)) / clipped
        if rows is not None:
            keep = np.zeros(k, dtype=bool)
            keep[rows] = True
            d_scores = np.where(keep, d_scores, 0.0)
        dz2 = (d_scores * scores * (1.0 - scores)).reshape(k, 1)
        dr1 = dz2 @ self._head_w1.T
        dz1 = np.multiply(dr1, saved["mask1"], out=ws["dz1"])
        dh0 = np.matmul(dz1, self._head_w0.T, out=ws["dh0"])
        dh0 *= inv_n
        de_ms = dh0[:, :h]
        de_g = dh0[:, h:]

        # --- GAT branch.
        messages = saved["messages"]
        queries = saved["queries"]
        att = saved["att"]
        g = saved["g"]
        dagg = ws["dagg"]
        # Autodiff order is (grad * out) * (1 - out); keep it bit-exact.
        np.multiply(g, de_g[:, None, :], out=dagg)
        one_minus = np.subtract(1.0, g, out=ws["dtmp3"])
        dagg *= one_minus
        datt = ws["datt"]
        np.matmul(dagg, messages.swapaxes(-1, -2), out=datt)
        dmsg3 = ws["dmsg3"]
        np.matmul(att.swapaxes(-1, -2), dagg, out=dmsg3)
        inner = np.add.reduce(
            np.multiply(datt, att, out=ws["dscores"]),
            axis=-1, keepdims=True, out=ws["row"],
        )
        dsc = np.subtract(datt, inner, out=ws["dscores"])
        dsc *= att
        dmsg3 += np.matmul(dsc.swapaxes(-1, -2), queries, out=ws["dtmp3"])
        dqueries = np.matmul(dsc, messages, out=ws["dtmp3"])
        dpre = ws["dpre"]
        np.matmul(dqueries.reshape(k * n, h), self._gat_a.T, out=dpre)
        dmsg_flat = np.add(
            dmsg3.reshape(k * n, h), dpre, out=ws["dmsg_flat"]
        )
        tanh_d = np.square(messages.reshape(k * n, h), out=dpre)
        np.subtract(1.0, tanh_d, out=tanh_d)
        dmsg_flat *= tanh_d  # now d(pre-tanh)
        du = np.matmul(dmsg_flat, self._gat_w.T, out=ws["du"])

        # --- [M, S] encoder branch.
        dr = de_ms[:, None, :]  # broadcast over the host axis
        for i in reversed(range(self.n_layers)):
            dz = ws[f"ms_dz{i}"]
            np.multiply(
                dr, ws[f"ms_mask{i}"].reshape(k, n, -1), out=dz.reshape(k, n, -1)
            )
            weight = self._ms[i][0]
            if i == 0:
                d_joint = np.matmul(dz, weight.T, out=ws["djoint"])
                break
            dr = np.matmul(dz, weight.T, out=ws[f"ms_dx{i}"]).reshape(k, n, -1)
        d_metrics = ws["dmetrics"]
        d_metrics[...] = d_joint.reshape(k, n, -1)[..., : self.n_m_features]
        d_metrics[..., :N_NODE_FEATURES] += du.reshape(k, n, N_NODE_FEATURES)
        return d_metrics

    # ------------------------------------------------------------------
    def score_stack(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
    ) -> np.ndarray:
        """Forward-only confidences of a ``[B, n, F]`` stack (float64)."""
        metrics = np.asarray(metrics, dtype=self.dtype)
        if metrics.shape[0] == 0:
            return np.zeros(0)
        schedules = np.asarray(schedules, dtype=self.dtype)
        scores, _ = self.forward(
            metrics, schedules, *self.graph_inputs(adjacencies)
        )
        return scores.astype(np.float64, copy=True)
