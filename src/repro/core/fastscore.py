"""Graph-free GON arithmetic: the network half of every eq.-1 ascent.

A trained :class:`~repro.core.gon.GONDiscriminator` is exported once
into a flat :class:`~repro.nn.serialization.InferencePack` of frozen
arrays, and :class:`FastGONKernel` evaluates the forward **and the
closed-form input gradient** ``d sum(log clip(D)) / dM`` of the
GAT -> encoder -> discriminator stack as fused numpy kernels over a
whole ``[B, n, F]`` stack, with no :class:`repro.nn.Tensor` graph.
The fixed-step Adam loop that drives these kernels lives in
:func:`repro.core.surrogate.generate_metrics_batch` -- the one
production ascent (decisions, the scoring service, training).

A ``(stack, hosts)`` shape is compiled into a plan: every buffer and
every reshaped, sliced or transposed view the kernels touch, so a
step is straight-line ufunc/matmul work with no allocation.  A kernel
keeps one plan, for its latest shape: an ascent runs all its steps at
one shape, so the plan is built at most once per call.

Fidelity contract:

* every kernel mirrors the autodiff op order and gemm shapes -- the
  same flat ``[B*n, F]`` BLAS calls, the same masked-softmax
  arithmetic (non-edges pushed by -1e9, detached row-max shift, 1e-12
  denominator) and the same inclusive clip masks -- so a float64
  kernel is bitwise-equal to the autodiff model it was exported from
  (the test suite's autodiff oracle gates this on the whole catalog);
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


class _Plan:
    """Buffers of one ``(k, n)`` stack shape and every view of them.

    Built when the kernel's stack shape changes, so
    :meth:`FastGONKernel.forward` and
    :meth:`FastGONKernel.input_gradient` only make ufunc/matmul calls
    on ready views and ascent steps allocate nothing.  A plan holds
    arrays (and the last schedule tag) only -- never its kernel or
    itself -- so a dropped kernel and its plan are freed by reference
    counting, without waiting for the cycle collector.
    """

    def __init__(self, k: int, n: int, hidden: int, n_layers: int,
                 n_m: int, n_s: int, dtype: np.dtype) -> None:
        h = hidden
        flat = k * n
        f_in = n_m + n_s

        def empty(*shape, kind=dtype):
            return np.empty(shape, dtype=kind)

        self.shape = (k, n)
        self.inv_n = dtype.type(1.0) / n
        self.tag: object = None  # schedule tag of the S half (forward)

        # Forward.
        self.joint = empty(k, n, f_in)
        self.joint_m = self.joint[..., :n_m]
        self.joint_s = self.joint[..., n_m:]
        self.x0 = self.joint.reshape(flat, f_in)
        self.u = self.x0[:, :N_NODE_FEATURES]
        self.ms_z = [empty(flat, h) for _ in range(n_layers)]
        # ReLU masks hold 0.0/1.0 in the compute dtype: multiplying by
        # them equals a bool mask's cast bit for bit, and skips numpy's
        # mixed-dtype loop.
        self.ms_mask = [empty(flat, h) for _ in range(n_layers)]
        self.ms_out3 = self.ms_z[-1].reshape(k, n, h)
        self.msg = empty(flat, h)
        self.msg3 = self.msg.reshape(k, n, h)
        self.msg3_t = self.msg3.swapaxes(-1, -2)
        self.q = empty(flat, h)
        self.q3 = self.q.reshape(k, n, h)
        self.att = empty(k, n, n)
        self.att_t = self.att.swapaxes(-1, -2)
        self.row = empty(k, n, 1)
        self.agg = empty(k, n, h)
        self.h0 = empty(k, 2 * h)
        self.h0_ms = self.h0[:, :h]
        self.h0_g = self.h0[:, h:]
        self.z1 = empty(k, h)
        self.mask1 = empty(k, h)
        self.z2 = empty(k, 1)
        self.scores = self.z2.reshape(k)

        # Backward.
        self.clipped = empty(k)
        self.inside = empty(k, kind=bool)
        self.inside_hi = empty(k, kind=bool)
        self.dz2 = empty(k, 1)
        self.dz2_flat = self.dz2.reshape(k)
        self.dr1 = empty(k, h)
        self.dz1 = empty(k, h)
        self.dh0 = empty(k, 2 * h)
        self.de_ms3 = self.dh0[:, None, :h]
        self.de_g3 = self.dh0[:, None, h:]
        self.dagg = empty(k, n, h)
        self.dtmp3 = empty(k, n, h)
        self.dtmp = self.dtmp3.reshape(flat, h)
        self.datt = empty(k, n, n)
        self.dsc = empty(k, n, n)
        self.dsc_t = self.dsc.swapaxes(-1, -2)
        self.dmsg3 = empty(k, n, h)
        self.dmsg = self.dmsg3.reshape(flat, h)
        self.dpre = empty(flat, h)
        self.du = empty(flat, N_NODE_FEATURES)
        self.du3 = self.du.reshape(k, n, N_NODE_FEATURES)
        djoint = empty(flat, f_in)
        djoint3 = djoint.reshape(k, n, f_in)
        self.grad = djoint3[..., :n_m]
        self.grad_u = djoint3[..., :N_NODE_FEATURES]
        # Encoder backward, top layer first: layer i writes d input to
        # a [flat, h] buffer, layer 0 to d joint.
        dz = [empty(flat, h) for _ in range(n_layers)]
        dx = [djoint] + [empty(flat, h) for _ in range(1, n_layers)]
        self.ms_back = [
            (self.ms_mask[i].reshape(k, n, h), dz[i],
             dz[i].reshape(k, n, h), dx[i], dx[i].reshape(k, n, -1))
            for i in reversed(range(n_layers))
        ]


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
        # Transposed views the backward gemms read (BLAS takes them as
        # transpose flags, exactly like an inline ``.T``).
        self._head_w1_t = self._head_w1.T
        self._head_w0_t = self._head_w0.T
        self._gat_a_t = self._gat_a.T
        self._gat_w_t = self._gat_w.T
        self._ms_back = [weight.T for weight, _ in reversed(self._ms)]
        # The compiled plan of the latest ``(stack, hosts)`` shape; see
        # :class:`_Plan`.
        self._last_plan: Optional[_Plan] = None

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
    def _plan(self, k: int, n: int) -> "_Plan":
        """The compiled plan of a ``[k, n]`` stack; replaces the last."""
        plan = self._last_plan
        if plan is None or plan.shape != (k, n):
            plan = self._last_plan = _Plan(
                k, n, self.hidden, self.n_layers, self.n_m_features,
                self.n_s_features, self.dtype,
            )
        return plan

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
    ) -> Tuple[np.ndarray, "_Plan"]:
        """Fused forward over a ``[k, n, F]`` stack.

        Returns the ``[k]`` confidence vector plus the plan holding
        the activations :meth:`input_gradient` needs; both are plan
        buffers, valid until the next forward at the same shape.
        Mirrors ``GONDiscriminator.forward_batch`` op for op.  ``tag``
        names the schedule stack: an ascent passes one tag per call so
        the constant S half of the joint input is written once per
        call instead of once per step.
        """
        k, n, _ = metrics.shape
        p = self._plan(k, n)

        # --- eq. 3: per-host feed-forward over [M, S], mean-pooled.
        p.joint_m[...] = metrics
        if tag is None or p.tag is not tag:
            p.joint_s[...] = schedules
            p.tag = tag
        x = p.x0
        for (weight, bias), z, mask in zip(self._ms, p.ms_z, p.ms_mask):
            np.matmul(x, weight, out=z)
            z += bias
            np.greater(z, 0.0, out=mask)
            z *= mask  # ReLU, every layer incl. the final one
            x = z
        # .mean(axis=1) == sum * (1/n), straight into h0's E_MS half.
        np.add.reduce(p.ms_out3, axis=1, out=p.h0_ms)
        p.h0_ms *= p.inv_n

        # --- eq. 4: one-layer GAT over u_i = M[:, :, :4], read in place
        # from the joint input.
        msg = p.msg
        np.matmul(p.u, self._gat_w, out=msg)
        msg += self._gat_b
        np.tanh(msg, out=msg)  # messages_flat
        np.matmul(msg, self._gat_a, out=p.q)
        att = p.att
        np.matmul(p.q3, p.msg3_t, out=att)
        # Fused masked softmax (same arithmetic as nn.gat._masked_softmax).
        att += push
        row = p.row
        np.maximum.reduce(att, axis=-1, keepdims=True, out=row)
        att -= row
        np.exp(att, out=att)
        att *= masks
        np.add.reduce(att, axis=-1, keepdims=True, out=row)
        row += 1e-12
        att /= row
        agg = p.agg
        np.matmul(att, p.msg3, out=agg)
        # sigma(agg).  The autodiff model clips the sigmoid input to
        # [-60, 60] first, but agg is an attention-weighted average of
        # tanh outputs: |agg| <= sum_j w_j |m_j| < 1 (weights are
        # non-negative and sum to at most 1), so the clip is an exact
        # identity here and is skipped.
        np.negative(agg, out=agg)
        np.exp(agg, out=agg)
        agg += 1.0
        np.reciprocal(agg, out=agg)  # g
        np.add.reduce(agg, axis=1, out=p.h0_g)
        p.h0_g *= p.inv_n

        # --- eq. 5: sigmoid head over [E_MS, E_G].
        z1 = p.z1
        np.matmul(p.h0, self._head_w0, out=z1)
        z1 += self._head_b0
        np.greater(z1, 0.0, out=p.mask1)
        z1 *= p.mask1  # r1
        z2 = p.z2
        np.matmul(z1, self._head_w1, out=z2)
        z2 += self._head_b1
        # 1 / (1 + exp(-clip(z2, -60, 60))), in place.  The bounds are
        # non-zero, so minimum(maximum()) equals np.clip bit for bit.
        np.maximum(z2, -60.0, out=z2)
        np.minimum(z2, 60.0, out=z2)
        np.negative(z2, out=z2)
        np.exp(z2, out=z2)
        z2 += 1.0
        np.divide(1.0, z2, out=z2)
        return p.scores, p

    # ------------------------------------------------------------------
    def input_gradient(self, p: "_Plan") -> np.ndarray:
        """``d sum(log clip(D)) / dM`` for the last :meth:`forward`.

        ``p`` is the plan :meth:`forward` returned.  The result is a
        view of the plan's ``[k, n, F]`` joint-input gradient, valid
        until the next :meth:`input_gradient` at the same shape.
        """
        scores = p.scores

        # d log clip(D) / dD: the clip's inclusive pass-through mask
        # over the clipped score.  Non-zero bounds again.
        clipped = p.clipped
        np.maximum(scores, _EPS, out=clipped)
        np.minimum(clipped, 1.0 - _EPS, out=clipped)
        inside = p.inside
        np.greater_equal(scores, _EPS, out=inside)
        np.less_equal(scores, 1.0 - _EPS, out=p.inside_hi)
        inside &= p.inside_hi
        d_scores = p.dz2_flat
        np.divide(inside, clipped, out=d_scores)
        d_scores *= scores
        np.subtract(1.0, scores, out=clipped)
        d_scores *= clipped  # (d * D) * (1 - D): dz2
        np.matmul(p.dz2, self._head_w1_t, out=p.dr1)
        np.multiply(p.dr1, p.mask1, out=p.dz1)
        np.matmul(p.dz1, self._head_w0_t, out=p.dh0)
        p.dh0 *= p.inv_n

        # --- GAT branch.
        att = p.att
        dagg = p.dagg
        tmp3 = p.dtmp3
        # Autodiff order is (grad * out) * (1 - out); keep it bit-exact.
        np.multiply(p.agg, p.de_g3, out=dagg)
        np.subtract(1.0, p.agg, out=tmp3)
        dagg *= tmp3
        datt = p.datt
        np.matmul(dagg, p.msg3_t, out=datt)
        dmsg3 = p.dmsg3
        np.matmul(p.att_t, dagg, out=dmsg3)
        dsc = p.dsc
        np.multiply(datt, att, out=dsc)
        np.add.reduce(dsc, axis=-1, keepdims=True, out=p.row)
        np.subtract(datt, p.row, out=dsc)
        dsc *= att
        np.matmul(p.dsc_t, p.q3, out=tmp3)
        dmsg3 += tmp3
        np.matmul(dsc, p.msg3, out=tmp3)  # d queries
        dpre = p.dpre
        np.matmul(p.dtmp, self._gat_a_t, out=dpre)
        dmsg = p.dmsg
        dmsg += dpre
        np.square(p.msg, out=dpre)
        np.subtract(1.0, dpre, out=dpre)
        dmsg *= dpre  # now d(pre-tanh)
        np.matmul(dmsg, self._gat_w_t, out=p.du)

        # --- [M, S] encoder branch, top layer first; the top layer's
        # upstream is d E_MS broadcast over the host axis.
        upstream = p.de_ms3
        for weight_t, (mask3, dz, dz3, out, out3) in zip(
            self._ms_back, p.ms_back
        ):
            np.multiply(upstream, mask3, out=dz3)
            np.matmul(dz, weight_t, out=out)
            upstream = out3
        # dM: the M half of d joint, plus the GAT input's gradient.
        np.add(p.grad_u, p.du3, out=p.grad_u)
        return p.grad

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
