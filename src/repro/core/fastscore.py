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

A stack may be cut into *segments* (consecutive runs of elements):
every 2-D gemm -- the ``[M, S]`` encoder layers, the GAT ``W`` and
``A`` products, the two head layers and their backward mirrors --
runs once per segment on row slices of the plan, and everything else
(the per-element 3-D attention matmuls, every ufunc and reduction)
runs once over the whole stack.  A gemm's rows may depend on how many
rows it multiplies at once (BLAS edge kernels), while numpy's
elementwise loops do not depend on an element's position, so each
segment's results are bitwise-equal to a separate call on that
segment alone.  One segment is the default.

Fidelity contract: every kernel mirrors the autodiff op order and
gemm shapes -- the same flat ``[B*n, F]`` BLAS calls, the same
masked-softmax arithmetic (non-edges pushed by -1e9, detached row-max
shift, 1e-12 denominator) and the same inclusive clip masks -- in
float64, so a kernel is bitwise-equal to the autodiff model it was
exported from (the test suite's autodiff oracle gates this on the
whole catalog).  Where one ufunc call gives the same bits as several,
the kernel makes the one: the ``clip`` ufunc for ``minimum(maximum())``,
the clip mask as ``clip(x) == x`` for ``(x >= lo) & (x <= hi)``
(equal on the bounds, signed zeros, infinities and NaN), and one
``1/n`` scale over both halves of the pooled embedding.  The test
suite holds the first two to their two-op forms.
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

try:
    _clip = np._core.umath.clip  # the ufunc behind np.clip's wrappers
except AttributeError:  # numpy < 2
    _clip = np.core.umath.clip


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
                 n_m: int, n_s: int,
                 biases: Tuple[List[np.ndarray], np.ndarray, np.ndarray,
                               np.ndarray]) -> None:
        h = hidden
        flat = k * n
        f_in = n_m + n_s

        def empty(*shape, kind=float):
            return np.empty(shape, dtype=kind)

        self.shape = (k, n)
        self.inv_n = np.asarray(1.0 / n)
        self.tag: object = None  # schedule tag of the S half (forward)
        # Bias rows broadcast to the stack once: adding a same-shape
        # array gives the same sums as the broadcast add, with a
        # plain loop.
        ms_biases, gat_b, head_b0, head_b1 = biases
        self.ms_bias = [np.repeat(b[None], flat, axis=0) for b in ms_biases]
        self.gat_bias = np.repeat(gat_b[None], flat, axis=0)
        self.head_bias0 = np.repeat(head_b0[None], k, axis=0)
        self.head_bias1 = np.repeat(head_b1[None], k, axis=0)

        # Forward.
        self.joint = empty(k, n, f_in)
        self.joint_m = self.joint[..., :n_m]
        self.joint_s = self.joint[..., n_m:]
        self.x0 = self.joint.reshape(flat, f_in)
        self.u = self.x0[:, :N_NODE_FEATURES]
        self.ms_z = [empty(flat, h) for _ in range(n_layers)]
        # ReLU masks hold 0.0/1.0 as floats: multiplying by
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
            (self.ms_mask[i].reshape(k, n, h), dz[i].reshape(k, n, h),
             dx[i].reshape(k, n, -1))
            for i in reversed(range(n_layers))
        ]

        # Every 2-D gemm as (operand rows, result rows, rows per
        # element): the encoder layers, the single gemms in the order
        # :class:`_Cut` names them, and the encoder backward.
        ms_in = [self.x0] + self.ms_z[:-1]
        self._gemms = (
            [(ms_in[i], self.ms_z[i], n) for i in range(n_layers)],
            [(self.u, self.msg, n), (self.msg, self.q, n),
             (self.h0, self.z1, 1), (self.z1, self.z2, 1),
             (self.dz2, self.dr1, 1), (self.dz1, self.dh0, 1),
             (self.dtmp, self.dpre, n), (self.dmsg, self.du, n)],
            [(dz[i], dx[i], n) for i in reversed(range(n_layers))],
        )
        #: The cut of the latest :meth:`FastGONKernel.forward`, and
        #: its segment sizes.
        self.cut: Optional["_Cut"] = None
        self.segments: Tuple[int, ...] = ()

    def cut_for(self, segments: Tuple[int, ...]) -> "_Cut":
        """The gemm row slices of ``segments`` (sizes summing to k).

        Kept like the plan itself: one cut, for the latest sizes.
        """
        if self.cut is None or self.segments != segments:
            bounds = []
            start = 0
            for size in segments:
                bounds.append((start, start + size))
                start += size
            self.cut = _Cut(*(
                [tuple((a[lo * rows:hi * rows], c[lo * rows:hi * rows])
                       for lo, hi in bounds)
                 for a, c, rows in gemms]
                for gemms in self._gemms
            ))
            self.segments = segments
        return self.cut


class _Cut:
    """Per-segment ``(operand, result)`` row slices of every 2-D gemm.

    Each attribute is a tuple with one pair per segment; with one
    segment the pair is the whole operand and result.
    """

    __slots__ = ("ms", "gat_w", "gat_a", "head0", "head1", "d_head1",
                 "d_head0", "d_gat_a", "d_gat_w", "d_ms")

    def __init__(self, ms: List[tuple], single: List[tuple],
                 d_ms: List[tuple]) -> None:
        self.ms = ms
        (self.gat_w, self.gat_a, self.head0, self.head1, self.d_head1,
         self.d_head0, self.d_gat_a, self.d_gat_w) = single
        self.d_ms = d_ms


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
            return np.ascontiguousarray(array, dtype=float)

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
        # Scalar operands as 0-d arrays: the values NEP 50 would cast
        # Python scalars to, without the per-call conversion.
        self._zero = np.asarray(0.0)
        self._one = np.asarray(1.0)
        self._tiny = np.asarray(1e-12)
        self._lo = np.asarray(-60.0)
        self._hi = np.asarray(60.0)
        self._eps = np.asarray(_EPS)
        self._eps_hi = np.asarray(1.0 - _EPS)
        # The compiled plan of the latest ``(stack, hosts)`` shape; see
        # :class:`_Plan`.
        self._last_plan: Optional[_Plan] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: GONDiscriminator) -> "FastGONKernel":
        """Export ``model`` (with verification) and build a kernel."""
        pack = export_inference(model, meta=gon_inference_meta(model))
        verify_inference_pack(pack, model)
        return cls(pack)

    # ------------------------------------------------------------------
    def _plan(self, k: int, n: int) -> "_Plan":
        """The compiled plan of a ``[k, n]`` stack; replaces the last."""
        plan = self._last_plan
        if plan is None or plan.shape != (k, n):
            plan = self._last_plan = _Plan(
                k, n, self.hidden, self.n_layers, self.n_m_features,
                self.n_s_features,
                ([bias for _, bias in self._ms], self._gat_b,
                 self._head_b0, self._head_b1),
            )
        return plan

    # ------------------------------------------------------------------
    def graph_inputs(
        self, adjacencies: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Self-looped attention masks and their -1e9 non-edge push."""
        masks = adjacency_with_self_loops(np.asarray(adjacencies))
        return masks, np.where(masks > 0, 0.0, -1e9)

    # ------------------------------------------------------------------
    def forward(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        masks: np.ndarray,
        push: np.ndarray,
        tag: object = None,
        segments: Tuple[int, ...] = (),
    ) -> Tuple[np.ndarray, "_Plan"]:
        """Fused forward over a ``[k, n, F]`` stack.

        Returns the ``[k]`` confidence vector plus the plan holding
        the activations :meth:`input_gradient` needs; both are plan
        buffers, valid until the next forward at the same shape.
        Mirrors ``GONDiscriminator.forward_batch`` op for op.  ``tag``
        names the schedule stack: an ascent passes one tag per call so
        the constant S half of the joint input is written once per
        call instead of once per step.  ``segments`` are the sizes of
        the stack's segments (module docstring), empty for one.
        """
        k, n, _ = metrics.shape
        p = self._plan(k, n)
        cut = p.cut_for(segments or (k,))
        matmul, add, multiply = np.matmul, np.add, np.multiply
        zero, one = self._zero, self._one

        # --- eq. 3: per-host feed-forward over [M, S], mean-pooled.
        p.joint_m[...] = metrics
        if tag is None or p.tag is not tag:
            p.joint_s[...] = schedules
            p.tag = tag
        for (weight, _), pairs, z, bias, mask in zip(
            self._ms, cut.ms, p.ms_z, p.ms_bias, p.ms_mask
        ):
            for rows, out in pairs:
                matmul(rows, weight, out)
            add(z, bias, z)
            np.greater(z, zero, mask)
            multiply(z, mask, z)  # ReLU, every layer incl. the final one
        # .mean(axis=1) == sum * (1/n): the sum goes straight into
        # h0's E_MS half, and both halves of h0 are scaled at once.
        add.reduce(p.ms_out3, 1, None, p.h0_ms)

        # --- eq. 4: one-layer GAT over u_i = M[:, :, :4], read in place
        # from the joint input.
        msg = p.msg
        for rows, out in cut.gat_w:
            matmul(rows, self._gat_w, out)
        add(msg, p.gat_bias, msg)
        np.tanh(msg, msg)  # messages_flat
        for rows, out in cut.gat_a:
            matmul(rows, self._gat_a, out)
        att = p.att
        matmul(p.q3, p.msg3_t, att)
        # Fused masked softmax (same arithmetic as nn.gat._masked_softmax).
        add(att, push, att)
        row = p.row
        np.maximum.reduce(att, -1, None, row, True)
        np.subtract(att, row, att)
        np.exp(att, att)
        multiply(att, masks, att)
        add.reduce(att, -1, None, row, True)
        add(row, self._tiny, row)
        np.divide(att, row, att)
        agg = p.agg
        matmul(att, p.msg3, agg)
        # sigma(agg).  The autodiff model clips the sigmoid input to
        # [-60, 60] first, but agg is an attention-weighted average of
        # tanh outputs: |agg| <= sum_j w_j |m_j| < 1 (weights are
        # non-negative and sum to at most 1), so the clip is an exact
        # identity here and is skipped.
        np.negative(agg, agg)
        np.exp(agg, agg)
        add(agg, one, agg)
        np.reciprocal(agg, agg)  # g
        add.reduce(agg, 1, None, p.h0_g)
        multiply(p.h0, p.inv_n, p.h0)  # [E_MS, E_G]

        # --- eq. 5: sigmoid head over [E_MS, E_G].
        z1 = p.z1
        for rows, out in cut.head0:
            matmul(rows, self._head_w0, out)
        add(z1, p.head_bias0, z1)
        np.greater(z1, zero, p.mask1)
        multiply(z1, p.mask1, z1)  # r1
        z2 = p.z2
        for rows, out in cut.head1:
            matmul(rows, self._head_w1, out)
        add(z2, p.head_bias1, z2)
        # 1 / (1 + exp(-clip(z2, -60, 60))), in place.
        _clip(z2, self._lo, self._hi, z2)
        np.negative(z2, z2)
        np.exp(z2, z2)
        add(z2, one, z2)
        np.divide(one, z2, z2)
        return p.scores, p

    # ------------------------------------------------------------------
    def input_gradient(self, p: "_Plan") -> np.ndarray:
        """``d sum(log clip(D)) / dM`` for the last :meth:`forward`.

        ``p`` is the plan :meth:`forward` returned; the gemms run on
        that forward's segments.  The result is a view of the plan's
        ``[k, n, F]`` joint-input gradient, valid until the next
        :meth:`input_gradient` at the same shape.
        """
        scores = p.scores
        cut = p.cut
        matmul, multiply, subtract = np.matmul, np.multiply, np.subtract
        one = self._one

        # d log clip(D) / dD: the clip's inclusive pass-through mask
        # over the clipped score.  ``clip(D) == D`` is exactly
        # ``eps <= D <= 1 - eps``: an in-range D (bounds included)
        # clips to itself, any other value to a bound it differs from,
        # and NaN compares unequal.
        clipped = p.clipped
        _clip(scores, self._eps, self._eps_hi, clipped)
        inside = p.inside
        np.equal(clipped, scores, inside)
        d_scores = p.dz2_flat
        np.divide(inside, clipped, d_scores)
        multiply(d_scores, scores, d_scores)
        subtract(one, scores, clipped)
        multiply(d_scores, clipped, d_scores)  # (d * D) * (1 - D): dz2
        for rows, out in cut.d_head1:
            matmul(rows, self._head_w1_t, out)
        multiply(p.dr1, p.mask1, p.dz1)
        for rows, out in cut.d_head0:
            matmul(rows, self._head_w0_t, out)
        multiply(p.dh0, p.inv_n, p.dh0)

        # --- GAT branch.
        att = p.att
        dagg = p.dagg
        tmp3 = p.dtmp3
        # Autodiff order is (grad * out) * (1 - out); keep it bit-exact.
        multiply(p.agg, p.de_g3, dagg)
        subtract(one, p.agg, tmp3)
        multiply(dagg, tmp3, dagg)
        datt = p.datt
        matmul(dagg, p.msg3_t, datt)
        dmsg3 = p.dmsg3
        matmul(p.att_t, dagg, dmsg3)
        dsc = p.dsc
        multiply(datt, att, dsc)
        np.add.reduce(dsc, -1, None, p.row, True)
        subtract(datt, p.row, dsc)
        multiply(dsc, att, dsc)
        matmul(p.dsc_t, p.q3, tmp3)
        np.add(dmsg3, tmp3, dmsg3)
        matmul(dsc, p.msg3, tmp3)  # d queries
        dpre = p.dpre
        for rows, out in cut.d_gat_a:
            matmul(rows, self._gat_a_t, out)
        dmsg = p.dmsg
        np.add(dmsg, dpre, dmsg)
        np.square(p.msg, dpre)
        subtract(one, dpre, dpre)
        multiply(dmsg, dpre, dmsg)  # now d(pre-tanh)
        for rows, out in cut.d_gat_w:
            matmul(rows, self._gat_w_t, out)

        # --- [M, S] encoder branch, top layer first; the top layer's
        # upstream is d E_MS broadcast over the host axis.
        upstream = p.de_ms3
        for weight_t, (mask3, dz3, out3), pairs in zip(
            self._ms_back, p.ms_back, cut.d_ms
        ):
            multiply(upstream, mask3, dz3)
            for rows, out in pairs:
                matmul(rows, weight_t, out)
            upstream = out3
        # dM: the M half of d joint, plus the GAT input's gradient.
        np.add(p.grad_u, p.du3, p.grad_u)
        return p.grad

    # ------------------------------------------------------------------
    def score_stack(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
    ) -> np.ndarray:
        """Forward-only confidences of a ``[B, n, F]`` stack."""
        metrics = np.asarray(metrics, dtype=float)
        if metrics.shape[0] == 0:
            return np.zeros(0)
        scores, _ = self.forward(
            metrics, np.asarray(schedules, dtype=float),
            *self.graph_inputs(adjacencies)
        )
        return scores.copy()
