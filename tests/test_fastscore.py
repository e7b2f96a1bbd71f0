"""The production GON ascent against its autodiff oracle.

Every eq.-1 ascent in production runs
:func:`repro.core.surrogate.generate_metrics_batch` on a
:class:`repro.core.fastscore.FastGONKernel`; ``tests/gon_oracle.py``
keeps the autodiff ascent it must reproduce.  Pinned here:

* ``nn/serialization`` inference export -- pack/unpack round-trip
  equality and loud refusal on architecture or shape mismatches;
* the kernel ascent reproduces the oracle *bit for bit* (float64
  throughout), with one forward and one input gradient per step; its
  clip ufunc and merged clip mask equal their two-op forms; a kernel
  keeps one buffer pool per host count and one plan per stack size,
  builds no plan for a repeated size, and frees an outgrown pool and
  a dropped kernel's pool by reference counting;
* segment exactness: a call cut into segments returns, for every
  element, bitwise what the call on its segment alone returns
  (random partitions);
* ``core/scoring.LocalScorer``: ascents and confidence reads equal to
  the oracle, and post-fine-tune kernel re-export;
* the scoring service's kernel path: per-request bitwise replies (one
  kernel call per request, also when requests are queued together),
  a malformed request dropping only its own client, dispatch on
  arrival (no blocking read while a message is in hand) and a
  fixed-size ``/status`` service section;
* training parity: ``train_gon`` through the kernel and through the
  oracle yields bitwise-equal weights and an equal history;
* the scenario-catalog sweep: for every registered scenario the
  production campaign must produce records and decision digests
  bit-identical to a campaign whose every ascent (training included)
  and confidence read ran on the oracle;
* ``benchmarks/compare_records.py --decisions``.
"""

from __future__ import annotations

import gc
import json
import queue
import sys
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import GONDiscriminator
from repro.core.fastscore import FastGONKernel, _clip, gon_inference_meta
from repro.core.scoring import LocalScorer
from repro.core.surrogate import generate_metrics_batch
from repro.core.training import TrainingConfig, train_gon
from repro.experiments import (
    CampaignConfig,
    prepare_campaign_assets,
    run_campaign,
)
from repro.nn.serialization import (
    InferencePack,
    export_inference,
    verify_inference_pack,
)
from repro.scenarios import all_scenarios
from repro.serving import GONScoringService, ScoringClient

from fleet_harness import CELL, one_cell_grid, sign_off
from gon_oracle import generate_metrics_batch as oracle_batch
from gon_oracle import oracle_ascents


def _stacks(samples, count=None):
    chosen = samples if count is None else samples[:count]
    return (
        np.stack([np.asarray(s.metrics, dtype=float) for s in chosen]),
        np.stack([np.asarray(s.schedule, dtype=float) for s in chosen]),
        np.stack([np.asarray(s.adjacency, dtype=float) for s in chosen]),
    )


def _assert_results_bitwise(fast_results, oracle_results):
    assert len(fast_results) == len(oracle_results)
    for fast, oracle in zip(fast_results, oracle_results):
        assert np.array_equal(fast.metrics, oracle.metrics)
        assert fast.n_steps == oracle.n_steps
        assert fast.converged == oracle.converged


# ----------------------------------------------------------------------
# Inference export
# ----------------------------------------------------------------------
class TestInferenceExport:
    def test_roundtrip_forward_equality(self, trained_gon, session_samples):
        pack = export_inference(
            trained_gon, meta=gon_inference_meta(trained_gon)
        )
        verify_inference_pack(pack, trained_gon)
        kernel = FastGONKernel(pack)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        scores = kernel.score_stack(metrics, schedules, adjacencies)
        oracle = trained_gon.forward_batch(metrics, schedules, adjacencies).data
        assert np.array_equal(scores, np.asarray(oracle).reshape(-1))

    def test_export_is_a_frozen_snapshot(self, trained_gon):
        pack = export_inference(trained_gon)
        for array in pack.arrays.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_verify_refuses_missing_and_unexpected_names(self, trained_gon):
        pack = export_inference(trained_gon)
        arrays = dict(pack.arrays)
        (dropped, extra_value), *_ = arrays.items()
        del arrays[dropped]
        with pytest.raises(KeyError):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )
        arrays[dropped] = extra_value
        arrays["not.a.parameter"] = extra_value
        with pytest.raises(KeyError):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )

    def test_verify_refuses_shape_mismatch(self, trained_gon):
        pack = export_inference(trained_gon)
        arrays = dict(pack.arrays)
        name = "head.blocks.1.bias"
        arrays[name] = np.zeros(7)
        with pytest.raises(ValueError):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )

    def test_verify_refuses_non_float64_pack(self, trained_gon):
        pack = export_inference(trained_gon)
        arrays = dict(pack.arrays)
        name = "head.blocks.1.bias"
        arrays[name] = arrays[name].astype(np.float32)
        with pytest.raises(ValueError, match="float64"):
            verify_inference_pack(
                InferencePack(arrays=arrays, meta=pack.meta), trained_gon
            )

    def test_kernel_refuses_foreign_pack(self, trained_gon):
        pack = export_inference(trained_gon, meta={"arch": "mlp"})
        with pytest.raises(ValueError):
            FastGONKernel(pack)

    def test_kernel_refuses_wrong_architecture_shape(self, trained_gon):
        # Claim a different hidden width than the arrays carry.
        meta = gon_inference_meta(trained_gon)
        meta["hidden"] = int(meta["hidden"]) * 2
        pack = export_inference(trained_gon, meta=meta)
        with pytest.raises((KeyError, ValueError)):
            FastGONKernel(pack)


# ----------------------------------------------------------------------
# Kernel parity vs the autodiff oracle
# ----------------------------------------------------------------------
class TestFastKernelParity:
    def test_forward_bitwise_equal(self, trained_gon, session_samples):
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 8)
        scores = kernel.score_stack(metrics, schedules, adjacencies)
        oracle = trained_gon.forward_batch(metrics, schedules, adjacencies).data
        assert np.array_equal(scores, np.asarray(oracle).reshape(-1))

    # 1 = a lone ascent, 7 = a maintenance slate (incumbent + 6
    # candidates), 24 = a full tabu neighbourhood sample.
    @pytest.mark.parametrize("size", [1, 7, 24])
    def test_ascent_bitwise_equal(self, trained_gon, session_samples, size):
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, size)
        assert len(metrics) == size
        fast = generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        oracle = oracle_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        _assert_results_bitwise(fast, oracle)

    def test_long_ascent_with_narrowing_bitwise_equal(
        self, trained_gon, session_samples
    ):
        # 40 steps with a small gamma: a long fixed-shape ascent.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        fast = generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-3, max_steps=40,
        )
        oracle = oracle_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-3, max_steps=40,
        )
        _assert_results_bitwise(fast, oracle)

    def test_noise_start_bitwise_equal(self, trained_gon, session_samples):
        # Training's form: noise starts drawn from the caller's rng.
        kernel = FastGONKernel.from_model(trained_gon)
        _, schedules, adjacencies = _stacks(session_samples, 5)
        fast = generate_metrics_batch(
            kernel, schedules, adjacencies, rng=np.random.default_rng(3),
            gamma=1e-2, max_steps=10,
        )
        oracle = oracle_batch(
            trained_gon, schedules, adjacencies, rng=np.random.default_rng(3),
            gamma=1e-2, max_steps=10,
        )
        _assert_results_bitwise(fast, oracle)

    @pytest.mark.parametrize("scale, shift", [
        # Scaled warm starts push D into (1 - 1e-8, 1).
        pytest.param(50.0, 0.0, id="high"),
        # A lowered head bias pushes unscaled starts into (0, 1e-8).
        pytest.param(10.0, -22.0, id="low"),
    ])
    def test_saturated_start_bitwise_equal(self, scale, shift):
        # Warm starts whose D lies past the log-likelihood clip: the
        # clip's pass-through mask is false there, so those elements
        # get a zero gradient although D * (1 - D) is not zero.
        # Trained GONs over catalog inputs never leave the clip's
        # range, so an untrained GON over scaled random inputs
        # provides the saturation.
        rng = np.random.default_rng(42)
        gon = GONDiscriminator(rng, hidden=16, n_layers=2)
        gon.head.blocks[1].bias.data += shift
        batch, n = 8, 6
        metrics = rng.uniform(0, 1, size=(batch, n, gon.n_m_features))
        schedules = rng.uniform(0, 1, size=(batch, n, gon.n_s_features))
        adjacencies = np.triu(rng.random((batch, n, n)) > 0.5, 1).astype(float)
        adjacencies = adjacencies + adjacencies.swapaxes(-1, -2)
        metrics[::3] *= scale
        kernel = FastGONKernel.from_model(gon)
        scores, plan = kernel.forward(
            metrics, schedules, *kernel.graph_inputs(adjacencies)
        )
        saturated = (scores < 1e-8) | (scores > 1.0 - 1e-8)
        assert saturated.any() and not saturated.all(), scores
        assert ((scores > 0.0) & (scores < 1.0)).all(), scores
        grad = kernel.input_gradient(plan)
        assert not grad[saturated].any()
        assert grad[~saturated].any()
        kwargs = dict(init_metrics=metrics, gamma=1e-2, max_steps=8)
        fast = generate_metrics_batch(kernel, schedules, adjacencies, **kwargs)
        oracle = oracle_batch(gon, schedules, adjacencies, **kwargs)
        _assert_results_bitwise(fast, oracle)

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_ascent_runs_one_forward_and_gradient_per_step(
        self, trained_gon, session_samples, steps
    ):
        # M* is never scored: an n-step ascent makes exactly n forwards
        # and n input gradients.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 4)
        calls = {"forward": 0, "input_gradient": 0}

        def counted(name):
            method = getattr(kernel, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        for name in calls:
            setattr(kernel, name, counted(name))
        generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=steps,
        )
        assert calls == {"forward": steps, "input_gradient": steps}

    @pytest.mark.parametrize("lo, hi", [
        pytest.param(1e-8, 1.0 - 1e-8, id="log-likelihood"),
        pytest.param(-60.0, 60.0, id="sigmoid-input"),
    ])
    def test_clip_ufunc_and_mask_equal_their_old_forms(self, lo, hi):
        # The kernel clips with the clip ufunc and takes the clip's
        # pass-through mask as ``clip(x) == x``; both must equal the
        # forms the autodiff oracle's arithmetic was first matched
        # with, ``minimum(maximum(x, lo), hi)`` and
        # ``(x >= lo) & (x <= hi)``, bit for bit: on the bounds and
        # their neighbours, signed zeros, infinities and NaN.
        edges = [lo, hi, 0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]
        edges += [np.nextafter(b, d) for b in (lo, hi) for d in (-np.inf, np.inf)]
        values = np.concatenate([
            np.array(edges),
            np.random.default_rng(0).uniform(2 * lo - 1, 2 * hi + 1, 64),
        ])
        lo_, hi_ = np.asarray(lo), np.asarray(hi)
        clipped = np.empty_like(values)
        _clip(values, lo_, hi_, clipped)
        old = np.minimum(np.maximum(values, lo_), hi_)
        assert np.array_equal(clipped.view(np.uint64), old.view(np.uint64))
        mask = np.empty(values.shape, dtype=bool)
        np.equal(clipped, values, mask)
        assert np.array_equal(mask, (values >= lo_) & (values <= hi_))

    @pytest.mark.parametrize("n", [5, 8, 16])
    def test_dot_gemms_equal_matmul(self, n):
        # The kernel runs its 2-D gemms through ``np.dot``; each must
        # equal ``np.matmul`` bit for bit on the operands the kernel
        # hands it: segment row slices of its plan, the transposed
        # weight views of the backward and the [k, 1] head.
        rng = np.random.default_rng([n, 11])
        gon = GONDiscriminator(rng, hidden=24, n_layers=2)
        kernel = FastGONKernel.from_model(gon)
        k = 13
        metrics = rng.uniform(0, 1, size=(k, n, gon.n_m_features))
        schedules = rng.uniform(0, 1, size=(k, n, gon.n_s_features))
        adjacencies = (rng.random((k, n, n)) > 0.5).astype(float)
        _, plan = kernel.forward(
            metrics, schedules, *kernel.graph_inputs(adjacencies),
            segments=(1, 7, 5),
        )
        kernel.input_gradient(plan)
        cut = plan.cut
        weights = {
            "gat_w": kernel._gat_w, "gat_a": kernel._gat_a,
            "head0": kernel._head_w0, "head1": kernel._head_w1,
            "d_head1": kernel._head_w1_t, "d_head0": kernel._head_w0_t,
            "d_gat_a": kernel._gat_a_t, "d_gat_w": kernel._gat_w_t,
        }
        gemms = [(weight, getattr(cut, name)) for name, weight in weights.items()]
        gemms += zip([weight for weight, _ in kernel._ms], cut.ms)
        gemms += zip(kernel._ms_back, cut.d_ms)
        kinds = set()
        for weight, pairs in gemms:
            assert len(pairs) == 3
            for rows, out in pairs:
                kinds.add((weight.flags.c_contiguous, weight.shape[1] == 1))
                np.matmul(rows, weight, out)
                old = out.copy()
                np.dot(rows, weight, out)
                assert np.array_equal(out.view(np.uint64), old.view(np.uint64))
        # Plain and transposed weights, and the [*, 1] head, were all
        # among them.
        assert kinds >= {(True, False), (False, False), (True, True)}

    def test_transposed_row_max_equals_last_axis_max(self):
        # The softmax shift reduces a transposed copy of the scores
        # over its middle axis instead of the scores over their last
        # axis.  On rows mixing signed zeros, infinities and NaN the
        # two maxima are equal, or both NaN, and may differ only in the
        # sign of a zero maximum; the shifted exponents the kernel
        # reads from them are equal bit for bit.
        rng = np.random.default_rng(3)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1e9])
        for n in (5, 8, 13, 16):
            scores = rng.standard_normal((64, n, n))
            special = rng.random(scores.shape) < 0.4
            scores[special] = rng.choice(specials, size=int(special.sum()))
            old = np.empty((64, n, 1))
            np.maximum.reduce(scores, -1, None, old, True)
            transposed = np.empty_like(scores)
            np.copyto(transposed, scores.swapaxes(-1, -2))
            new = np.empty((64, n, 1))
            np.maximum.reduce(transposed, 1, None, new.reshape(64, n))
            assert np.array_equal(new, old, equal_nan=True)
            with np.errstate(invalid="ignore"):
                shifted_old = np.exp(scores - old)
                shifted_new = np.exp(scores - new)
            assert np.array_equal(shifted_new.view(np.uint64),
                                  shifted_old.view(np.uint64))

    def test_broadcast_warm_start_returns_c_contiguous_rows(
        self, trained_gon, session_samples
    ):
        # CAROL warm-starts every candidate from one observed matrix
        # through a broadcast view.  The ascent's copy of it is C
        # ordered, so each returned M* row is one contiguous matrix,
        # not a strided slice across the stack.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        warm = np.broadcast_to(metrics[0], metrics.shape)
        results = generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=warm,
            gamma=1e-2, max_steps=2,
        )
        assert all(r.metrics.flags.c_contiguous for r in results)
        copied = generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=warm.copy(),
            gamma=1e-2, max_steps=2,
        )
        _assert_results_bitwise(results, copied)

    def test_per_element_parameters_match_split_calls(
        self, trained_gon, session_samples
    ):
        # One ascent with per-element gamma, cut into one segment per
        # request, matches the separate per-request calls bit for bit.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        first = generate_metrics_batch(
            kernel, schedules[:3], adjacencies[:3], init_metrics=metrics[:3],
            gamma=1e-2, max_steps=5,
        )
        second = generate_metrics_batch(
            kernel, schedules[3:], adjacencies[3:], init_metrics=metrics[3:],
            gamma=2e-3, max_steps=5,
        )
        fused = generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=metrics,
            gamma=np.array([1e-2] * 3 + [2e-3] * 3), max_steps=5,
            segments=(3, 3),
        )
        _assert_results_bitwise(fused, first + second)

    def test_ascent_rejects_bad_parameters(self, trained_gon, session_samples):
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 2)
        with pytest.raises(ValueError):
            generate_metrics_batch(
                kernel, schedules, adjacencies, init_metrics=metrics,
                gamma=0.0, max_steps=3,
            )
        with pytest.raises(ValueError):
            generate_metrics_batch(
                kernel, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=-1,
            )
        # One step count per call: every element runs the same shape.
        for steps in (np.array([3, 5]), 2.5):
            with pytest.raises(TypeError):
                generate_metrics_batch(
                    kernel, schedules, adjacencies, init_metrics=metrics,
                    gamma=1e-2, max_steps=steps,
                )
        # Non-finite step sizes, scalar and per element: NaN slips
        # past a plain ``gamma <= 0`` check.
        for gamma in (np.nan, np.inf, -np.inf,
                      np.array([1e-2, np.nan]), np.array([np.inf, 1e-2])):
            with pytest.raises(ValueError, match="gamma"):
                generate_metrics_batch(
                    kernel, schedules, adjacencies, init_metrics=metrics,
                    gamma=gamma, max_steps=3,
                )

    def test_workspace_cache_keeps_one_entry(
        self, trained_gon, session_samples
    ):
        # Decisions interleave lone reads, maintenance slates and tabu
        # samples on one kernel.  The kernel keeps one buffer pool per
        # host count and one plan per stack size over it: a repeated
        # size builds nothing and reuses its plan, and a larger stack
        # replaces the pool and its plans.
        from repro import telemetry

        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 12)
        n = metrics.shape[1]
        built = telemetry.counter("gon.plans.built")

        def ascend(size):
            return generate_metrics_batch(
                kernel, schedules[:size], adjacencies[:size],
                init_metrics=metrics[:size], gamma=1e-2, max_steps=2,
            )

        def builds(call):
            before = built.value
            call()
            return built.value - before

        assert [builds(lambda: ascend(size)) for size in (7, 1, 7, 1)] == [
            1, 1, 0, 0]
        pool = kernel._pools[n]
        assert pool.capacity == 7 and sorted(pool.plans) == [1, 7]
        plans = dict(pool.plans)
        assert builds(lambda: kernel.score_stack(
            metrics[:4], schedules[:4], adjacencies[:4])) == 1
        assert all(pool.plans[size] is plans[size] for size in plans)
        # Growth: a new pool, with only the new size's plan on it.
        assert builds(lambda: ascend(12)) == 1
        assert list(kernel._pools) == [n]
        grown = kernel._pools[n]
        assert grown is not pool and grown.capacity == 12
        assert list(grown.plans) == [12]
        assert [builds(lambda: ascend(size)) for size in (1, 7, 12) * 2] == [
            1, 1, 0, 0, 0, 0]
        # Prefix plans still reproduce the oracle bit for bit.
        for size in (1, 7, 12):
            _assert_results_bitwise(
                ascend(size),
                oracle_batch(
                    trained_gon, schedules[:size], adjacencies[:size],
                    init_metrics=metrics[:size], gamma=1e-2, max_steps=2,
                ),
            )

    def test_dropped_kernel_is_freed_by_reference_counting(
        self, trained_gon, session_samples
    ):
        # A plan must not reference its pool, its kernel or itself: a
        # cycle would keep every outgrown pool and every re-exported
        # kernel's buffers alive until the cycle collector happens to
        # run.
        metrics, schedules, adjacencies = _stacks(session_samples, 7)
        n = metrics.shape[1]
        kernel = FastGONKernel.from_model(trained_gon)

        def ascend(size):
            generate_metrics_batch(
                kernel, schedules[:size], adjacencies[:size],
                init_metrics=metrics[:size], gamma=1e-2, max_steps=2,
            )

        def pool_refs():
            pool = kernel._pools[n]
            return ([weakref.ref(buffer) for buffer in pool.buffers]
                    + [weakref.ref(plan) for plan in pool.plans.values()])

        ascend(3)
        ascend(1)
        outgrown = pool_refs()
        gc.disable()
        try:
            ascend(7)
            assert all(ref() is None for ref in outgrown)
            ascend(3)
            kernel.score_stack(metrics, schedules, adjacencies)
            alive = weakref.ref(kernel)
            pool = pool_refs()
            assert len(pool) > 2
            del kernel
            assert alive() is None
            assert all(ref() is None for ref in pool)
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Segment exactness: a merged call equals the separate calls it replaces
# ----------------------------------------------------------------------
def _random_partition(rng, k):
    """Sizes of a random cut of ``k`` elements into consecutive runs."""
    n_cuts = int(rng.integers(0, min(k, 6)))
    cuts = np.sort(rng.choice(np.arange(1, k), size=n_cuts, replace=False))
    bounds = [0, *cuts.tolist(), k]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


class TestSegmentContract:
    """Every element of a segmented call is bitwise what the call on
    its segment alone returns.

    This rests on the BLAS gemm only through the per-segment gemm
    calls, and on numpy's elementwise loops and reductions not
    depending on an element's position in the stack.  It is the guard
    on each runner's BLAS and numpy: an unsegmented merge is not exact
    (a gemm's rows can change in the last ulp with the number of rows
    it multiplies at once).
    """

    # The ids name the kernel's arithmetic, float64.
    @pytest.mark.parametrize("n", [5, 8, 10, 13, 16], ids="{}-float64".format)
    @pytest.mark.parametrize("steps", [0, 1, 8])
    def test_segments_bitwise_equal_solo_calls(self, n, steps):
        rng = np.random.default_rng([n, steps, 7])
        gon = GONDiscriminator(rng, hidden=24, n_layers=2)
        kernel = FastGONKernel.from_model(gon)
        for _ in range(3):
            k = int(rng.integers(2, 33))
            metrics = rng.uniform(0, 1, size=(k, n, gon.n_m_features))
            schedules = rng.uniform(0, 1, size=(k, n, gon.n_s_features))
            adjacencies = np.triu(rng.random((k, n, n)) > 0.5, 1).astype(float)
            adjacencies = adjacencies + adjacencies.swapaxes(-1, -2)
            gamma = rng.uniform(1e-3, 2e-2, size=k)
            segments = _random_partition(rng, k)
            merged = generate_metrics_batch(
                kernel, schedules, adjacencies, init_metrics=metrics,
                gamma=gamma, max_steps=steps, segments=segments,
            )
            solo = []
            start = 0
            for size in segments:
                rows = slice(start, start + size)
                start += size
                solo += generate_metrics_batch(
                    kernel, schedules[rows], adjacencies[rows],
                    init_metrics=metrics[rows], gamma=gamma[rows],
                    max_steps=steps,
                )
            _assert_results_bitwise(merged, solo)

    def test_segments_counted_per_call(self, trained_gon, session_samples):
        from repro import telemetry

        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        counters = telemetry.counter("gon.ascent.calls"), telemetry.counter(
            "gon.ascent.segments"
        )
        before = [counter.value for counter in counters]
        for segments in ((), (1, 4), (2, 2, 1)):
            generate_metrics_batch(
                kernel, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=1, segments=segments,
            )
        assert [c.value - b for c, b in zip(counters, before)] == [3, 6]

    @pytest.mark.parametrize("segments", [(0, 5), (2, 2), (6,), (2, -1, 4)])
    def test_segments_must_cover_the_stack(
        self, trained_gon, session_samples, segments
    ):
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        with pytest.raises(ValueError, match="segments"):
            generate_metrics_batch(
                kernel, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=1, segments=segments,
            )


# ----------------------------------------------------------------------
# LocalScorer
# ----------------------------------------------------------------------
class TestLocalScorerBackends:
    def test_fast_backend_matches_exact(self, trained_gon, session_samples):
        # "exact" names the autodiff oracle ascent.
        fast = LocalScorer(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        _assert_results_bitwise(
            fast.ascent(metrics, schedules, adjacencies, 1e-2, 4),
            oracle_batch(
                trained_gon, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=4,
            ),
        )

    def test_confidence_reads_float64_kernel(
        self, trained_gon, session_samples
    ):
        # The POT gate input: a float64 kernel forward, bitwise-equal
        # to the model's own forward.
        scorer = LocalScorer(trained_gon)
        assert {
            array.dtype for array in scorer.kernel().pack.arrays.values()
        } == {np.dtype(np.float64)}
        for sample in session_samples[:12]:
            assert scorer.confidence(sample) == trained_gon.score(sample)

    def test_oracle_reads_confidence_on_the_model(
        self, trained_gon, session_samples, monkeypatch
    ):
        scorer = LocalScorer(trained_gon)
        kernel = scorer.kernel()

        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel forward ran")

        monkeypatch.setattr(kernel, "forward", no_kernel)
        sample = session_samples[0]
        with oracle_ascents():
            assert scorer.confidence(sample) == trained_gon.score(sample)
        with pytest.raises(AssertionError, match="kernel forward ran"):
            scorer.confidence(sample)

    def test_fine_tune_re_exports_the_kernel(self, session_samples):
        # A private model instance: fine-tuning mutates weights.
        model = GONDiscriminator(np.random.default_rng(0), hidden=16,
                                 n_layers=2)
        scorer = LocalScorer(model)
        metrics, schedules, adjacencies = _stacks(session_samples, 4)
        scorer.ascent(metrics, schedules, adjacencies, 1e-2, 3)
        stale_kernel = scorer.kernel()
        scorer.fine_tune(
            session_samples[:8],
            config=TrainingConfig(epochs=1, batch_size=4, seed=0),
            iterations=1,
            rng=np.random.default_rng(1),
        )
        assert scorer.generation == 1
        assert scorer.kernel() is not stale_kernel
        assert scorer.confidence(session_samples[0]) == model.score(
            session_samples[0]
        )
        _assert_results_bitwise(
            scorer.ascent(metrics, schedules, adjacencies, 1e-2, 3),
            oracle_batch(
                model, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=3,
            ),
        )


# ----------------------------------------------------------------------
# Scoring service: kernel ascents, one call per request, dispatch on arrival
# ----------------------------------------------------------------------
class TestServiceFastBackend:
    def _serve(self, trained_gon, n_clients=1, **kwargs):
        request_queue = queue.Queue()
        replies = {i: queue.Queue() for i in range(n_clients)}
        service = GONScoringService(
            {"scenario": trained_gon}, request_queue, replies,
            one_cell_grid(), **kwargs
        )
        thread = threading.Thread(target=service.serve, daemon=True)
        thread.start()
        clients = [
            ScoringClient(i, "scenario", request_queue, replies[i])
            for i in range(n_clients)
        ]
        return service, thread, clients

    def test_fast_backend_replies_bitwise_equal(
        self, trained_gon, session_samples
    ):
        service, thread, (client,) = self._serve(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        remote = client.ascent(metrics, schedules, adjacencies,
                               gamma=1e-2, max_steps=4)
        oracle = oracle_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=4,
        )
        _assert_results_bitwise(remote, oracle)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_segmented_request_replies_per_segment(
        self, trained_gon, session_samples
    ):
        service, thread, (client,) = self._serve(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        remote = client.ascent(metrics, schedules, adjacencies,
                               gamma=1e-2, max_steps=4, segments=(1, 4))
        oracle = [
            result
            for rows in (slice(0, 1), slice(1, 5))
            for result in oracle_batch(
                trained_gon, schedules[rows], adjacencies[rows],
                init_metrics=metrics[rows], gamma=1e-2, max_steps=4,
            )
        ]
        _assert_results_bitwise(remote, oracle)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize(
        "flaw",
        ["segments", "gamma", "model_key", "metrics", "warm_start", "empty"],
    )
    def test_malformed_request_drops_only_its_client(
        self, trained_gon, session_samples, flaw
    ):
        # A request the kernel cannot score is its client's fault: the
        # service marks that client lost and keeps scoring the others.
        from repro.serving import AscentRequest

        request_queue = queue.Queue()
        replies = {0: queue.Queue(), 1: queue.Queue()}
        service = GONScoringService(
            {"scenario": trained_gon}, request_queue, replies, one_cell_grid()
        )
        metrics, schedules, adjacencies = _stacks(session_samples, 2)
        good = dict(
            client_id=0, request_id=1, model_key="scenario",
            metrics=metrics, schedules=schedules, adjacencies=adjacencies,
            gamma=1e-2, max_steps=4,
        )
        bad = dict(good, client_id=1, **{
            "segments": dict(segments=(0, 2)),
            "gamma": dict(gamma=-1.0),
            "model_key": dict(model_key="no-such-scenario"),
            # A 0-d stack: no leading axis to count elements on.
            "metrics": dict(metrics=np.array(0.0)),
            # A [B, n, 1] warm start: refused before any kernel work.
            "warm_start": dict(metrics=metrics[..., :1]),
            # No elements: nothing to stack into a reply.
            "empty": dict(
                metrics=metrics[:0], schedules=schedules[:0],
                adjacencies=adjacencies[:0],
            ),
        }[flaw])
        request_queue.put(AscentRequest(**bad))
        request_queue.put(AscentRequest(**good))
        sign_off(request_queue, 0)
        service.serve()
        assert service.lost == {1}
        assert replies[1].empty()
        reply = replies[0].get_nowait()
        oracle = oracle_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=4,
        )
        assert np.array_equal(
            reply.metrics, np.stack([r.metrics for r in oracle])
        )

    def test_concurrent_requests_stay_bitwise_without_merging(
        self, trained_gon, session_samples
    ):
        # Two clients with *different* ascent parameters: every request
        # gets its own kernel call, so replies equal the per-request
        # oracle bit for bit.
        service, thread, clients = self._serve(trained_gon, n_clients=2)
        metrics, schedules, adjacencies = _stacks(session_samples, 4)
        results = {}

        def ask(index, client, gamma, steps):
            results[index] = client.ascent(
                metrics, schedules, adjacencies, gamma=gamma, max_steps=steps
            )

        threads = [
            threading.Thread(
                target=ask, args=(i, clients[i], gamma, steps), daemon=True
            )
            for i, (gamma, steps) in enumerate(((1e-2, 4), (3e-3, 6)))
        ]
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=10)
        assert sorted(results) == [0, 1]
        for index, (gamma, steps) in enumerate(((1e-2, 4), (3e-3, 6))):
            oracle = oracle_batch(
                trained_gon, schedules, adjacencies, init_metrics=metrics,
                gamma=gamma, max_steps=steps,
            )
            _assert_results_bitwise(results[index], oracle)
        for client in clients:
            sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert service.stats.n_elements == 8

    def test_fused_batch_deterministic_when_queued_together(
        self, trained_gon, session_samples
    ):
        # Enqueue both requests *before* serve() drains, so they are
        # guaranteed to land in one drained batch: each still runs as
        # its own kernel call, with its own gamma and step count, and
        # both replies equal the per-request oracle bit for bit.
        from repro.serving import AscentRequest

        request_queue = queue.Queue()
        replies = {0: queue.Queue(), 1: queue.Queue()}
        service = GONScoringService(
            {"scenario": trained_gon}, request_queue, replies, one_cell_grid()
        )
        metrics, schedules, adjacencies = _stacks(session_samples, 3)
        asks = ((0, (1e-2, 4)), (1, (4e-3, 6)))
        for client_id, (gamma, steps) in asks:
            request_queue.put(AscentRequest(
                client_id=client_id, request_id=1, model_key="scenario",
                metrics=metrics, schedules=schedules,
                adjacencies=adjacencies, gamma=gamma, max_steps=steps,
            ))
        sign_off(request_queue, 0)
        sign_off(request_queue, 1)
        service.serve()
        assert service.stats.n_batches == 2
        for client_id, (gamma, steps) in asks:
            reply = replies[client_id].get_nowait()
            oracle = oracle_batch(
                trained_gon, schedules, adjacencies, init_metrics=metrics,
                gamma=gamma, max_steps=steps,
            )
            assert np.array_equal(
                reply.metrics, np.stack([r.metrics for r in oracle])
            )

    def test_serve_never_waits_while_holding_a_message(
        self, trained_gon, session_samples
    ):
        # Two waves of messages; the second becomes readable only once
        # the first is answered.  Holding a message, serve() may take
        # what is already queued but must never block or wait on a
        # timeout for batch-mates.
        from repro.serving import AscentRequest, CellDone, ClientDone

        metrics, schedules, adjacencies = _stacks(session_samples, 2)

        def request(request_id):
            return AscentRequest(
                client_id=0, request_id=request_id, model_key="scenario",
                metrics=metrics, schedules=schedules,
                adjacencies=adjacencies, gamma=1e-2, max_steps=2,
            )

        requests = _RecordingRequestQueue([
            [request(1)],
            [request(2), CellDone(client_id=0, cell_id=CELL),
             ClientDone(client_id=0)],
        ])
        service = GONScoringService(
            {"scenario": trained_gon}, requests, {0: requests.reply_queue},
            one_cell_grid(),
        )
        service.serve()
        assert [reply.request_id for reply in requests.replies] == [1, 2]
        held = [(method, timeout) for method, timeout, holding
                in requests.reads if holding]
        assert held, "serve() never looked for already-queued messages"
        assert set(held) == {("get_nowait", None)}
        assert service.stats.n_batches == 2

    def test_status_service_section_stays_fixed_size(
        self, trained_gon, session_samples
    ):
        from repro.experiments.fleet import _status_provider
        from repro.serving import ChaosControl

        service, thread, (client,) = self._serve(trained_gon)
        transport = SimpleNamespace(
            n_connected=1, peak_connected=1, auth_rejections=0
        )
        provider = _status_provider(
            service, transport, 1, ChaosControl(service, transport)
        )
        metrics, schedules, adjacencies = _stacks(session_samples, 1)

        def section_length(n_batches):
            for _ in range(n_batches):
                client.ascent(metrics, schedules, adjacencies,
                              gamma=1e-2, max_steps=2)
            return len(json.dumps(provider()["service"]))

        # 2 then 8 batches: every counter stays one digit wide.
        assert section_length(2) == section_length(6)
        assert service.stats.n_batches == 8
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()


class _RecordingRequestQueue:
    """A request queue serving message waves and logging every read.

    Wave ``i + 1`` becomes readable once a reply for wave ``i`` is
    sent.  ``reads`` holds ``(method, timeout, holding)`` per read,
    where ``holding`` says a message had been read since the last
    reply -- i.e. serve() had work in hand when it read.
    """

    def __init__(self, waves) -> None:
        self._waves = [list(wave) for wave in waves]
        self._ready = self._waves.pop(0)
        self._holding = False
        self.reads: list = []
        self.replies: list = []
        self.reply_queue = SimpleNamespace(put=self._on_reply)

    def _read(self, method, timeout):
        self.reads.append((method, timeout, self._holding))
        if not self._ready:
            raise queue.Empty
        self._holding = True
        return self._ready.pop(0)

    def get(self, timeout=None):
        return self._read("get", timeout)

    def get_nowait(self):
        return self._read("get_nowait", None)

    def _on_reply(self, reply) -> None:
        self.replies.append(reply)
        self._holding = False
        if self._waves:
            self._ready.extend(self._waves.pop(0))


# ----------------------------------------------------------------------
# Scenario-catalog parity sweep
# ----------------------------------------------------------------------
def _catalog_config(name: str) -> CampaignConfig:
    # CI-scale offline training (the CampaignConfig defaults); only the
    # evaluation length is shortened.
    return CampaignConfig(
        scenarios=(name,),
        models=("CAROL",),
        n_seeds=1,
        workers=1,
        seed=0,
        n_intervals=3,
        shared_assets=True,
    )


@pytest.fixture(scope="module")
def catalog_sweep():
    """Per-scenario campaign results: production scoring and the oracle.

    The ``oracle`` run trains its GON and takes every decision with the
    autodiff ascent (serially, inside :func:`oracle_ascents`); the
    production runs share kernel-trained assets.
    """
    sweep = {}
    for spec in all_scenarios():
        config = _catalog_config(spec.name)
        with oracle_ascents():
            oracle = run_campaign(
                config, prepared_assets=prepare_campaign_assets(config)
            )
        sweep[spec.name] = {
            "fast": run_campaign(
                config, prepared_assets=prepare_campaign_assets(config)
            ),
            "oracle": oracle,
        }
    return sweep


def _digests(result):
    return [r.diagnostics["decision_digest"] for r in result.records]


class TestCatalogParity:
    def test_catalog_covers_all_scenarios(self, catalog_sweep):
        assert len(catalog_sweep) >= 9

    def test_fast_records_bit_identical_across_catalog(self, catalog_sweep):
        for name, results in catalog_sweep.items():
            assert results["fast"].rows() == results["oracle"].rows(), name

    def test_fast_decisions_identical_across_catalog(self, catalog_sweep):
        for name, results in catalog_sweep.items():
            assert _digests(results["fast"]) == _digests(results["oracle"]), name


# ----------------------------------------------------------------------
# Training parity
# ----------------------------------------------------------------------
class TestTrainingParity:
    def test_train_gon_kernel_matches_oracle(self, session_samples):
        config = TrainingConfig(
            epochs=2, batch_size=8, learning_rate=1e-3,
            generation_steps=10, seed=0,
        )

        def train():
            model = GONDiscriminator(
                np.random.default_rng(0), hidden=16, n_layers=2
            )
            return model, train_gon(model, session_samples, config)

        production, history = train()
        with oracle_ascents():
            oracle, oracle_history = train()
        state, oracle_state = production.state_dict(), oracle.state_dict()
        assert state.keys() == oracle_state.keys()
        for name in state:
            assert np.array_equal(state[name], oracle_state[name]), name
        assert history.losses == oracle_history.losses
        assert history.mses == oracle_history.mses
        assert history.confidences == oracle_history.confidences
        assert history.stopped_epoch == oracle_history.stopped_epoch == 2


# ----------------------------------------------------------------------
# compare_records --decisions
# ----------------------------------------------------------------------
class TestCompareRecordsDecisions:
    def _dump(self, path, digest):
        import json

        payload = {
            "records": [
                {
                    "run_index": 0,
                    "scenario": "paper-default",
                    "qos": 0.5,
                    "diagnostics": {
                        "n_fine_tunes": 1,
                        "decision_digest": digest,
                    },
                    "telemetry": {"counters": {"x": 1}},
                }
            ]
        }
        path.write_text(json.dumps(payload))

    def test_decisions_flag_catches_digest_divergence(self, tmp_path, capsys):
        sys.path.insert(0, "benchmarks")
        try:
            from compare_records import main as compare_main
        finally:
            sys.path.pop(0)
        left, right = tmp_path / "a.json", tmp_path / "b.json"
        self._dump(left, "aaaa")
        self._dump(right, "bbbb")
        # Without --decisions, diagnostics are execution-only: equal.
        assert compare_main([str(left), str(right)]) == 0
        # With --decisions the digests must match.
        assert compare_main([str(left), str(right), "--decisions"]) == 1
        out = capsys.readouterr().out
        assert "decision_digest" in out
        self._dump(right, "aaaa")
        assert compare_main([str(left), str(right), "--decisions"]) == 0
