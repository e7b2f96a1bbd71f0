"""The production GON ascent against its autodiff oracle.

Every eq.-1 ascent in production runs
:func:`repro.core.surrogate.generate_metrics_batch` on a
:class:`repro.core.fastscore.FastGONKernel`; ``tests/gon_oracle.py``
keeps the autodiff ascent it must reproduce.  Pinned here:

* ``nn/serialization`` inference export -- pack/unpack round-trip
  equality and loud refusal on architecture or shape mismatches;
* the kernel ascent reproduces the oracle *bit for bit* in float64
  and within rtol=1e-5 in float32; a kernel keeps one compiled plan,
  reuses it across same-shape calls and frees it with itself;
* ``core/scoring.LocalScorer`` backend selection (``exact`` is an alias
  of ``fast``), float64 confidence reads under every backend, and
  post-fine-tune kernel re-export;
* the scoring service's kernel path: per-request bitwise replies (one
  kernel call per request, also when requests are queued together),
  float64 confidences, dispatch on arrival (no blocking read while a
  message is in hand) and a fixed-size ``/status`` service section;
* training parity: ``train_gon`` through the kernel and through the
  oracle yields bitwise-equal weights and an equal history;
* the scenario-catalog sweep: for every registered scenario the
  production campaign must produce records and decision digests
  bit-identical to a campaign whose every ascent (training included)
  and confidence read ran on the oracle, and ``fast32`` must agree on
  most decisions;
* ``benchmarks/compare_records.py --decisions``.
"""

from __future__ import annotations

import gc
import json
import queue
import sys
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import GONDiscriminator
from repro.core.fastscore import FastGONKernel, gon_inference_meta
from repro.core.scoring import BACKENDS, LocalScorer, validate_backend
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
from repro.serving import FleetScorer, GONScoringService, ScoringClient

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
        assert fast.confidence == oracle.confidence
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

    def test_export_rejects_unknown_dtype(self, trained_gon):
        with pytest.raises(ValueError):
            export_inference(trained_gon, dtype="int8")

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

    def test_fast32_within_rtol(self, trained_gon, session_samples):
        kernel = FastGONKernel.from_model(trained_gon, dtype="float32")
        metrics, schedules, adjacencies = _stacks(session_samples, 6)
        fast = generate_metrics_batch(
            kernel, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        oracle = oracle_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        np.testing.assert_allclose(
            [r.confidence for r in fast],
            [r.confidence for r in oracle],
            rtol=1e-5,
            atol=1e-7,
        )

    def test_per_element_parameters_match_split_calls(
        self, trained_gon, session_samples
    ):
        # One ascent with per-element gamma matches the separate
        # per-request calls element for element.  NOT bitwise --
        # concatenation changes the BLAS leading dimension (~1 ulp) --
        # so the comparison is allclose.
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
        )
        split = first + second
        np.testing.assert_allclose(
            [r.confidence for r in fused],
            [r.confidence for r in split],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            np.stack([r.metrics for r in fused]),
            np.stack([r.metrics for r in split]),
            atol=1e-9,
        )

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
        # Decisions interleave lone ascents, maintenance slates and
        # tabu samples on one kernel.  The kernel keeps exactly one
        # compiled plan, for the latest shape; a call at that shape
        # reuses it, and every step of an ascent runs on it.
        kernel = FastGONKernel.from_model(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 12)
        n = metrics.shape[1]

        def ascend(size):
            return generate_metrics_batch(
                kernel, schedules[:size], adjacencies[:size],
                init_metrics=metrics[:size], gamma=1e-2, max_steps=2,
            )

        for size in (1, 7, 12) * 2:
            ascend(size)
            plan = kernel._last_plan
            assert plan.shape == (size, n)
            ascend(size)
            assert kernel._last_plan is plan
        kernel.score_stack(metrics[:4], schedules[:4], adjacencies[:4])
        assert kernel._last_plan.shape == (4, n)
        # A replaced plan still reproduces the oracle bit for bit.
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
        # A plan must not reference its kernel or itself: a cycle would
        # keep every replaced plan and every re-exported kernel's
        # buffers alive until the cycle collector happens to run.
        metrics, schedules, adjacencies = _stacks(session_samples, 7)
        kernel = FastGONKernel.from_model(trained_gon)

        def ascend(size):
            generate_metrics_batch(
                kernel, schedules[:size], adjacencies[:size],
                init_metrics=metrics[:size], gamma=1e-2, max_steps=2,
            )

        ascend(1)
        replaced = weakref.ref(kernel._last_plan)
        gc.disable()
        try:
            ascend(7)
            assert replaced() is None
            ascend(3)
            kernel.score_stack(metrics, schedules, adjacencies)
            alive = weakref.ref(kernel)
            plan = weakref.ref(kernel._last_plan)
            del kernel
            assert alive() is None
            assert plan() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# LocalScorer backend selection
# ----------------------------------------------------------------------
class TestLocalScorerBackends:
    def test_validate_backend(self):
        for backend in BACKENDS:
            assert validate_backend(backend) == backend
        assert BACKENDS == ("fast", "fast32")
        # One spelling per backend: the retired "exact" alias is unknown.
        for unknown in ("exact", "onnx"):
            with pytest.raises(ValueError, match="unknown scorer backend"):
                validate_backend(unknown)

    def test_constructor_rejects_unknown_backend(self, trained_gon):
        with pytest.raises(ValueError):
            LocalScorer(trained_gon, backend="slow")

    def test_fast_backend_matches_exact(self, trained_gon, session_samples):
        # "exact" names the oracle ascent, not a backend.
        with pytest.raises(ValueError):
            LocalScorer(trained_gon, backend="exact")
        fast = LocalScorer(trained_gon)
        metrics, schedules, adjacencies = _stacks(session_samples, 5)
        _assert_results_bitwise(
            fast.ascent(metrics, schedules, adjacencies, 1e-2, 4),
            oracle_batch(
                trained_gon, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=4,
            ),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_confidence_reads_float64_kernel(
        self, trained_gon, session_samples, backend
    ):
        # The POT gate input never depends on the backend: both read a
        # float64 kernel, bitwise-equal to the model's own forward.
        scorer = LocalScorer(trained_gon, backend=backend)
        assert scorer.confidence_kernel().dtype == np.float64
        for sample in session_samples[:12]:
            assert scorer.confidence(sample) == trained_gon.score(sample)

    def test_oracle_reads_confidence_on_the_model(
        self, trained_gon, session_samples, monkeypatch
    ):
        scorer = LocalScorer(trained_gon)
        kernel = scorer.confidence_kernel()

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
        scorer = LocalScorer(model, backend="fast")
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

    def test_fast32_service_confidences_stay_float64(
        self, trained_gon, session_samples
    ):
        # A fast32 fleet still reads the POT gate's confidence on a
        # float64 kernel: FleetScorer scores it on its own replica.
        service, thread, (client,) = self._serve(
            trained_gon, scorer_backend="fast32"
        )
        scorer = FleetScorer(client, trained_gon)
        for sample in session_samples[:5]:
            assert scorer.confidence(sample) == trained_gon.score(sample)
        assert scorer._reader.dtype == np.float64
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert service.stats.n_requests == 0

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
            assert reply.confidences.tolist() == [
                r.confidence for r in oracle
            ]
            assert reply.n_steps.tolist() == [steps] * 3

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
    # CI-scale offline training (the CampaignConfig defaults): the
    # fast32 decision-agreement tier is a property of *trained*
    # surrogates -- undertrained GONs score candidates within float32
    # noise and tie-breaks legitimately flip (see the fast32 caveat in
    # repro.core.scoring).  Only the evaluation length is shortened.
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
    """Per-scenario campaign results: production backends and the oracle.

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
        assets = prepare_campaign_assets(config)
        sweep[spec.name] = {
            backend: run_campaign(
                replace(config, scorer_backend=backend),
                prepared_assets=assets,
            )
            for backend in BACKENDS
        }
        sweep[spec.name]["oracle"] = oracle
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

    def test_fast32_decisions_agree_across_most_of_catalog(
        self, catalog_sweep
    ):
        # fast32 decisions can legitimately flip where candidate scores
        # tie within float32 noise (one known instance on this catalog:
        # correlated-rack).  A kernel regression flips decisions
        # *systematically*, so the canary asserts strong-majority
        # agreement rather than universality -- the rtol tier below is
        # the per-score correctness gate.
        divergent = [
            name for name, results in catalog_sweep.items()
            if _digests(results["fast32"]) != _digests(results["oracle"])
        ]
        assert len(divergent) <= 2, divergent

    def test_fast32_scores_within_rtol_across_catalog(self, catalog_sweep):
        # Scorer-level tier: confidences of one warm-start ascent over
        # each scenario's trained surrogate, fast32 vs the oracle.
        for name in catalog_sweep:
            config = _catalog_config(name)
            assets = prepare_campaign_assets(config)[name]
            gon = assets.fresh_gon()
            samples = assets.samples[:6]
            metrics, schedules, adjacencies = _stacks(samples)
            exact = oracle_batch(
                gon, schedules, adjacencies, init_metrics=metrics,
                gamma=1e-2, max_steps=4,
            )
            fast32 = LocalScorer(gon, backend="fast32").ascent(
                metrics, schedules, adjacencies, 1e-2, 4
            )
            np.testing.assert_allclose(
                [r.confidence for r in fast32],
                [r.confidence for r in exact],
                rtol=1e-5,
                atol=1e-7,
                err_msg=name,
            )


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
