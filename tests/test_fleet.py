"""Fleet serving stack: state export, scoring service, persistent cache.

Covers the fleet subsystems end to end:

* read-only state export and zero-copy loading (``repro.nn``);
* the scoring service -- results bitwise equal to in-process scoring;
* ``FleetScorer`` copy-on-write divergence on fine-tune, after which
  its ascents run on the replica's own kernel, not on the service;
* CAROL's persistent surrogate cache: counters monotone, entries
  reused across intervals, full invalidation exactly when fine-tuning
  fires, capacity-bounded eviction;
* fleet-mode campaigns (over TCP, the only transport) bit-identical
  to serial execution.
"""

import queue
import threading

import numpy as np
import pytest

from repro.core import (
    CAROL,
    CAROLConfig,
    GONDiscriminator,
    LocalScorer,
    TrainingConfig,
)
from repro.nn.serialization import freeze_state, pack_state, unpack_state
from repro.serving import FleetScorer, GONScoringService, ScoringClient
from repro.simulator import EdgeFederation
from repro.simulator.detection import FailureReport

from fleet_harness import one_cell_grid, sign_off
from gon_oracle import generate_metrics_batch


# ----------------------------------------------------------------------
# nn-layer export primitives
# ----------------------------------------------------------------------
class TestStateExport:
    def test_pack_unpack_roundtrip(self, rng):
        state = {
            "a.weight": rng.standard_normal((3, 5)),
            "a.bias": rng.standard_normal(5),
            "b": np.arange(7, dtype=np.int64),
        }
        buffer, manifest = pack_state(state)
        views = unpack_state(buffer, manifest)
        assert set(views) == set(state)
        for name in state:
            assert np.array_equal(views[name], state[name])
            assert views[name].dtype == state[name].dtype
            assert not views[name].flags.writeable

    def test_pack_layout_is_name_order_invariant(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal((2, 2))
        buffer_1, manifest_1 = pack_state({"x": a, "y": b})
        buffer_2, manifest_2 = pack_state({"y": b, "x": a})
        assert manifest_1 == manifest_2
        assert np.array_equal(buffer_1, buffer_2)

    def test_freeze_state_views_are_read_only(self, rng):
        state = {"w": rng.standard_normal((2, 2))}
        frozen = freeze_state(state)
        assert not frozen["w"].flags.writeable
        with pytest.raises(ValueError):
            frozen["w"][0, 0] = 1.0
        # Zero-copy: the view shares the original's memory.
        state["w"][0, 0] = 42.0
        assert frozen["w"][0, 0] == 42.0

    def test_load_state_dict_zero_copy(self, rng):
        model = GONDiscriminator(rng, hidden=8, n_layers=2)
        donor = GONDiscriminator(np.random.default_rng(5), hidden=8, n_layers=2)
        frozen = freeze_state(donor.state_dict())
        model.load_state_dict(frozen, copy=False)
        for name, parameter in model.named_parameters():
            # Adopted directly: the read-only donor view, not a copy.
            assert not parameter.data.flags.writeable
            assert parameter.data is frozen[name]
        # state_dict() still hands out private copies of the views.
        first = next(iter(frozen))
        assert model.state_dict()[first] is not frozen[first]


# ----------------------------------------------------------------------
# Scoring service (in-process: plain queues + a thread)
# ----------------------------------------------------------------------
@pytest.fixture
def service_setup(trained_gon):
    request_queue, reply_queue = queue.Queue(), queue.Queue()

    def start():
        service = GONScoringService(
            {"scenario": trained_gon}, request_queue, {0: reply_queue},
            one_cell_grid(),
        )
        thread = threading.Thread(target=service.serve, daemon=True)
        thread.start()
        client = ScoringClient(0, "scenario", request_queue, reply_queue)
        return service, thread, client

    return start


def _stacks(samples):
    return (
        np.stack([s.metrics for s in samples]),
        np.stack([s.schedule for s in samples]),
        np.stack([s.adjacency for s in samples]),
    )


class TestScoringService:
    def test_exact_policy_bitwise_equals_local(
        self, service_setup, trained_gon, session_samples
    ):
        _service, thread, client = service_setup()
        metrics, schedules, adjacencies = _stacks(session_samples[:6])
        remote = client.ascent(metrics, schedules, adjacencies,
                               gamma=1e-2, max_steps=5)
        local = generate_metrics_batch(
            trained_gon, schedules, adjacencies, init_metrics=metrics,
            gamma=1e-2, max_steps=5,
        )
        for r, l in zip(remote, local):
            assert np.array_equal(r.metrics, l.metrics)
            assert r.n_steps == l.n_steps
            assert r.converged == l.converged
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_service_stats_track_elements(self, service_setup,
                                          session_samples):
        service, thread, client = service_setup()
        metrics, schedules, adjacencies = _stacks(session_samples[:3])
        client.ascent(metrics, schedules, adjacencies, gamma=1e-2, max_steps=2)
        client.ascent(metrics, schedules, adjacencies, gamma=1e-2, max_steps=3)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert service.stats.n_requests == 2
        assert service.stats.n_elements == 6
        assert service.stats.n_batches == 2


def _shared_replica(trained_gon):
    """A worker-side replica mounted read-only over the base weights."""
    replica = GONDiscriminator(np.random.default_rng(9), hidden=16,
                               n_layers=2)
    replica.load_state_dict(
        freeze_state(trained_gon.state_dict()), copy=False
    )
    return replica


def _published_copy(model):
    """Private copies of ``model``'s weights, to check it stays put."""
    return {name: np.array(array) for name, array in model.state_dict().items()}


def _assert_same_weights(model, expected):
    state = model.state_dict()
    assert set(state) == set(expected)
    for name, array in expected.items():
        assert np.array_equal(state[name], array)


def _tune(scorer, samples, seed=0):
    return scorer.fine_tune(
        samples,
        TrainingConfig(epochs=1, generation_steps=2, seed=seed),
        iterations=1,
        rng=np.random.default_rng(seed),
    )


def _assert_bitwise(results, model, metrics, schedules, adjacencies, steps):
    """``results`` equal the autodiff oracle's ascent on ``model``."""
    reference = generate_metrics_batch(
        model, schedules, adjacencies, init_metrics=metrics,
        gamma=1e-2, max_steps=steps,
    )
    assert len(results) == len(reference)
    for result, ref in zip(results, reference):
        assert np.array_equal(result.metrics, ref.metrics)
        assert result.n_steps == ref.n_steps


class TestFleetScorer:
    def test_copy_on_write_divergence(self, service_setup, trained_gon,
                                      session_samples):
        _service, thread, client = service_setup()
        published = _published_copy(trained_gon)
        replica = _shared_replica(trained_gon)
        scorer = FleetScorer(client, replica)
        assert scorer.generation == 0
        assert not replica.parameters()[0].data.flags.writeable

        sample = session_samples[0]
        assert scorer.confidence(sample) == trained_gon.score(sample)

        _tune(scorer, session_samples[:6])
        assert scorer.generation == 1
        assert replica.parameters()[0].data.flags.writeable
        # The published weights must be untouched by the divergence.
        _assert_same_weights(trained_gon, published)
        # Confidence reads re-export from the diverged replica.
        assert scorer.confidence(sample) == replica.score(sample)
        assert scorer.confidence(sample) != trained_gon.score(sample)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_generation_zero_ascent_scores_on_the_service(
        self, service_setup, trained_gon, session_samples
    ):
        service, thread, client = service_setup()
        scorer = FleetScorer(client, _shared_replica(trained_gon))
        stacks = _stacks(session_samples[:5])
        results = scorer.ascent(*stacks, gamma=1e-2, max_steps=5)
        _assert_bitwise(results, trained_gon, *stacks, steps=5)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert service.stats.n_requests == 1
        assert service.stats.n_elements == 5

    def test_fine_tuned_replica_scores_locally_bitwise(
        self, service_setup, trained_gon, session_samples
    ):
        """After a fine-tune no ascent reaches the service, and the
        local results equal the oracle on the fine-tuned replica."""
        service, thread, client = service_setup()
        published = _published_copy(trained_gon)
        scorer = FleetScorer(client, _shared_replica(trained_gon))
        stacks = _stacks(session_samples[:5])
        scorer.ascent(*stacks, gamma=1e-2, max_steps=2)  # one request

        _tune(scorer, session_samples[:6])
        for steps in (5, 3):
            results = scorer.ascent(*stacks, gamma=1e-2, max_steps=steps)
            _assert_bitwise(results, scorer.model, *stacks, steps=steps)
        # Segments cut the local call as they cut a service call.
        results = scorer.ascent(*stacks, gamma=1e-2, max_steps=3,
                                segments=(2, 3))
        _assert_bitwise(results[:2], scorer.model,
                        *(a[:2] for a in stacks), steps=3)
        _assert_bitwise(results[2:], scorer.model,
                        *(a[2:] for a in stacks), steps=3)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert service.stats.n_requests == 1
        _assert_same_weights(trained_gon, published)

    def test_second_fine_tune_reexports_the_kernel(
        self, service_setup, trained_gon, session_samples
    ):
        service, thread, client = service_setup()
        scorer = FleetScorer(client, _shared_replica(trained_gon))
        stacks = _stacks(session_samples[:3])
        _tune(scorer, session_samples[:4], seed=0)
        first = scorer.kernel()
        scorer.ascent(*stacks, gamma=1e-2, max_steps=3)
        _tune(scorer, session_samples[:4], seed=1)
        assert scorer.generation == 2
        assert scorer.kernel() is not first
        results = scorer.ascent(*stacks, gamma=1e-2, max_steps=3)
        _assert_bitwise(results, scorer.model, *stacks, steps=3)
        sign_off(client.request_queue, client.client_id)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert service.stats.n_requests == 0


# ----------------------------------------------------------------------
# Persistent surrogate cache
# ----------------------------------------------------------------------
def _fresh_carol(trained_gon, **config_overrides):
    gon = trained_gon.clone_architecture(np.random.default_rng(0))
    gon.load_state_dict(trained_gon.state_dict())
    defaults = dict(
        surrogate_steps=3, tabu_iterations=2, tabu_patience=1,
        neighbourhood_sample=6, pot_calibration=5, min_buffer=2, seed=0,
    )
    defaults.update(config_overrides)
    return CAROL(gon, 0.5, 0.5, CAROLConfig(**defaults))


def _healthy_interval(small_config):
    federation = EdgeFederation(small_config)
    federation.begin_interval()
    federation.set_topology(federation.propose_topology())
    federation.run_interval()
    report = federation.begin_interval()
    proposal = federation.propose_topology()
    healthy = FailureReport(
        interval=report.interval, failed_brokers=(), failed_workers=(),
        detection_delay_seconds=0.0,
    )
    return federation, healthy, proposal


class TestPersistentCache:
    def test_counters_monotone_within_quiet_interval(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon)
        federation, healthy, proposal = _healthy_interval(small_config)
        diag = carol.diagnostics

        carol.repair(federation.view, healthy, proposal)
        h1, m1 = diag.cache_hits, diag.cache_misses
        assert m1 > 0 and diag.cache_evictions == 0

        # Same context, same slate: everything is served from cache,
        # and the counters only ever move up.
        carol.repair(federation.view, healthy, proposal)
        assert diag.cache_misses == m1
        assert diag.cache_hits > h1
        assert diag.tabu_evaluations[-1] == 0  # no fresh ascents

    def test_context_scope_misses_on_new_context(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon)
        federation, healthy, proposal = _healthy_interval(small_config)
        carol.repair(federation.view, healthy, proposal)
        misses = carol.diagnostics.cache_misses
        # A perturbed observation changes the context hash: the cache
        # must re-score rather than serve stale entries.
        federation.view.last_metrics.host_metrics[0, 0] += 0.25
        carol.repair(federation.view, healthy, proposal)
        assert carol.diagnostics.cache_misses > misses

    def test_invalidation_exactly_when_fine_tune_fires(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon)
        federation = EdgeFederation(small_config)
        flushed_sizes = []
        for _ in range(10):
            report = federation.begin_interval()
            proposal = federation.propose_topology()
            topology = carol.repair(federation.view, report, proposal)
            federation.set_topology(topology)
            metrics = federation.run_interval()
            entries_before = len(carol._score_cache)
            evictions_before = carol.diagnostics.cache_evictions
            carol.observe(metrics, federation.view)
            if carol.diagnostics.fine_tuned[-1]:
                # The POT gate opened: full flush, counted as evictions.
                assert len(carol._score_cache) == 0
                assert (
                    carol.diagnostics.cache_evictions
                    == evictions_before + entries_before
                )
                flushed_sizes.append(entries_before)
            else:
                # No model change: every entry survives observe().
                assert len(carol._score_cache) == entries_before
                assert (
                    carol.diagnostics.cache_evictions == evictions_before
                )
        # The POT gate genuinely opens on this seeded run: the flush
        # path above was exercised, not vacuously skipped.
        assert carol.diagnostics.n_fine_tunes == len(flushed_sizes) >= 1

    def test_capacity_eviction_is_fifo_and_counted(
        self, trained_gon, small_config
    ):
        carol = _fresh_carol(trained_gon, score_cache_capacity=3)
        federation, healthy, proposal = _healthy_interval(small_config)
        carol.repair(federation.view, healthy, proposal)
        assert len(carol._score_cache) <= 3
        assert carol.diagnostics.cache_evictions > 0

    def test_memory_running_total_matches_recomputed_sum(
        self, trained_gon, small_config
    ):
        # memory_bytes keeps a running total of the cached M* bytes;
        # after FIFO evictions and fine-tune flushes it must still
        # equal the walk it replaced, to the byte.
        carol = _fresh_carol(trained_gon, score_cache_capacity=12)
        federation = EdgeFederation(small_config)
        for _ in range(small_config.n_intervals):
            report = federation.begin_interval()
            proposal = federation.propose_topology()
            federation.set_topology(
                carol.repair(federation.view, report, proposal)
            )
            carol.observe(federation.run_interval(), federation.view)
            recomputed = (
                carol.model.footprint_bytes()
                + sum(
                    s.metrics.nbytes + s.schedule.nbytes + s.adjacency.nbytes
                    for s in carol.buffer
                )
                + sum(m.nbytes for _score, m in carol._score_cache.values())
            )
            assert carol.memory_bytes() == recomputed
        diag = carol.diagnostics
        assert diag.n_fine_tunes >= 1
        assert diag.cache_evictions > diag.n_fine_tunes * 12

    def test_local_scorer_generation_tracks_fine_tunes(
        self, trained_gon, session_samples
    ):
        scorer = LocalScorer(trained_gon.clone_architecture(
            np.random.default_rng(1)
        ))
        assert scorer.generation == 0
        scorer.fine_tune(
            session_samples[:4],
            TrainingConfig(epochs=1, generation_steps=2, seed=0),
            iterations=1,
            rng=np.random.default_rng(0),
        )
        assert scorer.generation == 1

    def test_tabu_passes_keys_to_batched_objective(self, small_topology):
        from repro.core.tabu import tabu_search
        from repro.core.nodeshift import neighbours

        seen_keys = []

        def objective(candidates, keys, segments):
            seen_keys.append(keys)
            return [float(len(c.brokers)) for c in candidates]

        result = tabu_search(
            small_topology, objective, neighbours,
            tabu_size=10, max_iterations=2, patience=1,
        )
        assert all(keys is not None for keys in seen_keys)
        for candidates_keys in seen_keys[1:]:
            assert all(isinstance(k, tuple) for k in candidates_keys)
        assert result.best_key == result.best.canonical_key()


# ----------------------------------------------------------------------
# Fleet campaigns
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_fleet_grid():
    from repro.experiments import fleet_ci_campaign_config

    return fleet_ci_campaign_config(workers=2)


@pytest.fixture(scope="module")
def tiny_fleet_assets(tiny_fleet_grid):
    from repro.experiments import prepare_campaign_assets

    return prepare_campaign_assets(tiny_fleet_grid)


class TestFleetCampaign:
    def test_fleet_mode_bit_identical_to_serial(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from dataclasses import replace

        from repro.experiments import run_campaign

        serial = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(
            tiny_fleet_grid, prepared_assets=tiny_fleet_assets
        )
        assert serial.rows() == fleet.rows()

    def test_fleet_mode_matches_process_pool(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from dataclasses import replace

        from repro.experiments import run_campaign

        pool = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=2),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(
            tiny_fleet_grid, prepared_assets=tiny_fleet_assets
        )
        assert pool.rows() == fleet.rows()

    def test_fleet_service_actually_scores(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from repro.experiments.campaign import plan_tasks
        from repro.experiments.fleet import run_fleet_campaign

        sink = []
        records = run_fleet_campaign(
            tiny_fleet_grid, plan_tasks(tiny_fleet_grid),
            tiny_fleet_assets, telemetry_sink=sink,
        )
        # 2 models (CAROL, CAROL-Proactive) x 2 seeds.
        assert len(records) == 4
        assert {r.model for r in records} == {"CAROL", "CAROL-Proactive"}
        # The self-hosted service's counters ride the parent's delta.
        counters = sink[0]["counters"]
        assert counters["service.requests"] > 0
        assert counters["service.elements"] > 0

    def test_proactive_fleet_with_fine_tunes_bit_identical(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The acceptance contract: a fleet ProactiveCAROL campaign
        whose POT gate opens stays bit-identical to serial execution
        after its replica diverges."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        # Same scenario/asset knobs as the module fixture (so the
        # trained assets are reusable), but long enough -- and with an
        # early-opening POT gate -- that fine-tuning genuinely fires.
        grid = replace(
            tiny_fleet_grid,
            models=("CAROL-Proactive",),
            n_seeds=1,
            n_intervals=10,
            carol_overrides=(("pot_calibration", 5), ("min_buffer", 2)),
        )
        serial = run_campaign(
            replace(grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(grid, prepared_assets=tiny_fleet_assets)
        assert serial.rows() == fleet.rows()

        (record,) = fleet.records
        # The gate opened, so ascents after the first fine-tune ran on
        # the worker's replica, and the serial twin fine-tuned and
        # decided identically (same counters, same decision digest).
        assert record.diagnostics["n_fine_tunes"] >= 1
        (serial_record,) = serial.records
        assert serial_record.diagnostics == record.diagnostics

    def test_transport_and_service_addr_validated(self):
        from repro.experiments import CampaignConfig

        with pytest.raises(ValueError, match="transport"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                mode="fleet", transport="carrier-pigeon",
            )
        # An external service needs a well-formed host:port.
        with pytest.raises(ValueError, match="host:port"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                mode="fleet", service_addr="nonsense",
            )

    def test_tcp_is_the_only_transport(self):
        from repro.experiments import CampaignConfig

        grid = dict(scenarios=("fault-free",), models=("carol",))
        assert CampaignConfig(**grid, mode="fleet").transport == "tcp"
        # The default must also validate for non-fleet campaigns.
        assert CampaignConfig(**grid).transport == "tcp"
        with pytest.raises(ValueError, match="TCP"):
            CampaignConfig(**grid, mode="fleet", transport="queue")
        # --connect without --fleet must fail loudly, not run locally.
        with pytest.raises(ValueError, match="service_addr requires mode='fleet'"):
            CampaignConfig(
                **grid, mode="process", service_addr="127.0.0.1:7911"
            )

    def test_carol_overrides_validated(self):
        from repro.experiments import CampaignConfig

        with pytest.raises(ValueError, match="carol_overrides"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                carol_overrides=(("not_a_field", 1),),
            )
        # 'seed' is a CAROLConfig field but derives from the per-run
        # seed by contract: overriding it must fail at config time,
        # not as a TypeError inside a worker process.
        with pytest.raises(ValueError, match="seed"):
            CampaignConfig(
                scenarios=("fault-free",), models=("carol",),
                carol_overrides=(("seed", 3),),
            )

    def test_fleet_implies_shared_assets(self):
        from repro.experiments import CampaignConfig

        config = CampaignConfig(
            scenarios=("fault-free",), models=("dyverse",), mode="fleet"
        )
        assert config.shared_assets

    def test_mode_validation(self):
        from repro.experiments import CampaignConfig

        with pytest.raises(ValueError, match="mode"):
            CampaignConfig(
                scenarios=("fault-free",), models=("dyverse",),
                mode="quantum",
            )

    def test_fleet_heuristic_models_need_no_assets(self):
        from repro.experiments import CampaignConfig, run_campaign

        result = run_campaign(CampaignConfig(
            scenarios=("fault-free",), models=("dyverse",),
            n_intervals=2, workers=2, mode="fleet",
        ))
        assert len(result.records) == 1

    def test_shared_asset_preparation_is_deterministic(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        from repro.experiments import prepare_campaign_assets

        again = prepare_campaign_assets(tiny_fleet_grid)
        for scenario, assets in tiny_fleet_assets.items():
            other = again[scenario]
            assert assets.seed == other.seed
            for name, array in assets.gon_state.items():
                assert np.array_equal(array, other.gon_state[name])


# ----------------------------------------------------------------------
# TCP fleet campaigns (multi-node transport on localhost)
# ----------------------------------------------------------------------
class TestTcpFleetCampaign:
    def test_tcp_fleet_bit_identical_to_serial(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """A token-gated self-hosted fleet: every worker authenticates
        over the socket, and the records match serial bit for bit."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        serial = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        tcp = run_campaign(
            replace(tiny_fleet_grid, auth_token="fleet-secret"),
            prepared_assets=tiny_fleet_assets,
        )
        assert serial.rows() == tcp.rows()

    def test_tcp_proactive_fleet_with_fine_tunes_bit_identical(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The acceptance contract for the socket transport: a
        two-worker ProactiveCAROL campaign over TCP on localhost, POT
        gate opening and fine-tuned replicas scoring on the workers,
        stays bit-identical to serial execution."""
        from dataclasses import replace

        from repro.experiments import run_campaign

        grid = replace(
            tiny_fleet_grid,
            models=("CAROL-Proactive",),
            n_seeds=2,
            n_intervals=10,
            carol_overrides=(("pot_calibration", 5), ("min_buffer", 2)),
        )
        serial = run_campaign(
            replace(grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        fleet = run_campaign(grid, prepared_assets=tiny_fleet_assets)
        assert serial.rows() == fleet.rows()
        # Fine-tuning fired somewhere in the grid, and every cell
        # decided as its serial twin did.
        assert sum(r.diagnostics["n_fine_tunes"] for r in fleet.records) >= 1
        assert [r.diagnostics for r in serial.records] == [
            r.diagnostics for r in fleet.records
        ]

    def test_remote_service_campaign_matches_serial(
        self, tiny_fleet_grid, tiny_fleet_assets
    ):
        """The multi-node split: a separately hosted scoring service
        (``python -m repro serve``'s backbone) answering a campaign
        that fetches its assets over the socket."""
        import threading
        from dataclasses import replace

        from repro.experiments import run_campaign
        from repro.experiments.fleet import serve_fleet_service

        ready = threading.Event()
        endpoint = {}

        def on_ready(host, port):
            endpoint["addr"] = f"{host}:{port}"
            ready.set()

        outcome = {}

        def serve():
            try:
                outcome["stats"] = serve_fleet_service(
                    tiny_fleet_grid,
                    tiny_fleet_assets,
                    idle_timeout=60.0,
                    on_ready=on_ready,
                )
            except BaseException as error:  # pragma: no cover - debug aid
                outcome["error"] = error
                ready.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=15)
        assert "error" not in outcome

        serial = run_campaign(
            replace(tiny_fleet_grid, mode="process", workers=1),
            prepared_assets=tiny_fleet_assets,
        )
        remote = run_campaign(
            replace(tiny_fleet_grid, service_addr=endpoint["addr"])
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert "error" not in outcome
        assert serial.rows() == remote.rows()
        # The remote service genuinely scored the campaign.
        assert outcome["stats"].n_requests > 0
