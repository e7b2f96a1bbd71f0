"""Batched == sequential parity across the nn -> surrogate -> search stack.

The batched surrogate engine must be a pure vectorization: every
batched entry point (GON scoring, eq.-1 generation, neighbourhood
scoring, the repair decision) has to agree with its sequential loop to
tight numerical tolerance.
"""

import numpy as np
import pytest

from repro.core import (
    CAROL,
    CAROLConfig,
    GONDiscriminator,
    GONInput,
    N_M_FEATURES,
    N_S_FEATURES,
    QoSObjective,
    tabu_search,
)
from repro.core.nodeshift import neighbours, random_node_shift
from repro.nn import GraphEncoder

from gon_oracle import (
    generate_metrics,
    generate_metrics_batch,
    predict_qos,
    predict_qos_batch,
)

RTOL, ATOL = 1e-9, 1e-12


@pytest.fixture
def gon(rng):
    return GONDiscriminator(rng, hidden=16, n_layers=2)


def make_samples(rng, batch=6, n_hosts=6):
    samples = []
    for _ in range(batch):
        metrics = rng.uniform(0, 1, size=(n_hosts, N_M_FEATURES))
        schedule = rng.uniform(0, 1, size=(n_hosts, N_S_FEATURES))
        adjacency = (rng.random((n_hosts, n_hosts)) > 0.5).astype(float)
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency + adjacency.T
        samples.append(GONInput(metrics, schedule, adjacency))
    return samples


class TestScoreBatchParity:
    def test_score_batch_matches_looped_score(self, gon, rng):
        samples = make_samples(rng, batch=8)
        looped = np.array([gon.score(s) for s in samples])
        batched = gon.score_batch(samples)
        np.testing.assert_allclose(batched, looped, rtol=RTOL, atol=ATOL)

    def test_forward_batch_gradient_separable(self, gon, rng):
        """Batched input gradients match per-sample backward passes."""
        from repro.nn import Tensor

        samples = make_samples(rng, batch=4)
        stacked = Tensor(
            np.stack([s.metrics for s in samples]), requires_grad=True
        )
        out = gon.forward_batch(
            stacked,
            np.stack([s.schedule for s in samples]),
            np.stack([s.adjacency for s in samples]),
        )
        out.sum().backward()
        for i, sample in enumerate(samples):
            single = Tensor(sample.metrics, requires_grad=True)
            gon(single, sample.schedule, sample.adjacency).backward()
            np.testing.assert_allclose(
                stacked.grad[i], single.grad, rtol=RTOL, atol=ATOL
            )

    def test_empty_batch(self, gon):
        assert gon.score_batch([]).shape == (0,)

    def test_mixed_host_counts_rejected(self, gon, rng):
        samples = make_samples(rng, batch=2, n_hosts=5)
        samples += make_samples(rng, batch=1, n_hosts=7)
        with pytest.raises(ValueError):
            gon.score_batch(samples)


class TestGraphEncoderBatchParity:
    def test_batched_pooling_matches_per_graph(self, rng):
        encoder = GraphEncoder(3, 8, rng, layers=2)
        features = rng.uniform(0, 1, size=(5, 6, 3))
        adjacency = (rng.random((5, 6, 6)) > 0.4).astype(float)
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency + adjacency.swapaxes(-1, -2)
        batched = encoder(features, adjacency)
        assert batched.shape == (5, 8)
        for i in range(5):
            single = encoder(features[i], adjacency[i])
            np.testing.assert_allclose(
                batched.data[i], single.data, rtol=RTOL, atol=ATOL
            )


class TestGenerateMetricsBatchParity:
    def test_matches_looped_generation(self, gon, rng):
        samples = make_samples(rng, batch=6)
        kwargs = dict(gamma=1e-2, max_steps=10)
        looped = [
            generate_metrics(
                gon, s.schedule, s.adjacency, init_metrics=s.metrics, **kwargs
            )
            for s in samples
        ]
        batched = generate_metrics_batch(
            gon,
            np.stack([s.schedule for s in samples]),
            np.stack([s.adjacency for s in samples]),
            init_metrics=np.stack([s.metrics for s in samples]),
            **kwargs,
        )
        for sequential, vectorized in zip(looped, batched):
            np.testing.assert_allclose(
                vectorized.metrics, sequential.metrics, rtol=RTOL, atol=ATOL
            )
            assert vectorized.n_steps == sequential.n_steps
            assert vectorized.converged == sequential.converged

    def test_noise_init_consumes_rng_like_loop(self, gon, rng):
        samples = make_samples(rng, batch=4)
        schedules = np.stack([s.schedule for s in samples])
        adjacencies = np.stack([s.adjacency for s in samples])
        # One shared generator for the loop, a twin for the batch --
        # the noise draws must line up element for element.
        loop_rng = np.random.default_rng(11)
        batch_rng = np.random.default_rng(11)
        looped = [
            generate_metrics(
                gon, s.schedule, s.adjacency, rng=loop_rng,
                gamma=1e-2, max_steps=3,
            )
            for s in samples
        ]
        batched = generate_metrics_batch(
            gon, schedules, adjacencies, rng=batch_rng,
            gamma=1e-2, max_steps=3,
        )
        for sequential, vectorized in zip(looped, batched):
            np.testing.assert_allclose(
                vectorized.metrics, sequential.metrics, rtol=RTOL, atol=ATOL
            )

    def test_plain_gradient_mode_parity(self, gon, rng):
        samples = make_samples(rng, batch=3)
        kwargs = dict(gamma=1e-3, max_steps=5, adaptive=False)
        looped = [
            generate_metrics(
                gon, s.schedule, s.adjacency, init_metrics=s.metrics, **kwargs
            )
            for s in samples
        ]
        batched = generate_metrics_batch(
            gon,
            np.stack([s.schedule for s in samples]),
            np.stack([s.adjacency for s in samples]),
            init_metrics=np.stack([s.metrics for s in samples]),
            **kwargs,
        )
        for sequential, vectorized in zip(looped, batched):
            np.testing.assert_allclose(
                vectorized.metrics, sequential.metrics, rtol=RTOL, atol=ATOL
            )

    def test_empty_batch(self, gon):
        assert generate_metrics_batch(
            gon, np.zeros((0, 4, N_S_FEATURES)), np.zeros((0, 4, 4)),
            init_metrics=np.zeros((0, 4, N_M_FEATURES)),
        ) == []

    def test_validation(self, gon, rng):
        samples = make_samples(rng, batch=2)
        schedules = np.stack([s.schedule for s in samples])
        adjacencies = np.stack([s.adjacency for s in samples])
        with pytest.raises(ValueError):
            generate_metrics_batch(gon, schedules, adjacencies, gamma=0.0)
        with pytest.raises(ValueError):
            generate_metrics_batch(gon, schedules, adjacencies)  # no rng
        with pytest.raises(ValueError):
            generate_metrics_batch(
                gon, schedules, adjacencies,
                init_metrics=np.zeros((3, 6, N_M_FEATURES)),
            )


class TestPredictQosBatchParity:
    def test_matches_looped_predict_qos(self, gon, rng):
        samples = make_samples(rng, batch=6)
        objective = QoSObjective(0.5, 0.5)
        looped = [
            predict_qos(gon, s, objective, gamma=1e-2, max_steps=6)
            for s in samples
        ]
        batched = predict_qos_batch(
            gon, samples, objective, gamma=1e-2, max_steps=6
        )
        for (seq_score, seq_result), (bat_score, bat_result) in zip(looped, batched):
            np.testing.assert_allclose(bat_score, seq_score, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(
                bat_result.metrics, seq_result.metrics, rtol=RTOL, atol=ATOL
            )

    def test_empty(self, gon):
        assert predict_qos_batch(gon, [], QoSObjective()) == []


class TestTabuBatchedObjective:
    def test_batched_objective_called_once_per_iteration(self):
        from repro.simulator import initial_topology

        topo = initial_topology(8, 2)
        calls = []

        def objective(candidates, keys, segments):
            calls.append(len(candidates))
            return [1.0] * len(candidates)

        result = tabu_search(
            topo, objective, neighbours, max_iterations=3, patience=10
        )
        # One call per iteration: the start rides in the first one.
        assert len(calls) == result.n_iterations

    def test_duplicate_candidates_scored_once(self):
        from repro.simulator import initial_topology

        topo = initial_topology(8, 2)
        scored = []

        def objective(candidates, keys, segments):
            scored.extend(c.canonical_key() for c in candidates)
            return [float(len(t.unattached)) for t in candidates]

        def noisy_neighbourhood(t):
            options = neighbours(t)
            return options + options  # every candidate duplicated

        tabu_search(topo, objective, noisy_neighbourhood, max_iterations=3)
        assert len(scored) == len(set(scored))


class TestRepairDecisionParity:
    def _failure_setup(self, small_config, trained_gon, seed=0):
        """A federation warmed one interval plus a synthetic broker
        failure report, shared by both repair implementations."""
        from repro.simulator import EdgeFederation
        from repro.simulator.detection import FailureReport

        federation = EdgeFederation(small_config)
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        federation.run_interval()
        report = federation.begin_interval()
        proposal = federation.propose_topology()
        broker = sorted(proposal.brokers)[0]
        forced = FailureReport(
            interval=report.interval,
            failed_brokers=(broker,),
            failed_workers=(),
            detection_delay_seconds=1.0,
        )
        return federation, forced, proposal

    def _reference_repair(self, carol, view, report, proposal):
        """The pre-refactor sequential repair loop, re-implemented with
        per-candidate predict_qos, one candidate at a time."""
        last = view.last_metrics
        cache = {}

        def omega(candidate):
            key = candidate.canonical_key()
            if key not in cache:
                sample = GONInput(
                    np.asarray(last.host_metrics, float),
                    np.asarray(last.schedule_encoding, float),
                    candidate.adjacency(),
                )
                score, _ = predict_qos(
                    carol.model, sample, carol.objective,
                    gamma=carol.config.gamma,
                    max_steps=carol.config.surrogate_steps,
                )
                cache[key] = score
            return cache[key]

        rng = np.random.default_rng(carol.config.seed)

        def sampled_neighbours(topology):
            options = neighbours(topology)
            limit = carol.config.neighbourhood_sample
            if len(options) > limit:
                chosen = rng.choice(len(options), size=limit, replace=False)
                options = [options[i] for i in chosen]
            return options

        current = proposal
        for _failed in report.failed_brokers:
            start = random_node_shift(current, rng)
            result = tabu_search(
                start,
                objective=lambda candidates, keys, segments: [
                    omega(c) for c in candidates
                ],
                neighbourhood=sampled_neighbours,
                tabu_size=carol.config.tabu_size,
                max_iterations=carol.config.tabu_iterations,
                patience=carol.config.tabu_patience,
            )
            current = result.best
        return current if omega(current) <= omega(proposal) else proposal

    def test_seeded_repair_decision_identical(self, trained_gon, small_config):
        config = CAROLConfig(
            surrogate_steps=4, tabu_iterations=2, tabu_patience=1,
            neighbourhood_sample=8, seed=0,
        )
        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        carol = CAROL(gon, 0.5, 0.5, config)

        federation, report, proposal = self._failure_setup(
            small_config, trained_gon
        )
        reference = self._reference_repair(
            carol, federation.view, report, proposal
        )
        chosen = carol.repair(federation.view, report, proposal)
        assert chosen.canonical_key() == reference.canonical_key()

    def test_seeded_maintenance_decision_identical(self, trained_gon, small_config):
        from repro.core.nodeshift import reassignment_neighbours
        from repro.simulator import EdgeFederation
        from repro.simulator.detection import FailureReport

        config = CAROLConfig(
            surrogate_steps=4, maintenance_candidates=6, seed=0,
        )
        gon = trained_gon.clone_architecture(np.random.default_rng(0))
        gon.load_state_dict(trained_gon.state_dict())
        carol = CAROL(gon, 0.5, 0.5, config)

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

        # Reference: sequential scoring of the same seeded slate.
        last = federation.view.last_metrics
        rng = np.random.default_rng(config.seed)
        options = reassignment_neighbours(proposal)
        if len(options) > config.maintenance_candidates:
            picks = rng.choice(
                len(options), size=config.maintenance_candidates, replace=False
            )
            options = [options[i] for i in picks]

        def omega(candidate):
            sample = GONInput(
                np.asarray(last.host_metrics, float),
                np.asarray(last.schedule_encoding, float),
                candidate.adjacency(),
            )
            score, _ = predict_qos(
                carol.model, sample, carol.objective,
                gamma=config.gamma, max_steps=config.surrogate_steps,
            )
            return score

        reference = min([proposal, *options], key=omega)
        chosen = carol.repair(federation.view, healthy, proposal)
        assert chosen.canonical_key() == reference.canonical_key()


class TestSegmentedSurrogateScores:
    """One segmented ``surrogate_scores`` call leaves the score cache,
    its counters and every score exactly as consecutive calls would."""

    def _twins(self, gon, capacity):
        config = CAROLConfig(surrogate_steps=3, score_cache_capacity=capacity)
        return CAROL(gon, 0.5, 0.5, config), CAROL(gon, 0.5, 0.5, config)

    @staticmethod
    def _state(carol):
        counters = carol.diagnostics.counters()
        del counters["decision_digest"]
        return list(carol._score_cache), counters, carol._cache_bytes

    @pytest.mark.parametrize("capacity", [0, 4, 4096])
    def test_segments_equal_consecutive_calls(self, gon, rng, capacity):
        from repro.simulator import initial_topology

        topologies = neighbours(initial_topology(8, 2))[:7]
        assert len({t.canonical_key() for t in topologies}) == 7
        t0, t1, t2, t3, t4, t5, t6 = topologies
        metrics = rng.uniform(0, 1, size=(8, N_M_FEATURES))
        schedule = rng.uniform(0, 1, size=(8, N_S_FEATURES))
        merged, split = self._twins(gon, capacity)
        for carol in (merged, split):
            carol.surrogate_scores([t0, t1, t2], metrics, schedule)
        # At capacity 4, the first group's two misses evict t0, which
        # the second group then misses; t3 repeats across the groups
        # and t5 within the second one.
        groups = ([t3, t4], [t0, t5, t3, t6, t5])
        got = merged.surrogate_scores(
            [*groups[0], *groups[1]], metrics, schedule,
            segments=(len(groups[0]), len(groups[1])),
        )
        want = [
            entry
            for group in groups
            for entry in split.surrogate_scores(group, metrics, schedule)
        ]
        assert [score for score, _ in got] == [score for score, _ in want]
        for (_, got_m), (_, want_m) in zip(got, want):
            assert np.array_equal(got_m, want_m)
        assert self._state(merged) == self._state(split)
        assert not any(isinstance(entry, int)
                       for entry in merged._score_cache.values())

    def test_failed_ascent_leaves_no_placeholder(self, gon, rng):
        from repro.simulator import initial_topology

        topologies = neighbours(initial_topology(8, 2))[:3]
        carol, _ = self._twins(gon, 16)
        metrics = rng.uniform(0, 1, size=(8, N_M_FEATURES))
        schedule = rng.uniform(0, 1, size=(8, N_S_FEATURES))
        carol.surrogate_scores(topologies[:1], metrics, schedule)
        before = dict(carol._score_cache)

        def broken(*args, **kwargs):
            raise RuntimeError("scorer down")

        carol.scorer.ascent = broken
        with pytest.raises(RuntimeError, match="scorer down"):
            carol.surrogate_scores(
                topologies, metrics, schedule, segments=(1, 2)
            )
        assert dict(carol._score_cache) == before
