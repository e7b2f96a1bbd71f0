"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PeakOverThreshold, neighbours, random_node_shift
from repro.core.tabu import tabu_search
from repro.nn import Tensor
from repro.nn.tensor import _unbroadcast
from repro.simulator import Topology
from repro.simulator.task import Task, TaskSpec


# ----------------------------------------------------------------------
# Topology strategies
# ----------------------------------------------------------------------
@st.composite
def topologies(draw):
    n_hosts = draw(st.integers(min_value=4, max_value=14))
    n_brokers = draw(st.integers(min_value=1, max_value=max(1, n_hosts // 2)))
    hosts = list(range(n_hosts))
    rng_seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    rng = np.random.default_rng(rng_seed)
    brokers = sorted(rng.choice(hosts, size=n_brokers, replace=False).tolist())
    assignment = {}
    for host in hosts:
        if host in brokers:
            continue
        # Some hosts stay unattached.
        if rng.random() < 0.85:
            assignment[host] = int(rng.choice(brokers))
    return Topology(n_hosts, brokers, assignment)


class TestTopologyProperties:
    @given(topologies())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_symmetric_with_zero_diagonal(self, topo):
        adjacency = topo.adjacency()
        assert np.array_equal(adjacency, adjacency.T)
        assert np.all(np.diag(adjacency) == 0)

    @given(topologies())
    @settings(max_examples=60, deadline=None)
    def test_partition_invariant(self, topo):
        brokers = set(topo.brokers)
        workers = set(topo.assignment)
        unattached = set(topo.unattached)
        assert brokers | workers | unattached == set(range(topo.n_hosts))
        assert not brokers & workers
        assert not brokers & unattached
        assert not workers & unattached

    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_neighbours_preserve_attached_set(self, topo):
        for neighbour in neighbours(topo)[:10]:
            assert neighbour.attached == topo.attached
            assert neighbour.n_hosts == topo.n_hosts

    @given(topologies(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_random_shift_valid(self, topo, seed):
        shifted = random_node_shift(topo, np.random.default_rng(seed))
        # Constructor validation ran; attached set unchanged.
        assert shifted.attached == topo.attached

    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_detach_then_reattach_roundtrip(self, topo):
        workers = list(topo.assignment)
        if not workers:
            return
        worker = workers[0]
        broker = topo.assignment[worker]
        roundtrip = topo.detach(worker).attach_worker(worker, broker)
        assert roundtrip == topo

    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_canonical_key_is_identity(self, topo):
        clone = Topology(topo.n_hosts, topo.brokers, dict(topo.assignment))
        assert clone.canonical_key() == topo.canonical_key()
        assert hash(clone) == hash(topo)


class TestTabuProperties:
    @given(topologies(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_tabu_result_never_worse_than_start(self, topo, target):
        def score(t):
            return abs(len(t.brokers) - target) + 0.01 * len(t.unattached)

        result = tabu_search(
            topo,
            lambda candidates, keys, segments: [score(t) for t in candidates],
            neighbours, max_iterations=4,
        )
        assert result.best_score <= score(topo)


class TestUnbroadcastProperties:
    @given(
        st.sampled_from([(3, 4), (1, 4), (3, 1), (4,), (1,), ()]),
    )
    @settings(max_examples=30, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, shape):
        rng = np.random.default_rng(0)
        full_shape = (3, 4)
        grad = rng.normal(size=full_shape)
        reduced = _unbroadcast(grad, shape)
        assert reduced.shape == shape
        # Total mass is conserved by summation.
        assert np.isclose(reduced.sum(), grad.sum())

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_add_grad_matches_counts(self, rows, cols):
        x = Tensor(np.zeros((rows, cols)), requires_grad=True)
        b = Tensor(np.zeros(cols), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, np.full(cols, float(rows)))


class TestTensorAlgebraProperties:
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_ops_match_numpy(self, values):
        array = np.array(values)
        t = Tensor(array)
        np.testing.assert_allclose((t * 2 + 1).data, array * 2 + 1)
        np.testing.assert_allclose(t.tanh().data, np.tanh(array))
        np.testing.assert_allclose(t.exp().data, np.exp(array), rtol=1e-10)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_bounded(self, values):
        out = Tensor(np.array(values)).sigmoid().data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestPOTProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=30,
            max_size=120,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_threshold_never_exceeds_observed_range(self, values):
        pot = PeakOverThreshold(calibration_size=20)
        threshold = -np.inf
        for value in values:
            threshold = pot.update(value)
        if np.isfinite(threshold):
            # Lower-tail threshold sits at or below the data's bulk.
            assert threshold <= max(values) + 1e-9

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_constant_stream_threshold_at_or_below_value(self, constant):
        pot = PeakOverThreshold(calibration_size=20)
        threshold = -np.inf
        for _ in range(60):
            threshold = pot.update(constant)
        assert threshold <= constant + 1e-9


class TestTaskProperties:
    @given(
        st.floats(min_value=10.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=5000.0),
        st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_work_is_conserved(self, total_mi, mips, seconds):
        spec = TaskSpec(
            application="p", total_mi=total_mi, ram_gb=0.1,
            disk_mb=1.0, net_mb=1.0, slo_seconds=100.0,
        )
        task = Task(spec, created_at=0.0, lei_broker=0)
        task.progress(mips, seconds, now=0.0)
        done = total_mi - task.remaining_mi
        assert 0.0 <= done <= min(total_mi, mips * seconds) + 1e-6
        if task.finished:
            assert task.finished_at <= seconds + 1e-9

    @given(st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=30, deadline=None)
    def test_finish_time_proportional_to_work(self, total_mi):
        spec = TaskSpec(
            application="p", total_mi=total_mi, ram_gb=0.1,
            disk_mb=1.0, net_mb=1.0, slo_seconds=100.0,
        )
        task = Task(spec, created_at=0.0, lei_broker=0)
        task.progress(mips_share=1.0, seconds=total_mi * 2, now=0.0)
        assert task.finished
        assert task.finished_at == pytest.approx(total_mi, rel=1e-9)
