"""Topology data structure: validation, transforms, graph exports."""

import numpy as np
import pytest

from repro.simulator import Topology, initial_topology


@pytest.fixture
def topo():
    # 8 hosts: brokers {0, 1}, workers round-robin.
    return initial_topology(8, 2)


class TestValidation:
    def test_requires_broker(self):
        with pytest.raises(ValueError):
            Topology(4, brokers=[], assignment={})

    def test_rejects_out_of_range_broker(self):
        with pytest.raises(ValueError):
            Topology(4, brokers=[9], assignment={})

    def test_rejects_worker_as_broker(self):
        with pytest.raises(ValueError):
            Topology(4, brokers=[0], assignment={0: 0})

    def test_rejects_assignment_to_non_broker(self):
        with pytest.raises(ValueError):
            Topology(4, brokers=[0], assignment={1: 2})

    def test_rejects_out_of_range_worker(self):
        with pytest.raises(ValueError):
            Topology(4, brokers=[0], assignment={7: 0})


class TestViews:
    def test_initial_symmetric(self, topo):
        sizes = topo.lei_sizes()
        assert sizes == {0: 3, 1: 3}

    def test_workers_sorted(self, topo):
        assert topo.workers == (2, 3, 4, 5, 6, 7)

    def test_attached_and_unattached(self, topo):
        assert topo.attached == frozenset(range(8))
        assert topo.unattached == ()
        detached = topo.detach(5)
        assert detached.unattached == (5,)

    def test_lei_members(self, topo):
        assert set(topo.lei(0)) | set(topo.lei(1)) == set(range(2, 8))
        with pytest.raises(KeyError):
            topo.lei(5)


class TestTransforms:
    def test_detach_worker(self, topo):
        result = topo.detach(7)
        assert 7 not in result.attached
        assert result.n_hosts == topo.n_hosts

    def test_detach_broker_orphans_workers(self, topo):
        orphans = topo.lei(1)
        result = topo.detach(1)
        assert 1 not in result.brokers
        for orphan in orphans:
            assert orphan not in result.attached

    def test_detach_unattached_noop(self, topo):
        result = topo.detach(7)
        assert result.detach(7) is result

    def test_attach_worker(self, topo):
        result = topo.detach(7).attach_worker(7, 0)
        assert result.assignment[7] == 0

    def test_attach_rejects_attached(self, topo):
        with pytest.raises(ValueError):
            topo.attach_worker(7, 0)

    def test_promote_worker(self, topo):
        result = topo.promote(7)
        assert 7 in result.brokers
        assert 7 not in result.assignment

    def test_promote_rejects_broker(self, topo):
        with pytest.raises(ValueError):
            topo.promote(0)

    def test_demote_moves_lei(self, topo):
        lei_before = topo.lei(1)
        result = topo.demote(1, 0)
        assert 1 not in result.brokers
        assert result.assignment[1] == 0
        for worker in lei_before:
            assert result.assignment[worker] == 0

    def test_demote_rejects_self(self, topo):
        with pytest.raises(ValueError):
            topo.demote(0, 0)

    def test_reassign(self, topo):
        worker = topo.lei(0)[0]
        result = topo.reassign(worker, 1)
        assert result.assignment[worker] == 1

    def test_reassign_rejects_non_worker(self, topo):
        with pytest.raises(KeyError):
            topo.reassign(0, 1)

    def test_transforms_are_pure(self, topo):
        before = topo.canonical_key()
        topo.detach(7)
        topo.promote(7)
        topo.reassign(7, 1)
        assert topo.canonical_key() == before


class TestGraph:
    def test_adjacency_symmetric(self, topo):
        adjacency = topo.adjacency()
        np.testing.assert_array_equal(adjacency, adjacency.T)

    def test_broker_clique(self):
        topo = initial_topology(9, 3)
        adjacency = topo.adjacency()
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert adjacency[a, b] == 1.0

    def test_worker_connects_only_to_broker(self, topo):
        adjacency = topo.adjacency()
        for worker, broker in topo.assignment.items():
            assert adjacency[worker, broker] == 1.0
            assert adjacency[worker].sum() == 1.0

    def test_unattached_isolated(self, topo):
        adjacency = topo.detach(7).adjacency()
        assert adjacency[7].sum() == 0.0

    def test_roles(self, topo):
        detached = topo.detach(7)
        assert 0 in detached.brokers
        assert 2 in detached.assignment and 2 not in detached.brokers
        assert 7 not in detached.brokers and 7 not in detached.assignment
        assert detached.adjacency().shape == (8, 8)

    def test_connected_when_full(self, topo):
        adjacency = topo.adjacency()
        reached, frontier = {0}, [0]
        while frontier:
            node = frontier.pop()
            for neighbour in np.flatnonzero(adjacency[node]).tolist():
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        assert reached == set(range(topo.n_hosts))


class TestIdentity:
    def test_equal_topologies_hash_equal(self, topo):
        clone = Topology(topo.n_hosts, topo.brokers, topo.assignment)
        assert topo == clone
        assert hash(topo) == hash(clone)
        assert topo.canonical_key() == clone.canonical_key()

    def test_different_assignment_not_equal(self, topo):
        worker = topo.lei(0)[0]
        assert topo != topo.reassign(worker, 1)


class TestInitialTopology:
    def test_paper_shape(self):
        topo = initial_topology(16, 4)
        assert sorted(topo.brokers) == [0, 1, 2, 3]
        assert set(topo.lei_sizes().values()) == {3}

    def test_rejects_too_many_leis(self):
        with pytest.raises(ValueError):
            initial_topology(4, 3)
