"""Co-simulator engine: interval invariants, schedulers, metrics, traces."""

import numpy as np
import pytest

from repro.simulator import (
    EdgeFederation,
    M_FEATURES,
    S_FEATURES,
    Trace,
    collect_trace,
)
from repro.core.nodeshift import random_node_shift


def run_intervals(federation, n):
    records = []
    for _ in range(n):
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        records.append(federation.run_interval())
    return records


class TestEngineBasics:
    def test_metric_shapes(self, federation, small_config):
        record = run_intervals(federation, 1)[0]
        n_hosts = small_config.federation.n_hosts
        assert record.host_metrics.shape == (n_hosts, len(M_FEATURES))
        assert record.schedule_encoding.shape == (n_hosts, len(S_FEATURES))

    def test_energy_positive_and_bounded(self, federation, small_config):
        records = run_intervals(federation, 5)
        n_hosts = small_config.federation.n_hosts
        interval_s = small_config.federation.interval_seconds
        upper = n_hosts * 7.3 * interval_s / 3.6e6  # all hosts at peak
        for record in records:
            assert 0 < record.energy_kwh <= upper

    def test_interval_counter_advances(self, federation):
        run_intervals(federation, 3)
        assert federation.interval == 3
        assert federation.now == pytest.approx(3 * 300.0)

    def test_task_conservation(self, federation):
        records = run_intervals(federation, 10)
        created = sum(r.n_new_tasks for r in records)
        finished = len(federation.completed_tasks)
        active = len(federation.active_tasks)
        assert created == finished + active

    def test_response_times_positive(self, federation):
        for record in run_intervals(federation, 10):
            for response in record.response_times:
                assert response > 0

    def test_slo_flags_align(self, federation):
        for record in run_intervals(federation, 8):
            assert len(record.slo_violations) == len(record.response_times)

    def test_utilisations_recorded(self, federation):
        records = run_intervals(federation, 5)
        total_cpu = sum(r.host_metrics[:, 0].sum() for r in records)
        assert total_cpu > 0

    def test_rng_determinism(self, small_config):
        a = EdgeFederation(small_config)
        b = EdgeFederation(small_config)
        ra = run_intervals(a, 5)
        rb = run_intervals(b, 5)
        for x, y in zip(ra, rb):
            np.testing.assert_allclose(x.host_metrics, y.host_metrics)
            assert x.energy_kwh == y.energy_kwh


class TestFailuresInEngine:
    def test_broker_failure_eventually_occurs(self, small_config):
        federation = EdgeFederation(small_config)
        failures = 0
        for _ in range(40):
            report = federation.begin_interval()
            failures += len(report.failed_brokers)
            federation.set_topology(federation.propose_topology())
            federation.run_interval()
        assert failures > 0

    def test_failed_hosts_not_scheduled(self, small_config):
        federation = EdgeFederation(small_config)
        for _ in range(30):
            federation.begin_interval()
            federation.set_topology(federation.propose_topology())
            record = federation.run_interval()
            dead = {h.host_id for h in federation.hosts if not h.alive}
            # No task may sit on a host that was dead at interval start.
            for task in federation.active_tasks:
                if task.host in dead:
                    # Permissible only if the host died *during* this
                    # interval (crash happens at interval end).
                    assert task.host in {
                        h.host_id for h in federation.hosts
                    }

    def test_downtime_recorded_on_failure(self, small_config):
        federation = EdgeFederation(small_config)
        saw_downtime = False
        for _ in range(40):
            report = federation.begin_interval()
            federation.set_topology(federation.propose_topology())
            record = federation.run_interval()
            if report.failed_brokers and record.downtime_seconds > 0:
                saw_downtime = True
                break
        assert saw_downtime


class TestManagementLoad:
    def test_brokers_carry_management_cpu(self, federation):
        run_intervals(federation, 1)
        for broker in federation.topology.brokers:
            host = federation.hosts[broker]
            if host.alive:
                assert host.management_cpu > 0

    def test_model_profile_charged(self, small_config):
        federation = EdgeFederation(small_config)
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        federation.set_management_profile(cpu_seconds=150.0, memory_gb=1.0)
        federation.run_interval()
        broker = sorted(federation.topology.brokers)[0]
        host = federation.hosts[broker]
        assert host.management_cpu > 0.5  # 150/300 plus baseline
        assert host.management_ram_gb >= 1.0

    def test_profile_validation(self, federation):
        with pytest.raises(ValueError):
            federation.set_management_profile(-1.0, 0.0)

    def test_profile_resets_each_interval(self, small_config):
        federation = EdgeFederation(small_config)
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        federation.set_management_profile(cpu_seconds=150.0, memory_gb=0.0)
        federation.run_interval()
        federation.begin_interval()
        federation.set_topology(federation.propose_topology())
        federation.run_interval()
        broker = sorted(federation.topology.brokers)[0]
        assert federation.hosts[broker].management_cpu < 0.5


class TestNodeShiftOverhead:
    def test_promotion_charged(self, small_config):
        federation = EdgeFederation(small_config)
        federation.begin_interval()
        proposal = federation.propose_topology()
        worker = proposal.workers[0]
        overhead = federation.set_topology(proposal.promote(worker))
        assert overhead >= 10.0  # container init dominates

    def test_unchanged_topology_free(self, small_config):
        federation = EdgeFederation(small_config)
        federation.begin_interval()
        overhead = federation.set_topology(federation.propose_topology())
        assert overhead == 0.0

    def test_reassignment_cheap(self, small_config):
        federation = EdgeFederation(small_config)
        federation.begin_interval()
        proposal = federation.propose_topology()
        worker = proposal.workers[0]
        other = [b for b in proposal.brokers if b != proposal.assignment[worker]][0]
        overhead = federation.set_topology(proposal.reassign(worker, other))
        assert 0 < overhead < 5.0


class TestSchedulers:
    def test_placements_on_live_attached_hosts(self, small_config):
        federation = EdgeFederation(small_config)
        for _ in range(15):
            federation.begin_interval()
            federation.set_topology(federation.propose_topology())
            federation.run_interval()
            decision = federation.last_decision
            live = {h.host_id for h in federation.hosts if h.alive}
            attached = federation.topology.attached
            for task_id, host_id in decision.placements.items():
                assert host_id in attached

    def test_gobi_balances_load(self, small_config):
        federation = EdgeFederation(small_config)
        run = [
            r.host_metrics[:, 0]
            for r in (
                federation.begin_interval(),
                federation.set_topology(federation.propose_topology()),
                federation.run_interval(),
            )[2:]
        ]
        # Just a smoke check that the scheduler ran and utilisations exist.
        assert run[0].shape[0] == small_config.federation.n_hosts


class TestTrace:
    def test_collect_shapes(self, small_config):
        trace = collect_trace(small_config, n_intervals=12,
                              topology_mutator=random_node_shift, mutate_every=5)
        assert len(trace) == 12
        sample = trace[0]
        assert sample.metrics.shape[1] == len(M_FEATURES)
        assert sample.adjacency.shape[0] == sample.adjacency.shape[1]
        assert trace.n_topologies >= 2

    def test_objective_nonnegative(self, small_config):
        trace = collect_trace(small_config, n_intervals=6)
        for sample in trace.samples:
            assert sample.objective >= 0

    def test_roundtrip(self, small_config, tmp_path):
        trace = collect_trace(small_config, n_intervals=5)
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(trace)
        np.testing.assert_allclose(loaded[0].metrics, trace[0].metrics)
        assert loaded.n_topologies == trace.n_topologies

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace().as_arrays()
