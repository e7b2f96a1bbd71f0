"""Fault injection, failure detection and recovery."""

import numpy as np
import pytest

from repro.config import FaultConfig
from repro.simulator import (
    DetectionProtocol,
    FaultInjector,
    NetworkModel,
    Topology,
    ensure_brokered,
    initial_topology,
    make_pi_cluster,
    reattach_recovered,
    strip_failed,
)
from repro.simulator.faults import (
    ATTACK_AXIS,
    ATTACK_INTENSITY,
    PARTITION_INTENSITY,
    ArrivalSurgeModel,
    CascadeAttackModel,
    CorrelatedGroupAttackModel,
    PartitionFaultModel,
    PoissonAttackModel,
    build_fault_models,
)


@pytest.fixture
def hosts():
    return make_pi_cluster(8, 4)


@pytest.fixture
def topo():
    return initial_topology(8, 2)


@pytest.fixture
def injector(rng):
    return FaultInjector(FaultConfig(rate=1.0), rng)


class TestFaultInjection:
    def test_attack_rate(self, topo, hosts):
        injector = FaultInjector(FaultConfig(rate=0.5), np.random.default_rng(0))
        counts = [
            len(injector.inject(t, topo, hosts)) for t in range(400)
        ]
        assert np.mean(counts) == pytest.approx(0.5, rel=0.2)

    def test_attack_types_cover_paper_set(self, topo, hosts):
        injector = FaultInjector(FaultConfig(rate=3.0), np.random.default_rng(1))
        seen = set()
        for t in range(100):
            for event in injector.inject(t, topo, hosts):
                seen.add(event.attack_type)
        assert seen == {"cpu_overload", "ram_contention", "disk_attack", "ddos_attack"}

    def test_attack_axis_mapping(self):
        assert ATTACK_AXIS["cpu_overload"] == "cpu"
        assert ATTACK_AXIS["ram_contention"] == "ram"
        assert ATTACK_AXIS["disk_attack"] == "disk"
        assert ATTACK_AXIS["ddos_attack"] == "net"

    def test_intensity_within_bounds(self, topo, hosts, injector):
        for t in range(50):
            for event in injector.inject(t, topo, hosts):
                low, high = ATTACK_INTENSITY[event.attack_type]
                assert low <= event.intensity <= high

    def test_loads_applied_to_hosts(self, topo, hosts, injector):
        for t in range(20):
            injector.inject(t, topo, hosts)
        injector.apply_loads(hosts)
        total = sum(sum(h.fault_load.values()) for h in hosts)
        assert total > 0

    def test_decay_expires_attacks(self, topo, hosts, injector):
        for t in range(10):
            injector.inject(t, topo, hosts)
        for _ in range(5):
            injector.decay()
        injector.apply_loads(hosts)
        assert all(sum(h.fault_load.values()) == 0 for h in hosts)

    def test_broker_bias(self, topo, hosts):
        injector = FaultInjector(
            FaultConfig(rate=2.0), np.random.default_rng(2), broker_bias=1.0
        )
        for t in range(50):
            for event in injector.inject(t, topo, hosts):
                assert event.target in topo.brokers

    def test_check_failures_crashes_overloaded(self, topo, hosts, injector):
        hosts[0].compute_utilisation({"cpu": 9000.0})
        failed = injector.check_failures(hosts, topo)
        assert failed == [0]
        assert not hosts[0].alive

    def test_check_failures_skips_healthy(self, topo, hosts, injector):
        for host in hosts:
            host.compute_utilisation({"cpu": 1000.0})
        assert injector.check_failures(hosts, topo) == []

    def test_recovery_draw_in_bounds(self, injector):
        for _ in range(100):
            seconds = injector.draw_recovery_seconds()
            assert 60.0 <= seconds <= 300.0

    def test_clear_host(self, topo, hosts, injector):
        for t in range(20):
            injector.inject(t, topo, hosts)
        target = injector.history[0].target
        injector.clear_host(target)
        injector.apply_loads(hosts)
        assert sum(hosts[target].fault_load.values()) == 0.0


class TestFaultModelPlugins:
    def test_default_models_for_stock_config(self):
        models = build_fault_models(FaultConfig(rate=0.5))
        assert [type(m) for m in models] == [PoissonAttackModel]

    def test_default_models_for_full_campaign(self):
        config = FaultConfig(
            rate=0.5, correlated_rate=0.2, correlated_group_size=2,
            cascade_probability=0.3, partition_rate=0.1,
            partition_fraction=0.5, surge_rate=0.1, surge_multiplier=2.0,
        )
        models = build_fault_models(config)
        assert [type(m) for m in models] == [
            PoissonAttackModel,
            CorrelatedGroupAttackModel,
            CascadeAttackModel,
            PartitionFaultModel,
            ArrivalSurgeModel,
        ]

    def test_fault_free_config_has_no_models(self):
        assert build_fault_models(FaultConfig(rate=0.0)) == []

    def test_events_tagged_with_model(self, topo, hosts):
        injector = FaultInjector(FaultConfig(rate=2.0), np.random.default_rng(0))
        events = []
        for t in range(20):
            events.extend(injector.inject(t, topo, hosts))
        assert events and all(e.model == "poisson" for e in events)


class TestCorrelatedAttacks:
    @pytest.fixture
    def injector(self):
        config = FaultConfig(
            rate=0.0, correlated_rate=1.0, correlated_group_size=4
        )
        return FaultInjector(config, np.random.default_rng(0))

    def test_groups_share_rack_type_and_intensity(self, topo, hosts, injector):
        for t in range(30):
            events = injector.inject(t, topo, hosts)
            if not events:
                continue
            racks = {e.target // 4 for e in events}
            # One event may hit several racks only via several draws;
            # every burst shares attack type/intensity within its rack.
            by_intensity = {}
            for event in events:
                by_intensity.setdefault(event.intensity, []).append(event)
            for burst in by_intensity.values():
                assert len({e.attack_type for e in burst}) == 1
                assert len({e.target // 4 for e in burst}) == 1
                assert len({e.target for e in burst}) == len(burst)
            assert all(e.model == "correlated" for e in events)
            assert racks <= {0, 1}

    def test_whole_live_rack_is_hit(self, topo, hosts):
        config = FaultConfig(
            rate=0.0, correlated_rate=5.0, correlated_group_size=4
        )
        injector = FaultInjector(config, np.random.default_rng(3))
        events = injector.inject(0, topo, hosts)
        assert events
        bursts = {}
        for event in events:
            bursts.setdefault((event.intensity, event.target // 4), set()).add(
                event.target
            )
        for (_, rack), targets in bursts.items():
            expected = {h for h in range(8) if h // 4 == rack}
            assert targets == expected


class TestCascadeAttacks:
    def test_neighbors_recorded_on_failure(self, topo, hosts):
        config = FaultConfig(rate=0.0, cascade_probability=1.0)
        injector = FaultInjector(config, np.random.default_rng(0))
        hosts[0].compute_utilisation({"cpu": 9000.0})  # broker 0 overloads
        failed = injector.check_failures(hosts, topo)
        assert failed == [0]
        # Broker 0's LEI plus the other broker, minus the failed host.
        assert injector.recent_failure_neighbors == set(topo.lei(0)) | {1}

    def test_cascade_targets_neighbors_next_interval(self, topo, hosts):
        config = FaultConfig(
            rate=0.0, cascade_probability=1.0, cascade_intensity=0.9
        )
        injector = FaultInjector(config, np.random.default_rng(0))
        hosts[0].compute_utilisation({"cpu": 9000.0})
        injector.check_failures(hosts, topo)
        neighbors = set(injector.recent_failure_neighbors)
        events = injector.inject(1, topo, hosts)
        cascades = [e for e in events if e.model == "cascade"]
        assert cascades
        assert {e.target for e in cascades} <= neighbors
        # Dead hosts are never cascade targets.
        assert all(e.target != 0 for e in cascades)
        # Triggers are consumed: the next interval is quiet.
        assert injector.inject(2, topo, hosts) == []

    def test_worker_failure_hits_its_broker(self, topo, hosts):
        config = FaultConfig(rate=0.0, cascade_probability=1.0)
        injector = FaultInjector(config, np.random.default_rng(0))
        hosts[5].compute_utilisation({"cpu": 9000.0})
        injector.check_failures(hosts, topo)
        assert injector.recent_failure_neighbors == {topo.assignment[5]}

    def test_zero_probability_never_fires(self, topo, hosts):
        model = CascadeAttackModel(probability=0.0)
        injector = FaultInjector(
            FaultConfig(rate=0.0), np.random.default_rng(0), models=[model]
        )
        injector.recent_failure_neighbors = {1, 2}
        assert injector.inject(1, topo, hosts) == []


class TestPartitionFaults:
    def test_partition_severs_expected_fraction(self, topo, hosts):
        config = FaultConfig(
            rate=0.0, partition_rate=50.0, partition_fraction=0.5,
            partition_duration=2,
        )
        injector = FaultInjector(config, np.random.default_rng(0))
        events = injector.inject(0, topo, hosts)
        partitions = [e for e in events if e.model == "partition"]
        assert partitions
        first_burst = partitions[:4]
        assert len({e.target for e in first_burst}) == 4  # 0.5 * 8 hosts
        for event in partitions:
            assert event.axis == "net"
            assert event.intensity == PARTITION_INTENSITY
            assert event.intensity > config.failure_threshold
            assert event.duration == 2

    def test_partitioned_hosts_fail_together(self, topo, hosts):
        config = FaultConfig(
            rate=0.0, partition_rate=50.0, partition_fraction=0.4
        )
        injector = FaultInjector(config, np.random.default_rng(1))
        events = injector.inject(0, topo, hosts)
        injector.apply_loads(hosts)
        for host in hosts:
            host.compute_utilisation({})
        failed = injector.check_failures(hosts, topo)
        assert set(failed) >= {e.target for e in events[:3]}

    def test_single_partition_never_severs_everyone(self, topo, hosts):
        model = PartitionFaultModel(rate=10.0, fraction=0.99)
        injector = FaultInjector(
            FaultConfig(rate=0.0), np.random.default_rng(0), models=[model]
        )
        events = injector.inject(0, topo, hosts)
        assert events
        # fraction=0.99 rounds to the whole fleet but each event is
        # capped at n-1: a partition always leaves a surviving side.
        burst = {e.target for e in events[: len(hosts) - 1]}
        assert len(burst) == len(hosts) - 1


class TestArrivalSurges:
    def test_surge_effective_for_duration_intervals(self, topo, hosts):
        """Engine ordering: arrivals are drawn before faults are sampled
        and ``decay`` closes each interval, so a duration-2 surge fired
        in interval t must cover the draws of t+1 and t+2 exactly."""
        config = FaultConfig(
            rate=0.0, surge_rate=50.0, surge_multiplier=3.0, surge_duration=2
        )
        injector = FaultInjector(config, np.random.default_rng(0))
        # Interval t: draw (pre-surge), sample, close.
        assert injector.arrival_multiplier() == 1.0
        events = injector.inject(0, topo, hosts)
        surges = [e for e in events if e.model == "surge"]
        assert surges and all(e.target == -1 for e in surges)
        injector.decay()
        expected = pytest.approx(3.0 ** len(surges))
        # Intervals t+1 and t+2 draw under the surge...
        assert injector.arrival_multiplier() == expected
        injector.decay()
        assert injector.arrival_multiplier() == expected
        injector.decay()
        # ...and t+3 is back to normal.
        assert injector.arrival_multiplier() == 1.0

    def test_duration_one_surge_still_has_effect(self, topo, hosts):
        config = FaultConfig(
            rate=0.0, surge_rate=50.0, surge_multiplier=2.0, surge_duration=1
        )
        injector = FaultInjector(config, np.random.default_rng(0))
        injector.inject(0, topo, hosts)
        injector.decay()
        assert injector.arrival_multiplier() > 1.0
        injector.decay()
        assert injector.arrival_multiplier() == 1.0

    def test_surge_events_touch_no_host(self, topo, hosts):
        config = FaultConfig(
            rate=0.0, surge_rate=50.0, surge_multiplier=2.0
        )
        injector = FaultInjector(config, np.random.default_rng(0))
        injector.inject(0, topo, hosts)
        injector.apply_loads(hosts)
        assert all(sum(h.fault_load.values()) == 0.0 for h in hosts)


class TestDetection:
    def test_detects_dead_broker(self, topo, hosts, rng):
        protocol = DetectionProtocol(rng, audit_failure_probability=0.0)
        hosts[0].crash(120.0)
        report = protocol.detect(1, topo, hosts)
        assert report.failed_brokers == (0,)

    def test_detects_dead_worker(self, topo, hosts, rng):
        protocol = DetectionProtocol(rng, audit_failure_probability=0.0)
        hosts[5].crash(120.0)
        report = protocol.detect(1, topo, hosts)
        assert 5 in report.failed_workers
        assert report.failed_brokers == ()

    def test_detection_delay(self, topo, hosts, rng):
        protocol = DetectionProtocol(rng)
        report = protocol.detect(1, topo, hosts)
        assert report.detection_delay_seconds == pytest.approx(25.0)

    def test_audit_flags_attacked_broker(self, topo, hosts):
        protocol = DetectionProtocol(
            np.random.default_rng(0), audit_failure_probability=1.0
        )
        hosts[0].fault_load["cpu"] = 0.5
        report = protocol.detect(1, topo, hosts)
        assert 0 in report.audit_failures
        assert 0 in report.failed_brokers

    def test_healthy_system_clean_report(self, topo, hosts, rng):
        protocol = DetectionProtocol(rng, audit_failure_probability=0.0)
        report = protocol.detect(1, topo, hosts)
        assert report.failed_brokers == ()
        assert report.failed_workers == ()


class TestRecovery:
    def test_strip_failed_removes_dead(self, topo, hosts):
        hosts[5].crash(60.0)
        result = strip_failed(topo, hosts)
        assert 5 not in result.attached

    def test_reattach_recovered_to_closest(self, topo, hosts, rng):
        network = NetworkModel(8, 2, rng)
        stripped = topo.detach(5)
        result = reattach_recovered(stripped, hosts, network)
        assert 5 in result.assignment
        assert result.assignment[5] in topo.brokers

    def test_ensure_brokered_promotes_when_all_brokers_dead(self, topo, hosts, rng):
        network = NetworkModel(8, 2, rng)
        hosts[0].crash(60.0)
        hosts[1].crash(60.0)
        result = ensure_brokered(topo, hosts, network)
        live_brokers = [b for b in result.brokers if hosts[b].alive]
        assert live_brokers
        # Every live host is attached.
        live = {h.host_id for h in hosts if h.alive}
        assert live <= result.attached

    def test_ensure_brokered_total_outage_is_graceful(self, topo, hosts, rng):
        network = NetworkModel(8, 2, rng)
        for host in hosts:
            host.crash(60.0)
        result = ensure_brokered(topo, hosts, network)
        assert isinstance(result, Topology)

    def test_ensure_brokered_noop_when_healthy(self, topo, hosts, rng):
        network = NetworkModel(8, 2, rng)
        assert ensure_brokered(topo, hosts, network) == topo


class TestNetworkModel:
    def test_latency_symmetric_zero_diagonal(self, rng):
        network = NetworkModel(6, 2, rng)
        np.testing.assert_allclose(network.latency, network.latency.T)
        np.testing.assert_allclose(np.diag(network.latency), 0.0)

    def test_transfer_time_includes_serialisation(self, rng):
        network = NetworkModel(4, 2, rng, link_mbps=1000.0)
        transfer = network.transfer_seconds(0, 1, megabytes=125.0)
        # 125 MB over 1 Gbps = 1 s plus latency.
        assert transfer > 1.0
        assert network.transfer_seconds(0, 0, 125.0) == 0.0

    def test_transfer_rejects_negative(self, rng):
        network = NetworkModel(4, 2, rng)
        with pytest.raises(ValueError):
            network.transfer_seconds(0, 1, -1.0)

    def test_closest_host(self, rng):
        network = NetworkModel(6, 2, rng)
        position = network.positions[3]
        assert network.closest_host(position, [3, 0]) == 3

    def test_closest_requires_candidates(self, rng):
        network = NetworkModel(4, 2, rng)
        with pytest.raises(ValueError):
            network.closest_host(np.zeros(2), [])
