"""Tasks, workload generators and gateway routing."""

import numpy as np
import pytest

from repro.simulator import (
    AIOT_PROFILES,
    ApplicationProfile,
    DEFOG_PROFILES,
    GatewayFleet,
    NetworkModel,
    Task,
    TaskSpec,
    WorkloadGenerator,
    make_aiot_generator,
    make_generator,
)
from repro.simulator.workloads.aiot import HEAVY_APPS, LIGHT_APPS


def spec(**overrides):
    defaults = dict(
        application="test", total_mi=1000.0, ram_gb=0.5,
        disk_mb=10.0, net_mb=5.0, slo_seconds=100.0,
    )
    defaults.update(overrides)
    return TaskSpec(**defaults)


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(total_mi=0)
        with pytest.raises(ValueError):
            spec(ram_gb=-1)
        with pytest.raises(ValueError):
            spec(slo_seconds=0)
        with pytest.raises(ValueError):
            spec(cpu_share=0)

    def test_default_cpu_share(self):
        assert spec().cpu_share == 0.5


class TestTask:
    def test_progress_to_completion(self):
        task = Task(spec(total_mi=100.0), created_at=0.0, lei_broker=0)
        task.progress(mips_share=10.0, seconds=5.0, now=0.0)
        assert not task.finished
        task.progress(mips_share=10.0, seconds=10.0, now=5.0)
        assert task.finished
        # 50 MI done, 50 left at 10 MIPS -> finishes 5s into the window.
        assert task.finished_at == pytest.approx(10.0)

    def test_finish_interpolated(self):
        task = Task(spec(total_mi=50.0), created_at=0.0, lei_broker=0)
        task.progress(mips_share=10.0, seconds=10.0, now=0.0)
        assert task.finished_at == pytest.approx(5.0)

    def test_response_time_includes_stall(self):
        task = Task(spec(total_mi=50.0), created_at=0.0, lei_broker=0)
        task.stall_seconds = 20.0
        task.progress(10.0, 10.0, now=0.0)
        assert task.response_time == pytest.approx(25.0)

    def test_response_time_before_finish_raises(self):
        task = Task(spec(), created_at=0.0, lei_broker=0)
        with pytest.raises(RuntimeError):
            _ = task.response_time

    def test_slo_violation(self):
        task = Task(spec(total_mi=50.0, slo_seconds=4.0), created_at=0.0, lei_broker=0)
        task.progress(10.0, 10.0, now=0.0)
        assert task.violates_slo
        ok = Task(spec(total_mi=50.0, slo_seconds=6.0), created_at=0.0, lei_broker=0)
        ok.progress(10.0, 10.0, now=0.0)
        assert not ok.violates_slo

    def test_no_progress_when_finished(self):
        task = Task(spec(total_mi=10.0), created_at=0.0, lei_broker=0)
        task.progress(10.0, 10.0, now=0.0)
        finished_at = task.finished_at
        task.progress(10.0, 10.0, now=10.0)
        assert task.finished_at == finished_at

    def test_zero_window_no_progress(self):
        task = Task(spec(total_mi=10.0), created_at=0.0, lei_broker=0)
        task.progress(10.0, 0.0, now=0.0)
        assert task.remaining_mi == 10.0

    def test_migration_charges_stall(self):
        task = Task(spec(), created_at=0.0, lei_broker=0)
        task.host = 1
        task.migrate(2, migration_seconds=7.0)
        assert task.migrations == 1
        assert task.stall_seconds == pytest.approx(7.0)
        # Same-host migration is free.
        task.migrate(2, migration_seconds=7.0)
        assert task.migrations == 1

    def test_unique_ids(self):
        a = Task(spec(), 0.0, 0)
        b = Task(spec(), 0.0, 0)
        assert a.task_id != b.task_id


class TestProfiles:
    def test_defog_apps(self):
        names = {p.name for p in DEFOG_PROFILES}
        assert names == {"yolo", "pocketsphinx", "aeneas"}

    def test_aiot_seven_apps(self):
        names = {p.name for p in AIOT_PROFILES}
        assert names == set(HEAVY_APPS) | set(LIGHT_APPS)
        assert len(names) == 7

    def test_heavy_demand_more_than_light(self):
        by_name = {p.name: p for p in AIOT_PROFILES}
        heavy_mean = np.mean([by_name[n].mean_mi for n in HEAVY_APPS])
        light_mean = np.mean([by_name[n].mean_mi for n in LIGHT_APPS])
        assert heavy_mean > 2 * light_mean

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ApplicationProfile("x", mean_mi=0, mean_ram_gb=1,
                               mean_disk_mb=1, mean_net_mb=1, slo_seconds=1)
        with pytest.raises(ValueError):
            ApplicationProfile("x", mean_mi=1, mean_ram_gb=1,
                               mean_disk_mb=1, mean_net_mb=1, slo_seconds=1, cv=1.5)


class TestWorkloadGenerator:
    def test_poisson_rate(self, rng):
        generator = WorkloadGenerator(
            DEFOG_PROFILES, arrival_rate=1.2, rng=rng,
            drift_scale=0.0, jump_probability=0.0,
        )
        counts = [len(generator.tasks_for_interval(4)) for _ in range(300)]
        assert np.mean(counts) == pytest.approx(4.8, rel=0.15)

    def test_regime_bounded(self, rng):
        generator = WorkloadGenerator(
            DEFOG_PROFILES, arrival_rate=1.0, rng=rng,
            drift_scale=0.3, jump_probability=0.5,
        )
        for _ in range(200):
            generator.advance_regime()
            regime = generator._regime
            assert np.all(regime >= 0.4) and np.all(regime <= 2.5)

    def test_tasks_positive_demands(self, rng):
        generator = make_aiot_generator(rng)
        for task in generator.tasks_for_interval(4):
            assert task.total_mi > 0
            assert task.slo_seconds > 0

    def test_drift_changes_demands(self):
        base = np.random.default_rng(0)
        generator = WorkloadGenerator(
            DEFOG_PROFILES, arrival_rate=1.0, rng=base,
            drift_scale=0.2, jump_probability=0.2,
        )
        start = generator._regime.copy()
        for _ in range(50):
            generator.advance_regime()
        assert not np.allclose(start, generator._regime)

    def test_factory(self, rng):
        assert make_generator("defog", rng).profiles[0].name == "yolo"
        assert len(make_generator("aiot", rng).profiles) == 7
        with pytest.raises(ValueError):
            make_generator("bogus", rng)

    def test_rejects_empty_profiles(self, rng):
        with pytest.raises(ValueError):
            WorkloadGenerator([], 1.0, rng)


class TestGateways:
    def test_routing_targets_live_brokers(self, rng):
        network = NetworkModel(8, 2, rng)
        fleet = GatewayFleet(4, network, rng)
        specs = [spec() for _ in range(20)]
        routed = fleet.route_tasks(specs, brokers=[0, 1], now=0.0)
        assert set(routed) == {0, 1}
        assert sum(len(tasks) for tasks in routed.values()) == 20
        for broker, tasks in routed.items():
            for task in tasks:
                assert task.entry_broker == broker

    def test_routing_requires_brokers(self, rng):
        network = NetworkModel(4, 2, rng)
        fleet = GatewayFleet(2, network, rng)
        with pytest.raises(ValueError):
            fleet.route_tasks([spec()], brokers=[], now=0.0)

    def test_gateways_move(self, rng):
        network = NetworkModel(4, 2, rng)
        fleet = GatewayFleet(3, network, rng)
        before = [g.position.copy() for g in fleet.gateways]
        fleet.route_tasks([], brokers=[0], now=0.0)
        after = [g.position for g in fleet.gateways]
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_ingress_stall_charged(self, rng):
        network = NetworkModel(4, 2, rng)
        fleet = GatewayFleet(2, network, rng)
        routed = fleet.route_tasks([spec()], brokers=[0], now=0.0)
        task = routed[0][0]
        assert task.stall_seconds > 0
