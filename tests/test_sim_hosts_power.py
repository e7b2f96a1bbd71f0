"""Host models, power curves and resource accounting."""

import numpy as np
import pytest

from repro.simulator import (
    Host,
    HostSpec,
    InterpolatedPowerModel,
    PI4B_POWER,
    RESOURCES,
    make_pi_cluster,
)
from repro.simulator.host import PI4B_4GB, PI4B_8GB


class TestPowerModels:
    def test_interpolated_monotone(self):
        utils = np.linspace(0, 1.5, 30)
        watts = [PI4B_POWER.watts(u) for u in utils]
        assert all(b >= a for a, b in zip(watts, watts[1:]))

    def test_pi4b_anchor_values(self):
        assert PI4B_POWER.watts(0.0) == pytest.approx(2.7)
        assert PI4B_POWER.watts(1.0) == pytest.approx(6.4)
        # Throttling region saturates at the last anchor.
        assert PI4B_POWER.watts(3.0) == pytest.approx(7.3)

    def test_interpolated_validation(self):
        with pytest.raises(ValueError):
            InterpolatedPowerModel([0.0], [1.0])
        with pytest.raises(ValueError):
            InterpolatedPowerModel([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            InterpolatedPowerModel([0.0, 1.0], [1.0, -2.0])


class TestHostSpec:
    def test_pi_variants(self):
        assert PI4B_4GB.ram_gb == 4.0
        assert PI4B_8GB.ram_gb == 8.0
        assert PI4B_4GB.cpu_mips == PI4B_8GB.cpu_mips

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            HostSpec("bad", cpu_mips=0, ram_gb=1, disk_mbps=1, net_mbps=1)


class TestHost:
    def test_capacity_lookup(self):
        host = Host(0, PI4B_4GB)
        assert host.capacity("cpu") == 4000.0
        assert host.capacity("ram") == 4.0
        with pytest.raises(KeyError):
            host.capacity("gpu")

    def test_utilisation_from_demand(self):
        host = Host(0, PI4B_4GB)
        utilisation = host.compute_utilisation(
            {"cpu": 2000.0, "ram": 2.0, "disk": 20.0, "net": 500.0}
        )
        assert utilisation["cpu"] == pytest.approx(0.5)
        assert utilisation["ram"] == pytest.approx(0.5)
        assert utilisation["disk"] == pytest.approx(0.5)
        assert utilisation["net"] == pytest.approx(0.5)

    def test_fault_load_adds(self):
        host = Host(0, PI4B_4GB)
        host.fault_load["cpu"] = 0.4
        utilisation = host.compute_utilisation({"cpu": 2000.0})
        assert utilisation["cpu"] == pytest.approx(0.9)

    def test_management_load_adds(self):
        host = Host(0, PI4B_8GB)
        host.management_cpu = 0.2
        host.management_ram_gb = 2.0
        utilisation = host.compute_utilisation({})
        assert utilisation["cpu"] == pytest.approx(0.2)
        assert utilisation["ram"] == pytest.approx(0.25)

    def test_overload_detection(self):
        host = Host(0, PI4B_4GB)
        host.compute_utilisation({"cpu": 5000.0})
        assert host.is_overloaded(1.0)
        assert not host.is_overloaded(2.0)

    def test_crash_and_reboot_cycle(self):
        host = Host(0, PI4B_4GB)
        host.fault_load["cpu"] = 1.0
        host.crash(100.0)
        assert not host.alive
        assert not host.advance_reboot(50.0)
        assert host.advance_reboot(60.0)
        assert host.alive
        # Snapshot restore clears the injected fault load.
        assert host.fault_load["cpu"] == 0.0
        assert host.downtime_seconds == pytest.approx(100.0)

    def test_reset_interval(self):
        host = Host(0, PI4B_4GB)
        host.downtime_seconds = 50.0
        host.task_ids = [1, 2]
        host.reset_interval()
        assert host.downtime_seconds == 0.0
        assert host.task_ids == []

    def test_power_at_utilisation(self):
        host = Host(0, PI4B_4GB)
        host.compute_utilisation({"cpu": 4000.0})
        assert host.power_watts() == pytest.approx(6.4)


class TestCluster:
    def test_pi_cluster_split(self):
        hosts = make_pi_cluster(16, 8)
        assert len(hosts) == 16
        assert all(h.spec.ram_gb == 8.0 for h in hosts[:8])
        assert all(h.spec.ram_gb == 4.0 for h in hosts[8:])

    def test_cluster_ids_sequential(self):
        hosts = make_pi_cluster(5, 2)
        assert [h.host_id for h in hosts] == [0, 1, 2, 3, 4]

    def test_rejects_bad_large_count(self):
        with pytest.raises(ValueError):
            make_pi_cluster(4, 5)

    def test_resources_constant(self):
        assert RESOURCES == ("cpu", "ram", "disk", "net")
