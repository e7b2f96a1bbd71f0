"""Edge host models.

The testbed (§IV-C) is 16 Raspberry Pi 4B nodes, 8 with 4 GB RAM and 8
with 8 GB, i.e. heterogeneous in memory while sharing the same SoC.
A :class:`HostSpec` captures static capacities; a :class:`Host` carries
the per-interval runtime state (resident tasks, utilisations, fault
load, liveness).

Beyond the paper's Pi-only fleet, :data:`HOST_CLASSES` names additional
edge host classes (Intel-NUC mini PCs and a Xeon edge server) so that
scenarios can exercise genuinely heterogeneous federations;
:func:`make_fleet` builds a fleet from a ``(class, count)`` composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .power import NUC_POWER, PI4B_POWER, XEON_POWER, InterpolatedPowerModel

__all__ = [
    "HostSpec",
    "Host",
    "make_pi_cluster",
    "make_fleet",
    "HOST_CLASSES",
    "RESOURCES",
]

#: Resource axes tracked per host (order used in metric matrices).
RESOURCES = ("cpu", "ram", "disk", "net")


@dataclass(frozen=True)
class HostSpec:
    """Static description of an edge node."""

    name: str
    #: Aggregate compute capacity in MIPS (millions of instructions/s).
    cpu_mips: float
    ram_gb: float
    #: Sequential disk bandwidth in MB/s (SD card class).
    disk_mbps: float
    #: Network bandwidth in Mbit/s.
    net_mbps: float
    power_model: InterpolatedPowerModel = PI4B_POWER

    def __post_init__(self) -> None:
        for attr in ("cpu_mips", "ram_gb", "disk_mbps", "net_mbps"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")


#: Pi 4B, 4 GB variant: 4x Cortex-A72 @ 1.5 GHz.
PI4B_4GB = HostSpec(name="pi4b-4gb", cpu_mips=4000.0, ram_gb=4.0,
                    disk_mbps=40.0, net_mbps=1000.0)
#: Pi 4B, 8 GB variant.
PI4B_8GB = HostSpec(name="pi4b-8gb", cpu_mips=4000.0, ram_gb=8.0,
                    disk_mbps=40.0, net_mbps=1000.0)
#: Intel NUC mini PC: 4-core i5, 16 GB RAM, NVMe storage.
NUC_I5 = HostSpec(name="nuc-i5", cpu_mips=24000.0, ram_gb=16.0,
                  disk_mbps=450.0, net_mbps=1000.0,
                  power_model=NUC_POWER)
#: Single-socket Xeon edge server: 8 cores, 64 GB RAM, 10 GbE.
XEON_EDGE = HostSpec(name="xeon-edge", cpu_mips=80000.0, ram_gb=64.0,
                     disk_mbps=900.0, net_mbps=10000.0,
                     power_model=XEON_POWER)

#: Host classes available to scenario fleet compositions.
HOST_CLASSES: Dict[str, HostSpec] = {
    "pi4b-4gb": PI4B_4GB,
    "pi4b-8gb": PI4B_8GB,
    "nuc": NUC_I5,
    "xeon": XEON_EDGE,
}


class Host:
    """Runtime state of a single edge node.

    Utilisation on each axis is the ratio of aggregate demand to
    capacity; values above 1.0 represent contention (demands are then
    served proportionally slower).  ``fault_load`` holds extra synthetic
    demand injected by the fault module, and ``management_load`` the
    CPU/RAM cost of running broker software (scheduler, resilience
    model) on this node.
    """

    def __init__(self, host_id: int, spec: HostSpec) -> None:
        self.host_id = host_id
        self.spec = spec
        self.alive = True
        #: Seconds of the current interval lost to being rebooted.
        self.downtime_seconds = 0.0
        #: Remaining reboot time if the node crashed (0 when healthy).
        self.reboot_remaining = 0.0
        #: Extra demand per resource axis injected by attacks.
        self.fault_load: Dict[str, float] = {axis: 0.0 for axis in RESOURCES}
        #: Broker-software demand (cpu fraction, ram GB).
        self.management_cpu = 0.0
        self.management_ram_gb = 0.0
        #: Task ids resident this interval (set by the engine).
        self.task_ids: List[int] = []
        #: Last computed utilisations, exposed to the metrics layer.
        self.utilisation: Dict[str, float] = {axis: 0.0 for axis in RESOURCES}

    # ------------------------------------------------------------------
    def capacity(self, axis: str) -> float:
        """Capacity along one resource axis in that axis' native unit."""
        if axis == "cpu":
            return self.spec.cpu_mips
        if axis == "ram":
            return self.spec.ram_gb
        if axis == "disk":
            return self.spec.disk_mbps
        if axis == "net":
            return self.spec.net_mbps
        raise KeyError(f"unknown resource axis {axis!r}")

    def compute_utilisation(self, demand: Dict[str, float]) -> Dict[str, float]:
        """Combine task demand, fault load and management load.

        ``demand`` maps each axis to the aggregate task demand in native
        units.  Fault load is expressed as a utilisation fraction and
        added directly; management CPU likewise.
        """
        utilisation = {}
        for axis in RESOURCES:
            base = demand.get(axis, 0.0) / self.capacity(axis)
            base += self.fault_load[axis]
            if axis == "cpu":
                base += self.management_cpu
            elif axis == "ram":
                base += self.management_ram_gb / self.spec.ram_gb
            utilisation[axis] = base
        self.utilisation = utilisation
        return utilisation

    def is_overloaded(self, threshold: float = 1.0) -> bool:
        """True if any axis exceeds ``threshold`` (failure condition)."""
        return any(value > threshold for value in self.utilisation.values())

    def crash(self, reboot_seconds: float) -> None:
        """Mark the node unresponsive; it reboots for ``reboot_seconds``."""
        self.alive = False
        self.reboot_remaining = reboot_seconds

    def advance_reboot(self, seconds: float) -> bool:
        """Progress a reboot by ``seconds``; returns True when back up."""
        if self.alive:
            return True
        self.downtime_seconds += min(seconds, self.reboot_remaining)
        self.reboot_remaining -= seconds
        if self.reboot_remaining <= 0:
            self.alive = True
            self.reboot_remaining = 0.0
            # A rebooted node restores from its last snapshot with
            # fault load cleared (recoverable-failure assumption, §III-A).
            self.fault_load = {axis: 0.0 for axis in RESOURCES}
            return True
        return False

    def reset_interval(self) -> None:
        """Clear per-interval transient state."""
        self.downtime_seconds = 0.0
        self.task_ids = []

    def power_watts(self) -> float:
        """Instantaneous power draw at current utilisation."""
        return self.spec.power_model.watts(self.utilisation["cpu"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"Host(#{self.host_id} {self.spec.name} {status})"


def make_pi_cluster(n_hosts: int, n_large: int) -> List[Host]:
    """Build the heterogeneous Pi cluster of the testbed.

    The first ``n_large`` hosts are the 8 GB variant (the paper places
    initial brokers on 8 GB nodes), the rest 4 GB.
    """
    if not 0 <= n_large <= n_hosts:
        raise ValueError("n_large out of range")
    hosts = []
    for host_id in range(n_hosts):
        spec = PI4B_8GB if host_id < n_large else PI4B_4GB
        hosts.append(Host(host_id, spec))
    return hosts


def make_fleet(composition: Sequence[Tuple[str, int]]) -> List[Host]:
    """Build a heterogeneous fleet from ``(host_class, count)`` pairs.

    Host ids run contiguously in composition order, so same-class hosts
    form contiguous "racks" -- the unit targeted by correlated fault
    models.  Scenario conventions place the beefier broker-capable
    classes first, mirroring the paper's 8 GB-nodes-first layout.
    """
    hosts: List[Host] = []
    for class_name, count in composition:
        spec = HOST_CLASSES.get(class_name)
        if spec is None:
            raise ValueError(
                f"unknown host class {class_name!r}; "
                f"known: {sorted(HOST_CLASSES)}"
            )
        if count < 1:
            raise ValueError(f"host class {class_name!r} count must be >= 1")
        for _ in range(count):
            hosts.append(Host(len(hosts), spec))
    if len(hosts) < 2:
        raise ValueError("a fleet needs at least two hosts")
    return hosts
