"""Broker failure detection (§IV-G).

On the testbed every broker pings every other broker each 30 s (five
ICMP packets, 10 s timeout) and runs a signed-log audit on responders;
a broker reported unresponsive by *all* of its peers is declared
compromised.  We reproduce the decision-visible behaviour: which nodes
are flagged at an interval boundary and how much detection latency the
protocol contributes to LEI downtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .host import Host
from .topology import Topology

__all__ = ["FailureReport", "DetectionProtocol"]


@dataclass(frozen=True)
class FailureReport:
    """Outcome of the liveness protocol at an interval boundary."""

    interval: int
    failed_brokers: Tuple[int, ...]
    failed_workers: Tuple[int, ...]
    #: Seconds between the failure and its detection (ping period plus
    #: timeout), charged as additional downtime for the orphaned LEI.
    detection_delay_seconds: float
    #: Brokers that responded to pings but failed the audit check
    #: (byzantine-but-responsive); treated as failed.
    audit_failures: Tuple[int, ...] = ()


class DetectionProtocol:
    """Quorum ping + audit detection.

    Parameters
    ----------
    ping_period_seconds / timeout_seconds:
        Protocol constants from §IV-G (30 s and 10 s).
    audit_failure_probability:
        Chance that an *alive but attacked* broker fails its audit and
        is treated as compromised -- byzantine misbehaviour that pure
        liveness checks would miss.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        ping_period_seconds: float = 30.0,
        timeout_seconds: float = 10.0,
        audit_failure_probability: float = 0.05,
    ) -> None:
        if ping_period_seconds <= 0 or timeout_seconds <= 0:
            raise ValueError("protocol periods must be positive")
        if not 0.0 <= audit_failure_probability <= 1.0:
            raise ValueError("audit_failure_probability must be in [0, 1]")
        self.rng = rng
        self.ping_period_seconds = ping_period_seconds
        self.timeout_seconds = timeout_seconds
        self.audit_failure_probability = audit_failure_probability

    def detect(
        self,
        interval: int,
        topology: Topology,
        hosts: Sequence[Host],
    ) -> FailureReport:
        """Run one detection round against the current host states."""
        host_by_id = {host.host_id: host for host in hosts}
        failed_brokers: List[int] = []
        failed_workers: List[int] = []
        audit_failures: List[int] = []

        for broker in sorted(topology.brokers):
            host = host_by_id[broker]
            if not host.alive:
                # Unresponsive to pings from every peer -> compromised.
                failed_brokers.append(broker)
            elif self._under_attack(host) and (
                self.rng.random() < self.audit_failure_probability
            ):
                # Responsive but the signed-log audit check fails.
                audit_failures.append(broker)
                failed_brokers.append(broker)

        for worker in topology.workers:
            if not host_by_id[worker].alive:
                failed_workers.append(worker)

        # Expected detection latency: uniform failure arrival within a
        # ping period, plus the full timeout before declaring death.
        delay = self.ping_period_seconds / 2.0 + self.timeout_seconds
        return FailureReport(
            interval=interval,
            failed_brokers=tuple(failed_brokers),
            failed_workers=tuple(failed_workers),
            detection_delay_seconds=delay,
            audit_failures=tuple(audit_failures),
        )

    @staticmethod
    def _under_attack(host: Host) -> bool:
        return any(value > 0.0 for value in host.fault_load.values())
