"""The federated-edge co-simulator.

Drives the discrete scheduling-interval loop of §III-A: at the start of
interval ``I_t`` failures are detected, the topology is repaired (by
whichever resilience model the experiment wires in), new tasks arrive
through gateways, the underlying scheduler produces ``S_t`` and the
interval executes -- producing the performance metrics ``M_t`` that the
next decision consumes.

The engine is policy-free: experiments drive it through the four-phase
protocol ``begin_interval`` -> (resilience model chooses a topology) ->
``set_topology`` -> ``run_interval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry as _telemetry
from ..config import ExperimentConfig
from .detection import DetectionProtocol, FailureReport
from .faults import FaultInjector
from .gateway import GatewayFleet
from .host import RESOURCES, Host, make_fleet, make_pi_cluster
from .metrics import (
    IntervalMetrics,
    encode_host_metrics,
    encode_schedule,
)
from .network import NetworkModel
from .recovery import ensure_brokered
from .scheduler import GOBIScheduler, SchedulingDecision
from .task import Task
from .topology import Topology, initial_topology

__all__ = ["SystemView", "EdgeFederation"]

# Interval-loop telemetry (process registry): wall-clock spans and
# task-flow counters.  Observation only -- nothing here feeds back
# into simulation state, so records never depend on it.
_INTERVAL_SPAN = _telemetry.span("sim.interval")
_INTERVALS = _telemetry.counter("sim.intervals")
_TASKS_ARRIVED = _telemetry.counter("sim.tasks_arrived")
_TASKS_COMPLETED = _telemetry.counter("sim.tasks_completed")
_ATTACKS = _telemetry.counter("sim.attacks")

#: Broker state shipped during a node-shift (resource logs, task table).
BROKER_STATE_MB = 64.0
#: Time to start the broker-management Docker container on a new broker.
CONTAINER_INIT_SECONDS = 10.0
#: Worker-side cost of refreshing its broker IP at a reassignment.
WORKER_REASSIGN_SECONDS = 1.0
#: Management baseline: broker software idle CPU fraction / RAM in GB.
MANAGEMENT_BASE_CPU = 0.05
MANAGEMENT_CPU_PER_WORKER = 0.012
MANAGEMENT_CPU_PER_TASK = 0.004
MANAGEMENT_BASE_RAM_GB = 0.5


@dataclass
class SystemView:
    """Read-only snapshot handed to resilience models each interval.

    Everything a broker-resident model can observe: the current
    topology, per-host liveness and utilisation, the network, the
    previous interval's metric matrix ``M`` and schedule encoding
    ``S``, plus the QoS weights.
    """

    interval: int
    topology: Topology
    hosts: Sequence[Host]
    network: NetworkModel
    last_metrics: Optional[IntervalMetrics]
    alpha: float
    beta: float
    interval_seconds: float

    def utilisation_matrix(self) -> np.ndarray:
        """Per-host [cpu, ram, disk, net] utilisation."""
        matrix = np.zeros((len(self.hosts), len(RESOURCES)))
        for row, host in enumerate(self.hosts):
            matrix[row] = [host.utilisation[axis] for axis in RESOURCES]
        return matrix


class EdgeFederation:
    """Co-simulator of a broker-worker edge federation."""

    def __init__(
        self,
        config: ExperimentConfig,
        topology: Optional[Topology] = None,
    ) -> None:
        from .workloads import make_generator

        self.config = config
        fed = config.federation
        # Independent streams so component behaviour is stable when
        # other components change (standard variance-reduction practice).
        # SeedSequence.spawn gives provably independent children, unlike
        # offsetting a shared seed.
        streams = np.random.SeedSequence(config.seed).spawn(5)
        self._rng_network = np.random.default_rng(streams[0])
        self._rng_workload = np.random.default_rng(streams[1])
        self._rng_faults = np.random.default_rng(streams[2])
        self._rng_gateways = np.random.default_rng(streams[3])
        self._rng_detection = np.random.default_rng(streams[4])

        # FederationConfig guarantees fleet counts sum to n_hosts.
        self.hosts: List[Host] = (
            make_fleet(fed.fleet) if fed.fleet
            else make_pi_cluster(fed.n_hosts, fed.n_large_hosts)
        )
        self.topology = topology or initial_topology(fed.n_hosts, fed.n_leis)
        self.network = NetworkModel(
            fed.n_hosts, fed.n_leis, self._rng_network, link_mbps=fed.link_mbps
        )
        self.gateways = GatewayFleet(
            n_gateways=2 * fed.n_leis, network=self.network, rng=self._rng_gateways
        )
        self.workload = make_generator(
            config.workload.suite,
            self._rng_workload,
            arrival_rate=config.workload.arrival_rate,
            drift_scale=config.workload.drift_scale,
            jump_probability=config.workload.jump_probability,
        )
        self.faults = FaultInjector(config.faults, self._rng_faults)
        self.detection = DetectionProtocol(self._rng_detection)
        self.scheduler = GOBIScheduler()

        self.active_tasks: List[Task] = []
        self.completed_tasks: List[Task] = []
        self.interval = 0
        self.now = 0.0
        self.last_metrics: Optional[IntervalMetrics] = None
        self.last_decision: Optional[SchedulingDecision] = None
        self._last_report: Optional[FailureReport] = None
        self._pending_downtime: Dict[int, float] = {}
        self._nodeshift_overhead = 0.0
        #: Resilience-model resource profile charged to brokers.
        self._management_cpu_seconds = 0.0
        self._management_memory_gb = 0.0

    # ------------------------------------------------------------------
    # Phase 1: interval boundary -- detection
    # ------------------------------------------------------------------
    def begin_interval(self) -> FailureReport:
        """Open interval ``t+1``: reset hosts and detect failures."""
        self.interval += 1
        for host in self.hosts:
            host.reset_interval()
        report = self.detection.detect(self.interval, self.topology, self.hosts)
        self._last_report = report
        self._pending_downtime = {}
        self._nodeshift_overhead = 0.0
        return report

    def propose_topology(self) -> Topology:
        """Default topology initialisation (Alg. 2 line 4).

        Strips failed hosts and reattaches recovered ones; resilience
        models start their search from this graph.
        """
        return ensure_brokered(self.topology, self.hosts, self.network)

    @property
    def view(self) -> SystemView:
        return SystemView(
            interval=self.interval,
            topology=self.topology,
            hosts=self.hosts,
            network=self.network,
            last_metrics=self.last_metrics,
            alpha=self.config.alpha,
            beta=self.config.beta,
            interval_seconds=self.config.federation.interval_seconds,
        )

    # ------------------------------------------------------------------
    # Phase 2: topology commit
    # ------------------------------------------------------------------
    def set_topology(self, topology: Topology) -> float:
        """Commit the repaired topology; returns node-shift overhead (s).

        The overhead models broker-state transfer plus management-
        container start-up for promotions/demotions and the IP refresh
        for reassigned workers.  It is charged as downtime to the
        orphaned LEIs' tasks this interval (§III-B: node-shifts "entail
        transfer of broker level data ... and initializing management
        software containers").
        """
        previous = self.topology
        repaired = ensure_brokered(topology, self.hosts, self.network)

        promoted = sorted(repaired.brokers - previous.brokers)
        demoted = sorted(previous.brokers - repaired.brokers)
        reassigned = [
            worker
            for worker, broker in repaired.assignment.items()
            if previous.assignment.get(worker, broker) != broker
        ]

        overhead = 0.0
        live_old_brokers = [
            b for b in previous.brokers
            if self.hosts[b].alive and b in repaired.attached
        ]
        for new_broker in promoted:
            source = (
                min(
                    live_old_brokers,
                    key=lambda b: self.network.latency_seconds(b, new_broker),
                )
                if live_old_brokers
                else new_broker
            )
            overhead += self.network.transfer_seconds(
                source, new_broker, BROKER_STATE_MB
            )
            overhead += CONTAINER_INIT_SECONDS
        overhead += WORKER_REASSIGN_SECONDS * (len(reassigned) + len(demoted))

        # Charge downtime to the LEIs orphaned by the failed brokers.
        report = self._last_report
        if report is not None and report.failed_brokers:
            for broker in report.failed_brokers:
                if broker not in previous.brokers:
                    continue
                for worker in previous.lei(broker):
                    self._pending_downtime[worker] = (
                        self._pending_downtime.get(worker, 0.0)
                        + report.detection_delay_seconds
                        + overhead
                    )

        self._nodeshift_overhead = overhead
        self.topology = repaired
        return overhead

    def set_management_profile(self, cpu_seconds: float, memory_gb: float) -> None:
        """Declare the resilience model's resource use for this interval.

        ``cpu_seconds`` of model compute (decision + fine-tuning,
        already scaled to edge-hardware speed) and resident ``memory_gb``
        are charged to every broker, reproducing the paper's observation
        that fine-tuning "consumes large portions of the computational
        and memory resources" of broker nodes (§I).
        """
        if cpu_seconds < 0 or memory_gb < 0:
            raise ValueError("management profile must be non-negative")
        self._management_cpu_seconds = cpu_seconds
        self._management_memory_gb = memory_gb

    # ------------------------------------------------------------------
    # Phase 3: execution
    # ------------------------------------------------------------------
    @_INTERVAL_SPAN
    def run_interval(self) -> IntervalMetrics:
        """Execute the committed interval and return its metrics."""
        fed = self.config.federation
        interval_seconds = fed.interval_seconds
        host_by_id = {host.host_id: host for host in self.hosts}

        # Rebooting hosts progress their recovery during this interval.
        for host in self.hosts:
            if not host.alive:
                host.advance_reboot(interval_seconds)

        # -- New tasks arrive through the gateways ---------------------
        live_brokers = [
            b for b in sorted(self.topology.brokers) if host_by_id[b].alive
        ]
        new_tasks: List[Task] = []
        routed: Dict[int, List[Task]] = {}
        if live_brokers:
            specs = self.workload.tasks_for_interval(
                fed.n_leis, rate_multiplier=self._arrival_multiplier()
            )
            routed = self.gateways.route_tasks(specs, live_brokers, self.now)
            new_tasks = [task for tasks in routed.values() for task in tasks]

        # -- Underlying scheduler decides S_t ---------------------------
        decision = self.scheduler.schedule(
            routed, self.active_tasks, self.topology, self.hosts
        )
        self._apply_decision(decision, host_by_id)
        self.active_tasks.extend(new_tasks)
        for task in new_tasks:
            task.host = decision.placements.get(task.task_id, task.entry_broker)

        # -- Resource demand and utilisation ----------------------------
        tasks_by_host: Dict[int, List[Task]] = {}
        for task in self.active_tasks:
            if task.host is not None:
                tasks_by_host.setdefault(task.host, []).append(task)

        self._apply_management_load(live_brokers, tasks_by_host)
        attacks = tuple(self.faults.inject(self.interval, self.topology, self.hosts))
        self.faults.apply_loads(self.hosts)

        for host in self.hosts:
            demand = self._demand_of(
                tasks_by_host.get(host.host_id, []), host, interval_seconds
            )
            host.compute_utilisation(demand)
            host.task_ids = [t.task_id for t in tasks_by_host.get(host.host_id, [])]

        # -- Task progress ----------------------------------------------
        completions: List[Task] = []
        slo_counts = np.zeros(len(self.hosts))
        done_counts = np.zeros(len(self.hosts))
        for host in self.hosts:
            resident = tasks_by_host.get(host.host_id, [])
            if not resident:
                continue
            effective = self._effective_seconds(host, interval_seconds)
            speed = self._effective_mips(host)
            for task in resident:
                stall = self._pending_downtime.get(host.host_id, 0.0)
                window = max(effective - stall, 0.0)
                start = self.now + (interval_seconds - window)
                task.progress(speed * task.spec.cpu_share, window, start)
                if task.finished:
                    completions.append(task)
                    done_counts[host.host_id] += 1
                    if task.violates_slo:
                        slo_counts[host.host_id] += 1

        # -- Energy ------------------------------------------------------
        energy_joules = np.zeros(len(self.hosts))
        for row, host in enumerate(self.hosts):
            idle = host.spec.power_model.watts(0.0)
            if host.alive:
                busy_seconds = interval_seconds - host.downtime_seconds
                energy_joules[row] = (
                    host.power_watts() * busy_seconds
                    + idle * host.downtime_seconds
                )
            else:
                energy_joules[row] = idle * interval_seconds

        # -- Failures for the next interval -------------------------------
        self.faults.check_failures(self.hosts, self.topology)
        self.faults.decay()

        # -- Bookkeeping & metrics ----------------------------------------
        for task in completions:
            self.active_tasks.remove(task)
        self.completed_tasks.extend(completions)

        slo_rate_by_host = np.divide(
            slo_counts,
            np.maximum(done_counts, 1.0),
        )
        metrics = IntervalMetrics(
            interval=self.interval,
            topology=self.topology,
            host_metrics=encode_host_metrics(
                self.hosts, tasks_by_host, energy_joules, slo_rate_by_host,
                interval_seconds,
            ),
            schedule_encoding=encode_schedule(
                decision,
                self.active_tasks + completions,
                {t.task_id for t in new_tasks},
                self.hosts,
                interval_seconds,
            ),
            energy_kwh=float(energy_joules.sum()) / 3.6e6,
            response_times=[t.response_time for t in completions],
            slo_violations=[t.violates_slo for t in completions],
            n_active_tasks=len(self.active_tasks),
            n_new_tasks=len(new_tasks),
            failure_report=self._last_report,
            downtime_seconds=sum(self._pending_downtime.values())
            + sum(h.downtime_seconds for h in self.hosts),
            attacks=attacks,
        )
        _INTERVALS.inc()
        _TASKS_ARRIVED.add(len(new_tasks))
        _TASKS_COMPLETED.add(len(completions))
        _ATTACKS.add(len(attacks))
        self.last_metrics = metrics
        self.last_decision = decision
        self.now += interval_seconds
        # Management profile is re-declared each interval by the runner.
        self._management_cpu_seconds = 0.0
        return metrics

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _arrival_multiplier(self) -> float:
        """Scenario-driven arrival-rate factor for the current interval.

        Combines active flash-crowd surges (fault side) with the
        configured diurnal load curve (workload side).
        """
        factor = self.faults.arrival_multiplier()
        amplitude = self.config.workload.diurnal_amplitude
        if amplitude > 0.0:
            period = self.config.workload.diurnal_period
            factor *= 1.0 + amplitude * float(
                np.sin(2.0 * np.pi * self.interval / period)
            )
        return factor

    def _apply_decision(
        self, decision: SchedulingDecision, host_by_id: Dict[int, Host]
    ) -> None:
        """Apply migrations/reruns implied by the scheduling decision."""
        task_by_id = {task.task_id: task for task in self.active_tasks}
        for task_id, source, target in decision.migrations:
            task = task_by_id.get(task_id)
            if task is None:
                continue
            source_host = host_by_id.get(source)
            if source_host is not None and not source_host.alive:
                # Re-run after a worker failure: restart from scratch
                # (§III-A: "we simply rerun tasks on the worker with the
                # least resource utilization").
                task.remaining_mi = task.spec.total_mi
                task.stall_seconds += self.config.federation.interval_seconds * 0.1
                task.host = target
            else:
                migration_seconds = self.network.transfer_seconds(
                    source, target, task.spec.ram_gb * 1024.0
                )
                task.migrate(target, migration_seconds)
        for task_id, host_id in decision.placements.items():
            task = task_by_id.get(task_id)
            if task is not None and task.host != host_id:
                task.host = host_id

    def _apply_management_load(
        self, live_brokers: List[int], tasks_by_host: Dict[int, List[Task]]
    ) -> None:
        """Charge broker-software and resilience-model load to brokers."""
        interval_seconds = self.config.federation.interval_seconds
        model_cpu_fraction = min(
            self._management_cpu_seconds / interval_seconds, 1.0
        )
        for host in self.hosts:
            host.management_cpu = 0.0
            host.management_ram_gb = 0.0
        for broker in live_brokers:
            host = self.hosts[broker]
            lei = self.topology.lei(broker)
            n_tasks = sum(len(tasks_by_host.get(w, [])) for w in lei)
            n_tasks += len(tasks_by_host.get(broker, []))
            host.management_cpu = (
                MANAGEMENT_BASE_CPU
                + MANAGEMENT_CPU_PER_WORKER * len(lei)
                + MANAGEMENT_CPU_PER_TASK * n_tasks
                + model_cpu_fraction
            )
            host.management_ram_gb = (
                MANAGEMENT_BASE_RAM_GB + self._management_memory_gb
            )

    @staticmethod
    def _demand_of(
        tasks: List[Task], host: Host, interval_seconds: float
    ) -> Dict[str, float]:
        """Aggregate native-unit demand of resident tasks on ``host``."""
        demand = {axis: 0.0 for axis in RESOURCES}
        for task in tasks:
            demand["cpu"] += task.spec.cpu_share * host.spec.cpu_mips
            demand["ram"] += task.spec.ram_gb
            demand["disk"] += task.spec.disk_mb / interval_seconds
            demand["net"] += task.spec.net_mb * 8.0 / interval_seconds
        return demand

    def _effective_seconds(self, host: Host, interval_seconds: float) -> float:
        """Execution window after reboot downtime."""
        return max(interval_seconds - host.downtime_seconds, 0.0)

    def _effective_mips(self, host: Host) -> float:
        """Per-share MIPS under contention.

        CPU contention (util > 1) shares the processor proportionally;
        RAM over-subscription triggers swap thrashing over the network-
        attached disk (§I), slowing progress further; disk/network
        saturation adds a milder penalty.
        """
        cpu_util = host.utilisation["cpu"]
        ram_excess = max(host.utilisation["ram"] - 1.0, 0.0)
        io_excess = max(host.utilisation["disk"] - 1.0, 0.0) + max(
            host.utilisation["net"] - 1.0, 0.0
        )
        mips = host.spec.cpu_mips
        if cpu_util > 1.0:
            mips /= cpu_util
        mips /= 1.0 + 2.0 * ram_excess
        mips /= 1.0 + 0.5 * io_excess
        return mips
