"""The underlying task scheduler.

The paper assumes "an underlying scheduler in the system independent
from the proposed fault-tolerance solution" (§III-A) and builds on the
GOBI surrogate-optimisation scheduler of COSCO in its implementation
(§IV-D).  The resilience layer consumes the scheduling decision ``S_t``
but never makes it.

:class:`GOBIScheduler` approximates GOBI's behaviour: place each task
where the marginal predicted objective (energy + contention) increase
is smallest, then rebalance overloaded workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .host import Host
from .task import Task
from .topology import Topology

__all__ = ["SchedulingDecision", "GOBIScheduler"]


@dataclass
class SchedulingDecision:
    """Placement decided for one interval (the paper's ``S_t``).

    ``placements`` covers every running task (new and active) mapped to
    a host; ``migrations`` lists tasks moved away from their previous
    host this interval.
    """

    placements: Dict[int, int] = field(default_factory=dict)
    migrations: List[Tuple[int, int, int]] = field(default_factory=list)

    def tasks_on(self, host_id: int) -> List[int]:
        return [t for t, h in self.placements.items() if h == host_id]


class GOBIScheduler:
    """Greedy surrogate-objective placement in the spirit of GOBI/COSCO.

    For each new task, candidate hosts in the receiving LEI are scored
    with a projected-objective estimate (CPU contention + RAM pressure
    + a small energy slope term) and the minimiser wins.  After
    placement, workers projected above ``rebalance_threshold`` CPU
    utilisation shed their smallest task to the least-loaded worker of
    the same LEI.
    """

    name = "gobi"

    def __init__(self, rebalance_threshold: float = 0.9) -> None:
        if rebalance_threshold <= 0:
            raise ValueError("rebalance_threshold must be positive")
        self.rebalance_threshold = rebalance_threshold

    def schedule(
        self,
        new_tasks_by_broker: Mapping[int, Sequence[Task]],
        active_tasks: Sequence[Task],
        topology: Topology,
        hosts: Sequence[Host],
    ) -> SchedulingDecision:
        host_by_id = {host.host_id: host for host in hosts}
        decision = SchedulingDecision()

        # Projected load accumulators per host.
        cpu_load = {h.host_id: 0.0 for h in hosts}
        ram_load = {h.host_id: 0.0 for h in hosts}

        # Keep active tasks where they are (unless their host died).
        for task in active_tasks:
            if task.finished:
                continue
            host = host_by_id.get(task.host) if task.host is not None else None
            if host is not None and host.alive and task.host in topology.attached:
                decision.placements[task.task_id] = task.host
                cpu_load[task.host] += task.spec.cpu_share
                ram_load[task.host] += task.spec.ram_gb
            else:
                # Host failed: task will be re-run; route through its
                # entry broker's LEI below.
                broker = self._fallback_broker(task, topology, host_by_id)
                target = self._best_host(
                    task, broker, topology, host_by_id, cpu_load, ram_load
                )
                previous = task.host if task.host is not None else target
                decision.placements[task.task_id] = target
                decision.migrations.append((task.task_id, previous, target))
                cpu_load[target] += task.spec.cpu_share
                ram_load[target] += task.spec.ram_gb

        # Place new tasks greedily by projected objective.
        for broker in sorted(new_tasks_by_broker):
            for task in new_tasks_by_broker[broker]:
                live_broker = (
                    broker
                    if broker in topology.brokers and host_by_id[broker].alive
                    else self._fallback_broker(task, topology, host_by_id)
                )
                target = self._best_host(
                    task, live_broker, topology, host_by_id, cpu_load, ram_load
                )
                decision.placements[task.task_id] = target
                cpu_load[target] += task.spec.cpu_share
                ram_load[target] += task.spec.ram_gb

        self._rebalance(decision, active_tasks, topology, host_by_id, cpu_load, ram_load)
        return decision

    # ------------------------------------------------------------------
    @staticmethod
    def _live_workers_of(
        broker: int, topology: Topology, host_by_id: Mapping[int, Host]
    ) -> List[int]:
        """Placement candidates in a LEI: live workers, else the broker."""
        workers = [w for w in topology.lei(broker) if host_by_id[w].alive]
        if workers:
            return workers
        # A broker may act as a worker when its LEI has none (§I).
        return [broker]

    def _best_host(
        self,
        task: Task,
        broker: int,
        topology: Topology,
        host_by_id: Mapping[int, Host],
        cpu_load: Dict[int, float],
        ram_load: Dict[int, float],
    ) -> int:
        candidates = self._live_workers_of(broker, topology, host_by_id)
        best, best_score = candidates[0], float("inf")
        for candidate in candidates:
            host = host_by_id[candidate]
            projected_cpu = (cpu_load[candidate] + task.spec.cpu_share)
            projected_ram = (ram_load[candidate] + task.spec.ram_gb) / host.spec.ram_gb
            # Surrogate objective: contention dominates, energy slope
            # penalises waking an idle node only mildly.
            score = projected_cpu + 1.5 * max(projected_ram - 1.0, 0.0) \
                + 0.25 * projected_ram
            if score < best_score:
                best, best_score = candidate, score
        return best

    def _fallback_broker(
        self,
        task: Task,
        topology: Topology,
        host_by_id: Mapping[int, Host],
    ) -> int:
        live_brokers = [
            b for b in sorted(topology.brokers) if host_by_id[b].alive
        ]
        if not live_brokers:
            # Engine guarantees a live broker before scheduling.
            raise RuntimeError("no live brokers available for scheduling")
        if task.entry_broker in live_brokers:
            return task.entry_broker
        return live_brokers[0]

    def _rebalance(
        self,
        decision: SchedulingDecision,
        active_tasks: Sequence[Task],
        topology: Topology,
        host_by_id: Mapping[int, Host],
        cpu_load: Dict[int, float],
        ram_load: Dict[int, float],
    ) -> None:
        task_by_id = {task.task_id: task for task in active_tasks}
        for broker in sorted(topology.brokers):
            workers = self._live_workers_of(broker, topology, host_by_id)
            if len(workers) < 2:
                continue
            for worker in workers:
                if cpu_load[worker] <= self.rebalance_threshold:
                    continue
                resident = [
                    task_by_id[t]
                    for t in decision.tasks_on(worker)
                    if t in task_by_id
                ]
                if not resident:
                    continue
                smallest = min(resident, key=lambda t: t.remaining_mi)
                target = min(workers, key=lambda w: cpu_load[w])
                if target == worker:
                    continue
                decision.placements[smallest.task_id] = target
                decision.migrations.append((smallest.task_id, worker, target))
                cpu_load[worker] -= smallest.spec.cpu_share
                cpu_load[target] += smallest.spec.cpu_share
                ram_load[worker] -= smallest.spec.ram_gb
                ram_load[target] += smallest.spec.ram_gb
