"""Broker-worker topology of the edge federation.

The assignment of edge nodes as brokers or workers, plus the mapping of
each worker to a broker, *is* the system topology (§III-A).  Brokers of
different LEIs are fully interconnected; workers connect only to their
broker.  CAROL's whole action space is transformations of this object
(node-shifts), so it is immutable and hashable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

import numpy as np

__all__ = ["Topology", "initial_topology"]


class Topology:
    """Immutable broker-worker topology over ``n_hosts`` nodes.

    Parameters
    ----------
    n_hosts:
        Total number of hosts in the federation (fixed, §I: "for a
        fixed number of devices in the system").
    brokers:
        Host ids acting as brokers.
    assignment:
        Mapping of worker host id to its broker's host id.  Hosts in
        neither set are *unattached* -- rebooting after a failure or
        orphaned awaiting a node-shift.
    """

    __slots__ = ("n_hosts", "brokers", "assignment", "_key")

    def __init__(
        self,
        n_hosts: int,
        brokers: Iterable[int],
        assignment: Mapping[int, int],
    ) -> None:
        self.n_hosts = int(n_hosts)
        self.brokers: FrozenSet[int] = frozenset(int(b) for b in brokers)
        self.assignment: Dict[int, int] = {int(w): int(b) for w, b in assignment.items()}
        self._validate()
        self._key = (
            tuple(sorted(self.brokers)),
            tuple(sorted(self.assignment.items())),
        )

    def _validate(self) -> None:
        if not self.brokers:
            raise ValueError("topology must have at least one broker")
        for broker in self.brokers:
            if not 0 <= broker < self.n_hosts:
                raise ValueError(f"broker id {broker} out of range")
        for worker, broker in self.assignment.items():
            if not 0 <= worker < self.n_hosts:
                raise ValueError(f"worker id {worker} out of range")
            if worker in self.brokers:
                raise ValueError(f"host {worker} is both broker and worker")
            if broker not in self.brokers:
                raise ValueError(
                    f"worker {worker} assigned to non-broker {broker}"
                )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def workers(self) -> Tuple[int, ...]:
        return tuple(sorted(self.assignment))

    @property
    def attached(self) -> FrozenSet[int]:
        """Hosts participating in the federation right now."""
        return self.brokers | frozenset(self.assignment)

    @property
    def unattached(self) -> Tuple[int, ...]:
        """Hosts outside the topology (rebooting or orphaned)."""
        return tuple(
            h for h in range(self.n_hosts) if h not in self.attached
        )

    def lei(self, broker: int) -> Tuple[int, ...]:
        """Workers managed by ``broker`` (its Local Edge Infrastructure)."""
        if broker not in self.brokers:
            raise KeyError(f"host {broker} is not a broker")
        return tuple(sorted(w for w, b in self.assignment.items() if b == broker))

    def lei_sizes(self) -> Dict[int, int]:
        """Worker count per broker."""
        sizes = {broker: 0 for broker in self.brokers}
        for broker in self.assignment.values():
            sizes[broker] += 1
        return sizes

    # ------------------------------------------------------------------
    # Transformations (all return new Topology objects)
    # ------------------------------------------------------------------
    def detach(self, host: int) -> "Topology":
        """Remove ``host`` from the topology.

        Detaching a broker orphans its workers (they become unattached
        too); the resilience model is responsible for re-attaching them
        via node-shifts.
        """
        if host in self.brokers:
            assignment = {
                w: b for w, b in self.assignment.items() if b != host
            }
            return Topology(self.n_hosts, self.brokers - {host}, assignment)
        if host in self.assignment:
            assignment = dict(self.assignment)
            del assignment[host]
            return Topology(self.n_hosts, self.brokers, assignment)
        return self

    def attach_worker(self, host: int, broker: int) -> "Topology":
        """Attach unattached ``host`` as a worker of ``broker``."""
        if host in self.attached:
            raise ValueError(f"host {host} is already attached")
        assignment = dict(self.assignment)
        assignment[host] = broker
        return Topology(self.n_hosts, self.brokers, assignment)

    def promote(self, worker: int) -> "Topology":
        """Make ``worker`` (or an unattached host) a broker."""
        if worker in self.brokers:
            raise ValueError(f"host {worker} is already a broker")
        assignment = dict(self.assignment)
        assignment.pop(worker, None)
        return Topology(self.n_hosts, self.brokers | {worker}, assignment)

    def demote(self, broker: int, new_broker: int) -> "Topology":
        """Turn ``broker`` into a worker of ``new_broker``.

        The demoted broker's workers move to ``new_broker`` as well
        (the broker-to-worker counterpart of a Type-2 shift).
        """
        if broker not in self.brokers:
            raise KeyError(f"host {broker} is not a broker")
        if new_broker not in self.brokers or new_broker == broker:
            raise ValueError("new_broker must be a different current broker")
        assignment = {
            w: (new_broker if b == broker else b)
            for w, b in self.assignment.items()
        }
        assignment[broker] = new_broker
        return Topology(self.n_hosts, self.brokers - {broker}, assignment)

    def reassign(self, worker: int, broker: int) -> "Topology":
        """Move an existing worker under a different broker."""
        if worker not in self.assignment:
            raise KeyError(f"host {worker} is not a worker")
        assignment = dict(self.assignment)
        assignment[worker] = broker
        return Topology(self.n_hosts, self.brokers, assignment)

    # ------------------------------------------------------------------
    # Graph exports
    # ------------------------------------------------------------------
    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 adjacency over all ``n_hosts`` nodes.

        Workers link to their broker; brokers form a clique (brokers are
        interconnected and share data, §III-A).  Unattached hosts are
        isolated, which the graph-attention encoder handles through
        self-loops.
        """
        adjacency = np.zeros((self.n_hosts, self.n_hosts))
        brokers = sorted(self.brokers)
        for i, a in enumerate(brokers):
            for b in brokers[i + 1:]:
                adjacency[a, b] = adjacency[b, a] = 1.0
        for worker, broker in self.assignment.items():
            adjacency[worker, broker] = adjacency[broker, worker] = 1.0
        return adjacency

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_key(self) -> tuple:
        """Hashable identity used by the tabu list."""
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topology) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        leis = {b: self.lei(b) for b in sorted(self.brokers)}
        return f"Topology(brokers={sorted(self.brokers)}, leis={leis})"


def initial_topology(n_hosts: int, n_leis: int) -> Topology:
    """The paper's starting topology (§IV-C).

    The first ``n_leis`` hosts (8 GB nodes) are brokers; remaining hosts
    are distributed symmetrically across the LEIs.
    """
    if n_leis < 1 or n_leis > n_hosts // 2:
        raise ValueError(f"cannot build {n_leis} LEIs from {n_hosts} hosts")
    brokers = list(range(n_leis))
    assignment = {
        host: brokers[(host - n_leis) % n_leis]
        for host in range(n_leis, n_hosts)
    }
    return Topology(n_hosts, brokers, assignment)
