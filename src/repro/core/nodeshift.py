"""Node-shift operations over topologies (§III-B, Fig. 1).

When a broker fails its workers are *orphaned*; three worker-to-broker
shift types repair the LEI:

* **Type 1** -- two orphans are promoted to brokers and the remaining
  orphans split evenly between them (broker count +1);
* **Type 2** -- all orphans are handed to an existing broker (broker
  count -1);
* **Type 3** -- one orphan is promoted to manage the rest (broker
  count unchanged).

Their broker-to-worker counterparts (merging an existing LEI into
another, splitting an existing LEI by promoting one of its workers) and
single-worker reassignments form the local-search neighbourhood used by
tabu search.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..simulator.topology import Topology

__all__ = [
    "repair_options",
    "neighbours",
    "random_node_shift",
    "shift_type_1",
    "shift_type_2",
    "shift_type_3",
]


def _distribute(
    topology: Topology, orphans: Sequence[int], brokers: Sequence[int]
) -> Topology:
    """Round-robin ``orphans`` across ``brokers``."""
    result = topology
    for i, orphan in enumerate(sorted(orphans)):
        result = result.attach_worker(orphan, brokers[i % len(brokers)])
    return result


def shift_type_1(topology: Topology, orphans: Sequence[int]) -> List[Topology]:
    """Type-1 shifts: every orphan pair promoted, rest split evenly."""
    orphans = sorted(orphans)
    if len(orphans) < 2:
        return []
    results = []
    for i, first in enumerate(orphans):
        for second in orphans[i + 1:]:
            promoted = topology.promote(first).promote(second)
            rest = [o for o in orphans if o not in (first, second)]
            results.append(_distribute(promoted, rest, [first, second]))
    return results


def shift_type_2(topology: Topology, orphans: Sequence[int]) -> List[Topology]:
    """Type-2 shifts: all orphans assigned to one existing broker."""
    orphans = sorted(orphans)
    if not orphans:
        return []
    results = []
    for broker in sorted(topology.brokers):
        results.append(_distribute(topology, orphans, [broker]))
    return results


def shift_type_3(topology: Topology, orphans: Sequence[int]) -> List[Topology]:
    """Type-3 shifts: one orphan promoted to broker the others."""
    orphans = sorted(orphans)
    if not orphans:
        return []
    results = []
    for candidate in orphans:
        promoted = topology.promote(candidate)
        rest = [o for o in orphans if o != candidate]
        results.append(_distribute(promoted, rest, [candidate]))
    return results


def repair_options(
    topology_after_failure: Topology,
    orphans: Sequence[int],
) -> List[Topology]:
    """The neighbourhood ``N(G, b)`` for a failed broker ``b``.

    ``topology_after_failure`` must already have the failed broker
    detached; ``orphans`` are its live former workers.  Every returned
    topology re-attaches all orphans.
    """
    live_orphans = [o for o in orphans if o not in topology_after_failure.attached]
    options: List[Topology] = []
    options.extend(shift_type_1(topology_after_failure, live_orphans))
    options.extend(shift_type_2(topology_after_failure, live_orphans))
    options.extend(shift_type_3(topology_after_failure, live_orphans))
    # Deduplicate (types can coincide for tiny orphan sets).
    unique = {}
    for option in options:
        unique[option.canonical_key()] = option
    return list(unique.values())


def neighbours(topology: Topology, max_lei_size: int | None = None) -> List[Topology]:
    """Single node-shift neighbourhood of an intact topology.

    Contains, for each applicable host:

    * broker-to-worker merges (demote a broker into a peer);
    * worker-to-broker splits (promote a worker and hand it half of its
      LEI);
    * single-worker reassignments between brokers.
    """
    results: List[Topology] = []
    brokers = sorted(topology.brokers)

    # Broker-to-worker: merge one LEI into another.
    if len(brokers) >= 2:
        for broker in brokers:
            for target in brokers:
                if broker == target:
                    continue
                results.append(topology.demote(broker, target))

    # Worker-to-broker: split an LEI at one of its workers, which
    # becomes the broker of every other of the LEI's remaining workers.
    # One construction per option: the assignment a promote followed
    # by one reassign per mover would leave, in the same key order.
    for broker in brokers:
        lei = topology.lei(broker)
        if len(lei) < 2:
            continue
        for worker in lei:
            assignment = dict(topology.assignment)
            del assignment[worker]
            for mover in [w for w in lei if w != worker][:: 2]:
                assignment[mover] = worker
            results.append(
                Topology(topology.n_hosts, topology.brokers | {worker},
                         assignment)
            )

    # Worker reassignment: move one worker to a different broker.
    for worker in topology.workers:
        current = topology.assignment[worker]
        for target in brokers:
            if target == current:
                continue
            results.append(topology.reassign(worker, target))

    if max_lei_size is not None:
        results = [
            t for t in results
            if max(t.lei_sizes().values(), default=0) <= max_lei_size
        ]

    unique = {}
    for result in results:
        unique[result.canonical_key()] = result
    unique.pop(topology.canonical_key(), None)
    return list(unique.values())


def reassignment_neighbours(topology: Topology) -> List[Topology]:
    """Worker-reassignment moves only (no broker count change).

    The cheap maintenance subset of the neighbourhood: used by CAROL's
    per-interval topology upkeep (Alg. 2 line 4; §V-C "allowing
    node-shift at each interval"), where promotions/demotions would pay
    container-restart overheads not justified without a failure.
    """
    results: List[Topology] = []
    brokers = sorted(topology.brokers)
    for worker in topology.workers:
        current = topology.assignment[worker]
        for target in brokers:
            if target != current:
                results.append(topology.reassign(worker, target))
    return results


def random_node_shift(
    topology: Topology, rng: np.random.Generator
) -> Topology:
    """A uniformly random neighbour (Alg. 2 line 7, and trace collection).

    Returns the input topology unchanged when no shift is applicable
    (e.g. a single broker with a single worker).
    """
    options = neighbours(topology)
    if not options:
        return topology
    return options[int(rng.integers(len(options)))]
