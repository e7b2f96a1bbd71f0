"""Failure drill: the Fig. 1 node-shift story, step by step.

Builds the paper's 16-node / 4-LEI topology, kills a broker and shows
every repair family -- Type 1 (higher broker count), Type 2 (lower) and
Type 3 (same) -- with an ASCII rendering of each resulting topology,
then lets tabu search pick among them with a synthetic balance
objective.

Run with:  python examples/failure_drill.py
"""

import numpy as np

from repro import telemetry
from repro.core import (
    neighbours,
    repair_options,
    shift_type_1,
    shift_type_2,
    shift_type_3,
    tabu_search,
)
from repro.simulator import Topology, initial_topology


def render(topology: Topology, title: str) -> None:
    print(f"  {title}")
    for broker in sorted(topology.brokers):
        lei = topology.lei(broker)
        workers = " ".join(f"w{w}" for w in lei) or "(no workers)"
        print(f"    B{broker} -- {workers}")
    if topology.unattached:
        print(f"    unattached: {topology.unattached}")
    print()


def balance_objective(candidates, keys, segments) -> list:
    """Synthetic objective: prefer evenly-sized LEIs, mildly prefer
    fewer brokers (management cost).  Each candidate scores alone, so
    every group of ``segments`` does too."""
    return [
        float(np.var(list(topology.lei_sizes().values())))
        + 0.1 * len(topology.brokers)
        for topology in candidates
    ]


def main() -> None:
    topology = initial_topology(16, 4)
    print("== initial topology (paper testbed shape: 16 hosts, 4 LEIs) ==")
    render(topology, "G_t-1")

    failed = 1
    orphans = list(topology.lei(failed))
    stripped = topology.detach(failed)
    print(f"== broker B{failed} fails; workers {orphans} are orphaned ==\n")

    print("== Type 1: two orphans promoted, broker count +1 ==")
    render(shift_type_1(stripped, orphans)[0], "one Type-1 option")

    print("== Type 2: orphans merged into an existing broker, count -1 ==")
    render(shift_type_2(stripped, orphans)[0], "one Type-2 option")

    print("== Type 3: one orphan promoted, count unchanged ==")
    render(shift_type_3(stripped, orphans)[0], "one Type-3 option")

    options = repair_options(stripped, orphans)
    print(f"full repair neighbourhood N(G, b): {len(options)} topologies\n")

    print("== tabu search over the neighbourhood (balance objective) ==")
    result = tabu_search(
        options[0],
        objective=balance_objective,
        neighbourhood=neighbours,
        tabu_size=100,
        max_iterations=10,
    )
    print(
        f"  evaluated {result.n_evaluations} candidates over "
        f"{result.n_iterations} iterations; best score {result.best_score:.3f}"
    )
    render(result.best, "repaired topology G_t")

    # The search above ran against the instrumented tabu module: the
    # process-wide registry already holds its counters and timing span.
    print(telemetry.render_summary(
        telemetry.snapshot(), title="-- drill telemetry --"
    ))


if __name__ == "__main__":
    main()
