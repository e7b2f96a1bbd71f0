"""Tabu search over the topology space (§III-B).

The paper selects tabu search for its deterministic behaviour and fast
empirical convergence on this problem, with a fixed-size tabu list
(size 100 after the grid search of §V-E, Fig. 6c).  The search
minimises the surrogate objective ``Omega(G; D, S_t, O)``.

The objective is *batched*: each iteration hands the whole
deduplicated, non-tabu neighbourhood to the objective in one call,
``objective(candidates, keys, segments) -> list[float]``, so a GON
surrogate can score all candidates in a single vectorized eq.-1 ascent
(see :func:`repro.core.surrogate.generate_metrics_batch`).  ``keys``
are the candidates' ``canonical_key()`` tuples, which the search
derives anyway.  ``segments`` are the sizes of the groups the
candidates fall into: the start and the first neighbourhood go out in
one call as two groups, and an objective must score each group exactly
as a call of its own would.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .. import telemetry as _telemetry
from ..simulator.topology import Topology

__all__ = ["TabuResult", "tabu_search"]

_SEARCH_SPAN = _telemetry.span("tabu.search")
_SEARCHES = _telemetry.counter("tabu.searches")
_ITERATIONS = _telemetry.counter("tabu.iterations")
_EVALUATIONS = _telemetry.counter("tabu.evaluations")


@dataclass(frozen=True)
class TabuResult:
    """Outcome of one tabu-search run."""

    best: Topology
    best_score: float
    n_evaluations: int
    n_iterations: int
    #: ``best.canonical_key()``, computed during the search -- callers
    #: that key caches on canonical keys reuse it instead of re-deriving.
    best_key: Optional[tuple] = None


@_SEARCH_SPAN
def tabu_search(
    initial: Topology,
    objective: Callable[
        [List[Topology], List[tuple], Tuple[int, ...]], Sequence[float]
    ],
    neighbourhood: Callable[[Topology], List[Topology]],
    tabu_size: int = 100,
    max_iterations: int = 20,
    patience: int = 4,
) -> TabuResult:
    """Minimise ``objective`` by tabu-restricted local search.

    Classic best-improvement tabu search: each iteration scores all
    non-tabu neighbours of the current topology in one batched
    objective call, moves to the best one (even if worse -- that is
    what escapes local minima), marks it tabu and tracks the incumbent.
    Stops after ``max_iterations`` or ``patience`` consecutive
    non-improving moves.

    Each candidate's ``canonical_key()`` is computed once per iteration
    and reused for the tabu check, duplicate dropping, the tabu-list
    insertion *and* the objective call, so key-aware objectives (CAROL's
    cached surrogate scorer) never re-derive them.  Duplicate-key
    candidates are removed from the neighbourhood before scoring.

    The start is scored in the first iteration's call, as a group of
    its own ahead of the neighbourhood (``segments == (1, m)``).  Its
    key is tabu, so it never appears among the neighbours.

    Parameters
    ----------
    objective:
        ``objective(candidates, keys, segments) -> list[float]``: one
        score per candidate, given the candidates' canonical keys in
        order and the sizes of the groups they form; every group must
        score as it would in a call of its own.
    tabu_size:
        Maximum entries in the FIFO tabu list ``L`` (paper: 100).
    """
    if tabu_size < 1:
        raise ValueError("tabu_size must be >= 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    initial_key = initial.canonical_key()
    tabu: "OrderedDict[tuple, None]" = OrderedDict()
    tabu[initial_key] = None

    def fresh(topology: Topology) -> Tuple[List[Topology], List[tuple]]:
        """The non-tabu, deduplicated neighbours and their keys."""
        candidates: List[Topology] = []
        keys: List[tuple] = []
        seen: set = set()
        for neighbour in neighbourhood(topology):
            key = neighbour.canonical_key()
            if key in tabu or key in seen:
                continue
            seen.add(key)
            candidates.append(neighbour)
            keys.append(key)
        return candidates, keys

    # The start and the first neighbourhood, scored in one call.
    candidates, keys = fresh(initial)
    scores = [
        float(s)
        for s in objective(
            [initial, *candidates],
            [initial_key, *keys],
            (1, len(candidates)) if candidates else (1,),
        )
    ]
    current = initial
    best = initial
    best_key = initial_key
    best_score = scores.pop(0)
    current_score = best_score
    evaluations = 1
    stale = 0
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        if iterations > 1:
            candidates, keys = fresh(current)
            if candidates:
                scores = [
                    float(s)
                    for s in objective(candidates, keys, (len(candidates),))
                ]
        if not candidates:
            break

        evaluations += len(candidates)
        move = min(range(len(candidates)), key=scores.__getitem__)
        current_score, current = scores[move], candidates[move]

        tabu[keys[move]] = None
        while len(tabu) > tabu_size:
            tabu.popitem(last=False)

        if current_score < best_score:
            best, best_score, best_key = current, current_score, keys[move]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    _SEARCHES.inc()
    _ITERATIONS.add(iterations)
    _EVALUATIONS.add(evaluations)
    return TabuResult(
        best=best,
        best_score=best_score,
        n_evaluations=evaluations,
        n_iterations=iterations,
        best_key=best_key,
    )
