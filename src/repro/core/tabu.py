"""Tabu search over the topology space (§III-B).

The paper selects tabu search for its deterministic behaviour and fast
empirical convergence on this problem, with a fixed-size tabu list
(size 100 after the grid search of §V-E, Fig. 6c).  The search
minimises the surrogate objective ``Omega(G; D, S_t, O)``.

The objective interface is *batched*: each iteration hands the whole
deduplicated, non-tabu neighbourhood to the objective in one call
(``objective(candidates: list[Topology]) -> list[float]``), so a GON
surrogate can score all candidates in a single vectorized eq.-1 ascent
(see :func:`repro.core.surrogate.generate_metrics_batch`).  Plain per-
candidate callables (``Topology -> float``) are detected and adapted
automatically, preserving the classic interface.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .. import telemetry as _telemetry
from ..simulator.topology import Topology

__all__ = ["TabuResult", "tabu_search", "batched_objective", "as_batched"]

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


def batched_objective(fn: Callable[[Sequence[Topology]], List[float]]):
    """Mark ``fn`` as consuming candidate *lists* (the native interface).

    Use as a decorator on objectives that score ``list[Topology] ->
    list[float]`` in one pass; unmarked callables are treated as scalar
    ``Topology -> float`` objectives and wrapped per candidate.

    A batched objective may additionally accept a ``keys`` keyword --
    the candidates' pre-computed ``canonical_key()`` tuples, in order.
    :func:`tabu_search` already derives these for its tabu/duplicate
    bookkeeping, so key-aware objectives (e.g. CAROL's cached surrogate
    scorer) never hash a topology twice.
    """
    fn.is_batched = True
    return fn


def _accepts_keys(fn) -> bool:
    """Whether a batched objective takes the ``keys=`` keyword."""
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return False
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    ):
        return True
    keys = parameters.get("keys")
    return keys is not None and keys.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )


def as_batched(objective) -> Callable[..., List[float]]:
    """Return a batch-callable ``(candidates, keys=None)`` view.

    Batched objectives (marked via :func:`batched_objective` or any
    callable with a truthy ``is_batched`` attribute) pass through --
    wrapped to swallow ``keys`` unless their signature accepts it;
    scalar objectives are adapted with a per-candidate loop.
    """
    if getattr(objective, "is_batched", False):
        if _accepts_keys(objective):
            return objective
        return lambda candidates, keys=None: objective(candidates)
    return lambda candidates, keys=None: [
        float(objective(c)) for c in candidates
    ]


@_SEARCH_SPAN
def tabu_search(
    initial: Topology,
    objective,
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
    insertion *and* the objective call: key-aware batched objectives
    receive the surviving keys via ``keys=`` so cache lookups never
    re-derive them.  Duplicate-key candidates are removed from the
    neighbourhood before scoring.

    Parameters
    ----------
    objective:
        Either a batched ``list[Topology] -> list[float]`` callable
        (marked with :func:`batched_objective`) or a scalar
        ``Topology -> float`` callable.
    tabu_size:
        Maximum entries in the FIFO tabu list ``L`` (paper: 100).
    """
    if tabu_size < 1:
        raise ValueError("tabu_size must be >= 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    score_batch = as_batched(objective)
    initial_key = initial.canonical_key()
    tabu: "OrderedDict[tuple, None]" = OrderedDict()
    tabu[initial_key] = None

    current = initial
    best = initial
    best_key = initial_key
    best_score = float(score_batch([initial], keys=[initial_key])[0])
    current_score = best_score
    evaluations = 1
    stale = 0
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        candidates: List[Topology] = []
        keys: List[tuple] = []
        seen: set = set()
        for neighbour in neighbourhood(current):
            key = neighbour.canonical_key()
            if key in tabu or key in seen:
                continue
            seen.add(key)
            candidates.append(neighbour)
            keys.append(key)
        if not candidates:
            break

        scores = [float(s) for s in score_batch(candidates, keys=keys)]
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
