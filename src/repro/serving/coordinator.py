"""Lease-based streamed cell queue for elastic fleet campaigns.

The coordinator replaces pre-sharding: instead of handing worker ``k``
the fixed slice ``tasks[k::n_workers]``, the campaign grid lives here
as a FIFO of cell ids (task ``run_index`` values) and workers *pull*
work one lease at a time.  Because every cell is seeded from its own
``SeedSequence.spawn`` child, any worker can run any cell -- in any
order, any number of times -- and the records stay bit-identical to
serial execution, which is exactly what makes work stealing and
re-queue after a worker death safe.

State machine per cell::

    pending --lease--> leased --complete--> completed     (terminal)
       ^                  |
       |                  +--revoke (worker died / operator requeue)
       +------------------+
                          |
                          +--> poisoned   (terminal; failures reached
                                           the retry budget)

* ``lease(worker_id)`` hands out the next pending cell, or reports
  "wait" (queue empty but leases outstanding) or "drained" (every cell
  completed or poisoned -- the worker should sign off).  A worker told
  to wait is *parked* (``status()["waiting"]``, counted once per
  parked request in ``fleet.lease_waits``) until a later ``lease``
  grants or drains it or ``release_worker`` forgets it; the scoring
  service holds its request and asks again whenever a cell is
  re-queued or the grid drains.
* ``complete(cell_id, worker_id)`` is idempotent and first-wins: a
  zombie worker whose lease was revoked may still deliver its result;
  the duplicate is counted, never double-stored.  A completion beats a
  poison verdict -- a record in hand un-poisons the cell.
* ``release_worker(worker_id)`` revokes every lease the dead worker
  held.  Each revocation counts as one failure for the cell; a cell
  whose failures reach ``retry_budget`` (i.e. it killed that many
  workers) is quarantined as *poisoned* and reported instead of being
  retried forever -- graceful degradation instead of livelock.
* ``requeue_cell(cell_id)`` is the operator/chaos path: revoke the
  lease without blaming the worker (no failure charged) and put the
  cell back in the queue.

All operations are thread-safe: the scoring service calls in from its
serve loop while ``/status`` and ``POST /inject`` read and perturb
from the HTTP thread.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import telemetry as _telemetry

_LEASES = _telemetry.counter("fleet.leases")
_REQUEUED = _telemetry.counter("fleet.cells_requeued")
_POISONED = _telemetry.counter("fleet.cells_poisoned")
_DUPLICATES = _telemetry.counter("fleet.duplicate_completions")
#: Lease requests that found the queue empty but the grid not drained
#: and were parked until a re-queue or the drain answered them.
_LEASE_WAITS = _telemetry.counter("fleet.lease_waits")
#: Cells pre-completed from a campaign store instead of leased out --
#: same counter name the campaign parent uses for records it restores.
_RESUMED = _telemetry.counter("fleet.cells_resumed")


class CellCoordinator:
    """Thread-safe lease queue over a campaign's cell ids.

    Cell ids are campaign task ``run_index`` values -- the integer face
    of the canonical cell id ``(config_hash, scenario, model,
    seed_index)``: :func:`repro.experiments.campaign.plan_tasks`
    enumerates the grid in fixed order, so within one campaign the two
    forms are interchangeable (``repro.storage`` keys by the tuple,
    the wire protocol and this queue move the integer).

    ``completed`` pre-completes cells at construction -- the resume
    path of a store-backed ``python -m repro serve``: cells whose
    records the :class:`~repro.storage.CampaignStore` already holds
    are born completed (owner ``-1``, nobody ran them), never enter
    the pending queue, and are counted in ``fleet.cells_resumed``.
    """

    def __init__(
        self,
        cell_ids: Iterable[int],
        retry_budget: int = 3,
        completed: Iterable[int] = (),
    ):
        cells = [int(cell) for cell in cell_ids]
        if len(set(cells)) != len(cells):
            raise ValueError("cell ids must be unique")
        if retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1, got {retry_budget}")
        resumed = sorted({int(cell) for cell in completed})
        unknown = [cell for cell in resumed if cell not in set(cells)]
        if unknown:
            raise ValueError(
                f"pre-completed cells {unknown} are not in the campaign "
                "grid; the store and the config disagree"
            )
        self.retry_budget = int(retry_budget)
        self._lock = threading.RLock()
        self._all: Tuple[int, ...] = tuple(cells)
        self._pending: deque = deque(
            cell for cell in cells if cell not in set(resumed)
        )
        self._leases: Dict[int, int] = {}  # cell_id -> worker_id
        self._attempts: Dict[int, int] = {cell: 0 for cell in cells}
        self._failures: Dict[int, int] = {cell: 0 for cell in cells}
        self._by_worker: Dict[int, Set[int]] = {}
        #: Workers parked on an empty queue (see :meth:`lease`).
        self._waiting: Set[int] = set()
        #: cell_id -> worker_id (first wins; -1 = restored from a store)
        self.completed: Dict[int, int] = {cell: -1 for cell in resumed}
        #: Cells that were pre-completed at construction (resume view).
        self.resumed: Tuple[int, ...] = tuple(resumed)
        self.poisoned: Set[int] = set()
        self.requeued_total = 0
        self.duplicate_completions = 0
        if resumed:
            _RESUMED.inc(len(resumed))

    # ------------------------------------------------------------------
    # Worker-facing operations
    # ------------------------------------------------------------------
    def lease(self, worker_id: int) -> Tuple[Optional[int], int, bool]:
        """Grant the next cell to ``worker_id``.

        Returns ``(cell_id, attempt, drained)``: a real cell id with its
        1-based attempt number, ``(None, 0, True)`` when the grid is
        fully drained and the worker should sign off, or ``(None, 0,
        False)`` when no cell is free yet.  That last answer parks the
        worker: its caller holds the request and asks again once a
        cell is re-queued or the grid drains, which a later call
        answers.
        """
        worker = int(worker_id)
        with self._lock:
            if self.finished:
                self._waiting.discard(worker)
                return None, 0, True
            if not self._pending:
                if worker not in self._waiting:
                    self._waiting.add(worker)
                    _LEASE_WAITS.inc()
                return None, 0, False
            self._waiting.discard(worker)
            cell = self._pending.popleft()
            self._attempts[cell] += 1
            self._leases[cell] = worker
            self._by_worker.setdefault(worker, set()).add(cell)
            _LEASES.inc()
            return cell, self._attempts[cell], False

    def complete(self, cell_id: int, worker_id: int) -> bool:
        """Record a finished cell; returns False for duplicates/unknowns."""
        cell = int(cell_id)
        with self._lock:
            if cell not in self._attempts:
                return False
            if cell in self.completed:
                self.duplicate_completions += 1
                _DUPLICATES.inc()
                return False
            self.completed[cell] = int(worker_id)
            # A delivered record always beats a poison verdict, and any
            # other lease on this cell becomes a harmless zombie.
            self.poisoned.discard(cell)
            owner = self._leases.pop(cell, None)
            if owner is not None:
                self._by_worker.get(owner, set()).discard(cell)
            try:
                self._pending.remove(cell)
            except ValueError:
                pass
            return True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def release_worker(self, worker_id: int) -> Tuple[List[int], List[int]]:
        """Revoke every lease held by a dead worker.

        Each revoked cell is charged one failure and either re-queued
        (front of the queue, so retries happen promptly) or poisoned
        once its failures reach the retry budget.  A parked worker is
        no longer waiting.  Returns the ``(requeued, poisoned)``
        cell-id lists.
        """
        requeued: List[int] = []
        poisoned: List[int] = []
        with self._lock:
            self._waiting.discard(int(worker_id))
            cells = sorted(self._by_worker.pop(int(worker_id), set()))
            for cell in cells:
                if self._leases.get(cell) != int(worker_id):
                    continue
                del self._leases[cell]
                self._failures[cell] += 1
                if self._failures[cell] >= self.retry_budget:
                    self.poisoned.add(cell)
                    poisoned.append(cell)
                    _POISONED.inc()
                else:
                    self._pending.appendleft(cell)
                    requeued.append(cell)
                    self.requeued_total += 1
                    _REQUEUED.inc()
        return requeued, poisoned

    def requeue_cell(self, cell_id: int) -> bool:
        """Operator/chaos re-queue: revoke the lease, charge no failure.

        While a scoring service is serving, call
        :meth:`~repro.serving.GONScoringService.requeue_cell` instead:
        it also wakes the serve loop, so a parked lease request takes
        the cell at once.
        """
        cell = int(cell_id)
        with self._lock:
            owner = self._leases.pop(cell, None)
            if owner is None:
                return False
            self._by_worker.get(owner, set()).discard(cell)
            self._pending.append(cell)
            self.requeued_total += 1
            _REQUEUED.inc()
            return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every cell is completed or quarantined."""
        with self._lock:
            return len(self.completed) + len(self.poisoned) >= len(self._all)

    def lease_view(self) -> Dict[int, Dict[str, int]]:
        with self._lock:
            return {
                cell: {"worker": worker, "attempt": self._attempts[cell]}
                for cell, worker in self._leases.items()
            }

    def leased_workers(self) -> List[int]:
        """Worker ids currently holding at least one lease."""
        with self._lock:
            return sorted({worker for worker in self._leases.values()})

    def status(self) -> dict:
        """JSON-safe snapshot for ``/status``."""
        with self._lock:
            return {
                "total": len(self._all),
                "pending": len(self._pending),
                "leased": len(self._leases),
                "completed": len(self.completed),
                "waiting": len(self._waiting),
                "leases": {
                    str(cell): {"worker": worker, "attempt": self._attempts[cell]}
                    for cell, worker in sorted(self._leases.items())
                },
                "poisoned": sorted(self.poisoned),
                "cells_resumed": len(self.resumed),
                "cells_requeued": self.requeued_total,
                "cells_poisoned": len(self.poisoned),
                "duplicate_completions": self.duplicate_completions,
                "retry_budget": self.retry_budget,
            }
