"""The chaos-inject control plane behind ``POST /inject``.

The status endpoint makes a running fleet *observable*; this module
makes it *perturbable*, following the chaos-engine pattern of timed
perturbations posted to a live observe endpoint.  Operators (and the
CI chaos smoke) can exercise exactly the failure paths the elastic
fleet is built to absorb:

* ``kill_worker`` -- tear down a worker's socket server-side.  The
  reader thread sees EOF, the service marks the worker lost, its
  leased cells are revoked and re-queued.  Without an explicit
  ``client_id`` the currently lease-holding worker is targeted (the
  interesting victim -- killing an idle worker proves nothing).
* ``delay_client`` -- add ``seconds`` of latency to every reply sent
  to a client (``seconds: 0`` clears it).  An explicit ``client_id``
  is accepted before that client connects, so a delay can be in place
  from a worker's first reply on.
* ``requeue_cell`` -- revoke a leased cell without blaming the worker,
  making the old lease-holder a zombie whose late result must be
  deduplicated.

Every injection is appended to a bounded in-memory log (surfaced in
``/status`` under ``fleet.injections``) and counted in the
``fleet.injections`` telemetry counter; the perturbations themselves
land in the fleet counters (``fleet.workers_lost``,
``fleet.cells_requeued``, ...) like organically occurring faults.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from .. import telemetry as _telemetry

_INJECTIONS = _telemetry.counter("fleet.injections")

#: Keep the last N injections in the /status view.
_LOG_LIMIT = 100

ACTIONS = ("kill_worker", "delay_client", "requeue_cell")


class ChaosControl:
    """Dispatch ``/inject`` actions against a running fleet."""

    def __init__(self, service, transport) -> None:
        self.service = service
        self.coordinator = service.coordinator
        self.transport = transport
        self._lock = threading.Lock()
        self.injections: List[dict] = []

    # ------------------------------------------------------------------
    def inject(self, action: str, params: Optional[dict] = None) -> dict:
        """Apply one injection; raises ``ValueError`` on bad requests."""
        params = dict(params or {})
        if action not in ACTIONS:
            raise ValueError(
                f"unknown inject action {action!r}; supported: {ACTIONS}"
            )
        result = getattr(self, f"_{action}")(params)
        entry = {"action": action, **result}
        with self._lock:
            self.injections.append(entry)
            del self.injections[:-_LOG_LIMIT]
        _INJECTIONS.inc()
        return entry

    def log(self) -> List[dict]:
        with self._lock:
            return list(self.injections)

    # ------------------------------------------------------------------
    def _target_client(self, params: dict) -> int:
        if "client_id" in params:
            return int(params["client_id"])
        leased = self.coordinator.leased_workers()
        if not leased:
            raise ValueError(
                "no client_id given and no worker currently holds a lease"
            )
        return leased[0]

    def _kill_worker(self, params: dict) -> dict:
        client_id = self._target_client(params)
        if client_id not in self.transport._sockets:
            raise ValueError(f"client {client_id} has no open connection")
        self.transport.close_client(client_id)
        return {"client_id": client_id}

    def _delay_client(self, params: dict) -> dict:
        client_id = self._target_client(params)
        seconds = float(params.get("seconds", 1.0))
        self.service.inject_delay(client_id, seconds)
        return {"client_id": client_id, "seconds": seconds}

    def _requeue_cell(self, params: dict) -> dict:
        if "cell_id" in params:
            cell_id = int(params["cell_id"])
        else:
            leases = sorted(self.coordinator.lease_view())
            if not leases:
                raise ValueError("no cell_id given and no cell is leased")
            cell_id = leases[0]
        if not self.coordinator.requeue_cell(cell_id):
            raise ValueError(f"cell {cell_id} is not currently leased")
        return {"cell_id": cell_id}
