"""The fleet scoring service: queue -> one GON kernel call per request.

Many lightweight simulation workers feed one scorer::

    worker 0 ──┐                              ┌─> reply queue 0
    worker 1 ──┤   requests    ┌───────────┐  ├─> reply queue 1
       ...     ├─────────────> │  scorer   │──┤      ...
    worker N ──┘  (one queue)  │  loop     │  └─> reply queue N
                               └───────────┘
                 drain what is already queued,
                 one kernel ascent per request,
                 replies routed by client id

Each request carries a whole candidate stack (a tabu neighbourhood's
cache misses).  The scorer blocks only while its queue is empty: once a
message is in hand it takes whatever else is already queued, without
waiting for more (bounded by ``_MAX_BATCH_ELEMENTS`` so latency stays
bounded), and answers every request with its own kernel call on the
published weights; two requests are never merged.  Requests that
arrive while a batch is being scored form the next batch.

Ascents run through the same production path as in-process scoring:
:func:`repro.core.surrogate.generate_metrics_batch` on a
:class:`~repro.core.fastscore.FastGONKernel` cached per published
weight set.  Only generation-0 ascents cross the wire: confidence
reads, and every ascent after a replica's first fine-tune, run in
:class:`FleetScorer` on the worker's own replica.

Replies are keyed by ``(client, request)``; within a request, results
are positional in the submitted stack.  Each request's stack runs as
its own kernel call, cut into the segments the request carries, so
every segment is scored exactly as an in-process scorer would score
it, which keeps fleet campaign records bit-identical to serial
execution.  Merging stacks is exact only through segments: a gemm's
rows can change in the last ulp with the number of rows it multiplies
(BLAS edge kernels), so an unsegmented concatenation of requests would
not be bitwise.  Requests from different clients are not merged.

Deferred lease grants
---------------------
A :class:`LeaseRequest` that finds the cell queue empty while cells
are still leased elsewhere is *parked*, not answered: the worker stays
blocked on its reply and never sleeps or polls.  After every step of
the serve loop the service asks the coordinator again for each parked
request, oldest first, so the request is answered by the event that
resolves it -- a cell re-queued (a worker lost, a worker signing off
with a lease, an operator's :meth:`GONScoringService.requeue_cell`)
or the grid draining (``drained=True`` with the poisoned cells).
``requeue_cell`` runs on the HTTP status thread and enqueues a
:class:`CellRequeued` notice, so the serve loop wakes at once instead
of at its next idle poll.  A lost or signed-off client's parked
request is dropped, and deferred grants go out through the same reply
path as any other reply, injected delays included.
"""

from __future__ import annotations

import heapq
import itertools
import queue as queue_module
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..core.features import GONInput
from ..core.gon import GONDiscriminator
from ..core.fastscore import FastGONKernel
from ..core.scoring import LocalScorer, sample_confidence
from ..core.surrogate import SurrogateResult, generate_metrics_batch
from ..core.training import TrainingConfig, fine_tune
from ..telemetry import SIZE_EDGES, merge_snapshots

__all__ = [
    "AscentRequest",
    "ClientDone",
    "StatsUpdate",
    "LeaseRequest",
    "LeaseGrant",
    "CellDone",
    "Ping",
    "WorkerLost",
    "CellRequeued",
    "ServiceStats",
    "GONScoringService",
    "ScoringClient",
    "FleetScorer",
]

# Scorer-loop telemetry (process registry).  The classic
# :class:`ServiceStats` dataclass remains the stable legacy view; the
# registry mirrors it so the merged fleet snapshot (``/status``,
# ``--record-json``) carries the same counters under ``service.*``.
_DRAIN_SPAN = _telemetry.span("service.drain")
_DISPATCH_SPAN = _telemetry.span("service.dispatch")
_REQUESTS = _telemetry.counter("service.requests")
_ELEMENTS = _telemetry.counter("service.elements")
_BATCHES = _telemetry.counter("service.batches")
_STATS_UPDATES = _telemetry.counter("service.stats_updates")
_BATCH_ELEMENTS = _telemetry.histogram("service.batch_elements", SIZE_EDGES)

# Elastic-fleet liveness telemetry (see the coordinator module for the
# lease-queue counters ``fleet.leases`` / ``fleet.cells_requeued`` /
# ``fleet.cells_poisoned`` / ``fleet.duplicate_completions``).
_WORKERS_LOST = _telemetry.counter("fleet.workers_lost")
_HEARTBEAT_AGE = _telemetry.gauge("fleet.heartbeat_age_max_seconds")

#: Seconds the scorer loop blocks on an empty queue before it runs its
#: liveness and abort checks.
_POLL_SECONDS = 0.5
#: Stop taking already-queued messages once this many stacked elements
#: are pending (keeps worst-case latency and peak memory bounded).
_MAX_BATCH_ELEMENTS = 512


@dataclass(frozen=True)
class AscentRequest:
    """One batched eq.-1 ascent over a ``[B, n, F]`` candidate stack."""

    client_id: int
    request_id: int
    model_key: str
    metrics: np.ndarray      # [B, n, n_m_features] warm starts
    schedules: np.ndarray    # [B, n, n_s_features]
    adjacencies: np.ndarray  # [B, n, n]
    gamma: float
    max_steps: int
    #: Sizes of the stack's segments, each scored as a call of its own
    #: (see :func:`~repro.core.surrogate.generate_metrics_batch`);
    #: empty is one segment.
    segments: Tuple[int, ...] = ()

    @property
    def n_elements(self) -> int:
        # Read before the request is validated: a stack without a
        # leading axis counts as empty, and _run_ascent rejects it.
        shape = np.shape(self.metrics)
        return int(shape[0]) if shape else 0


@dataclass(frozen=True)
class ClientDone:
    """A worker signing off; the service exits once every client has."""

    client_id: int


@dataclass(frozen=True)
class StatsUpdate:
    """A worker shipping its telemetry snapshot (the STATS frame).

    ``snapshot`` is a :meth:`repro.telemetry.MetricsRegistry.snapshot`
    plain dict (JSON-safe, rides in the wire frame's header).  Workers
    ship one after every completed cell; the service keeps the *latest*
    snapshot per client (snapshots are cumulative) and merges them with
    its own registry into the fleet-wide view behind ``/status`` --
    see :meth:`GONScoringService.merged_telemetry`.  Fire-and-forget,
    never counts toward ``_MAX_BATCH_ELEMENTS``, and carries no arrays.
    """

    client_id: int
    snapshot: Dict[str, dict]

    n_elements: int = 0


@dataclass(frozen=True)
class LeaseRequest:
    """A worker asking the coordinator for its next campaign cell."""

    client_id: int
    request_id: int

    n_elements: int = 0


@dataclass(frozen=True)
class LeaseGrant:
    """The coordinator's answer to a :class:`LeaseRequest`.

    ``cell_id >= 0`` grants that cell (``attempt`` is 1-based; > 1
    means a retry after a revoked lease).  ``drained=True`` (with
    ``cell_id < 0``) ends the worker's campaign: every cell is either
    completed or quarantined -- the ``poisoned`` tuple reports the
    quarantined cell ids so workers can surface them to the campaign
    parent.  There is no third answer: a request that finds no free
    cell is answered late, once a cell is re-queued or the grid
    drains, so ``cell_id < 0`` without ``drained`` is a protocol
    violation.
    """

    request_id: int
    cell_id: int
    attempt: int = 0
    drained: bool = False
    poisoned: Tuple[int, ...] = ()

    n_elements: int = 0


@dataclass(frozen=True)
class CellDone:
    """Fire-and-forget: a worker reporting its leased cell finished.

    The record itself rides the campaign results queue (it never
    touches the scoring wire); this frame only settles the lease.
    """

    client_id: int
    cell_id: int

    n_elements: int = 0


@dataclass(frozen=True)
class Ping:
    """Worker heartbeat: refreshes last-seen, otherwise a no-op.

    Sent from a worker-side daemon thread between cells so that a
    worker deep in a long simulation still proves liveness.  Pings do
    **not** count as transport activity for ``--max-idle`` purposes --
    a fleet that only ever pings is idle.
    """

    client_id: int

    n_elements: int = 0


@dataclass(frozen=True)
class WorkerLost:
    """Service-internal notice that a client died before signing off.

    Enqueued by the transport layer (TCP reader threads on EOF) --
    never sent by workers and never crosses the wire.  The service
    revokes the dead client's leases; the message is idempotent and
    ignored for clients that already signed off.
    """

    client_id: int
    reason: str = ""

    n_elements: int = 0


@dataclass(frozen=True)
class CellRequeued:
    """Service-internal wake-up: an operator re-queued a leased cell.

    Enqueued by :meth:`GONScoringService.requeue_cell` from the thread
    that re-queued the cell, so the serve loop answers a parked
    :class:`LeaseRequest` at once.  Never sent by workers and never
    crosses the wire.
    """

    n_elements: int = 0


@dataclass(frozen=True)
class AscentReply:
    """The ``M*`` stack of one request, in submitted order.

    Every element ran the request's ``max_steps`` and none converged
    early, so the client fills those result fields itself.
    """

    request_id: int
    metrics: np.ndarray      # [B, n, F] M* stack


@dataclass
class ServiceStats:
    """Scorer-side counters (read after :meth:`serve` returns).

    Fixed-size by design: ``/status`` serialises it on every poll.  The
    per-batch size distribution lives in the ``service.batch_elements``
    histogram.
    """

    n_requests: int = 0
    n_elements: int = 0
    n_batches: int = 0


class GONScoringService:
    """Single-process scorer answering a fleet's GON evaluations.

    Parameters
    ----------
    models:
        ``model_key -> GONDiscriminator`` -- one resident replica per
        published weight set (fleet campaigns use one per scenario).
    request_queue / reply_queues:
        Any queue objects with the stdlib ``get(timeout)/get_nowait/put``
        surface (a :class:`~repro.serving.TcpTransport`'s endpoints
        across processes, ``queue.Queue`` in-process for tests).
    coordinator:
        The :class:`~repro.serving.coordinator.CellCoordinator` holding
        the campaign's lease queue; the service serves until it is
        drained.
    heartbeat_timeout:
        Seconds without any frame from a client before it is declared
        dead and its leases are revoked; 0 disables the timeout (EOF
        notices still apply).
    """

    def __init__(
        self,
        models: Dict[str, GONDiscriminator],
        request_queue,
        reply_queues: Dict[int, object],
        coordinator,
        heartbeat_timeout: float = 30.0,
    ) -> None:
        self.models = models
        self.request_queue = request_queue
        self.reply_queues = reply_queues
        self.coordinator = coordinator
        #: ``model_key -> FastGONKernel``, exported once per published
        #: weight set.
        self._kernels: Dict[str, FastGONKernel] = {}
        self.stats = ServiceStats()
        #: Latest :class:`StatsUpdate` snapshot per client, guarded for
        #: the status-endpoint thread (see :meth:`merged_telemetry`).
        self.worker_snapshots: Dict[int, dict] = {}
        self._stats_lock = threading.Lock()
        #: Clients that have signed off so far (live progress view).
        self.signed_off: set = set()
        self.heartbeat_timeout = float(heartbeat_timeout)
        #: Clients declared dead (heartbeat timeout, EOF notice, or
        #: reply-delivery failure).  Their leases were revoked and
        #: their later messages are dropped.
        self.lost: set = set()
        #: ``client_id -> monotonic`` of the last frame seen.
        self._last_seen: Dict[int, float] = {}
        #: Optional hook called with a client id when the service marks
        #: it lost -- fleets wire this to ``TcpTransport.close_client``
        #: so a wedged-but-connected socket is actively torn down.
        self.on_worker_lost: Optional[Callable[[int], None]] = None
        #: Chaos injection state (``POST /inject``): per-client reply
        #: delay in seconds.
        self.reply_delays: Dict[int, float] = {}
        #: Delayed replies waiting for their due time: a heap of
        #: ``(due monotonic, sequence, client_id, reply)`` that the
        #: serve loop drains, so one delayed client holds up no other.
        self._delayed: List[tuple] = []
        self._delayed_seq = itertools.count()
        #: Lease requests the queue could not fill yet, by client, in
        #: arrival order (see "Deferred lease grants" above).
        self._parked_leases: Dict[int, LeaseRequest] = {}

    # ------------------------------------------------------------------
    def merged_telemetry(self) -> dict:
        """Fleet-wide snapshot: this process's registry + every worker.

        Associative/commutative merge (counters sum, histograms add
        bucket-wise), so the result is independent of worker arrival
        order.  Safe to call from another thread mid-:meth:`serve`.
        """
        with self._stats_lock:
            snaps = list(self.worker_snapshots.values())
        return merge_snapshots(_telemetry.snapshot(), *snaps)

    # ------------------------------------------------------------------
    def serve(self, abort: Optional[Callable[[], bool]] = None) -> ServiceStats:
        """Score until the campaign is over.

        Exit once the cell queue is drained *and* every client ever
        seen has either signed off or been declared lost -- membership
        is open, deaths revoke leases instead of aborting.

        ``abort`` is polled while the queue is idle; returning True
        raises (used to detect a fully dead fleet instead of hanging).

        The loop blocks only while the queue is empty, and no longer
        than the next delayed reply's due time.  Once a message is in
        hand it takes whatever else is already queued, up to
        ``_MAX_BATCH_ELEMENTS``, and dispatches at once.  Every step
        ends with the liveness check and a new try at the parked lease
        requests, since either may have freed a cell or drained the
        grid.
        """
        while not self._serve_complete():
            timeout = self._deliver_due_replies()
            try:
                message = self.request_queue.get(timeout=timeout)
            except queue_module.Empty:
                self._check_liveness()
                self._grant_parked_leases()
                if abort is not None and abort():
                    raise RuntimeError(
                        "scoring service aborted: worker died before "
                        "signing off"
                    )
                continue
            pending = [message]
            with _DRAIN_SPAN.time():
                while self._pending_elements(pending) < _MAX_BATCH_ELEMENTS:
                    try:
                        pending.append(self.request_queue.get_nowait())
                    except queue_module.Empty:
                        break
            self.signed_off.update(self._dispatch(pending))
            self._check_liveness()
            self._grant_parked_leases()
        return self.stats

    def _serve_complete(self) -> bool:
        unresolved = set(self._last_seen) - self.signed_off - self.lost
        return self.coordinator.finished and not unresolved

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _note_alive(self, client_id: int) -> None:
        self._last_seen[client_id] = time.monotonic()

    def _check_liveness(self) -> None:
        """Declare clients dead after ``heartbeat_timeout`` of silence."""
        now = time.monotonic()
        max_age = 0.0
        for client_id, last in list(self._last_seen.items()):
            if client_id in self.signed_off or client_id in self.lost:
                continue
            age = now - last
            max_age = max(max_age, age)
            if self.heartbeat_timeout > 0 and age > self.heartbeat_timeout:
                self._mark_lost(
                    client_id, f"no heartbeat for {age:.1f}s"
                )
        _HEARTBEAT_AGE.set(max_age)

    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each live client's last frame (status view)."""
        now = time.monotonic()
        return {
            client_id: now - last
            for client_id, last in self._last_seen.items()
            if client_id not in self.signed_off and client_id not in self.lost
        }

    def _mark_lost(self, client_id: int, reason: str = "") -> None:
        """Revoke a dead client's leases and drop its parked lease
        request.

        Idempotent, and a no-op for clients that already signed off
        (their work is settled; a late death notice carries no news).
        """
        if client_id in self.lost or client_id in self.signed_off:
            return
        self.lost.add(client_id)
        _WORKERS_LOST.inc()
        self._parked_leases.pop(client_id, None)
        requeued, poisoned = self.coordinator.release_worker(client_id)
        detail = f"worker {client_id} lost ({reason or 'unknown'})"
        if requeued:
            detail += f"; re-queued cells {requeued}"
        if poisoned:
            detail += f"; quarantined poisoned cells {poisoned}"
        print(f"[repro.serving] {detail}", file=sys.stderr)
        if self.on_worker_lost is not None:
            try:
                self.on_worker_lost(client_id)
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Chaos injection (POST /inject)
    # ------------------------------------------------------------------
    def inject_delay(self, client_id: int, seconds: float) -> None:
        """Delay every future reply to ``client_id`` by ``seconds``."""
        if seconds <= 0:
            self.reply_delays.pop(int(client_id), None)
        else:
            self.reply_delays[int(client_id)] = float(seconds)

    def requeue_cell(self, cell_id: int) -> bool:
        """Operator re-queue of a leased cell; safe from any thread.

        Revokes the lease without charging a failure
        (:meth:`~repro.serving.coordinator.CellCoordinator.requeue_cell`)
        and wakes the serve loop, so a parked lease request takes the
        cell at once.  Returns False when the cell was not leased.
        """
        if not self.coordinator.requeue_cell(cell_id):
            return False
        self.request_queue.put(CellRequeued())
        return True

    @staticmethod
    def _pending_elements(pending: Sequence) -> int:
        return sum(getattr(m, "n_elements", 0) for m in pending)

    def _kernel_for(self, model_key: str) -> FastGONKernel:
        """The cached kernel of one published weight set."""
        kernel = self._kernels.get(model_key)
        if kernel is None:
            kernel = FastGONKernel.from_model(self.models[model_key])
            self._kernels[model_key] = kernel
        return kernel

    # ------------------------------------------------------------------
    def _dispatch(self, pending: Sequence) -> set:
        """Apply the drained messages, score, reply; returns sign-offs."""
        signed_off: set = set()
        requests: list = []
        for message in pending:
            if isinstance(message, WorkerLost):
                self._mark_lost(message.client_id, message.reason)
                continue
            if isinstance(message, CellRequeued):
                continue  # the serve loop grants parked leases next
            client_id = getattr(message, "client_id", None)
            if client_id is not None:
                if client_id in self.lost:
                    # Ghost traffic from a client already declared
                    # dead (its leases were revoked); dropping it keeps
                    # revoked-and-rerun cells single-sourced.
                    continue
                self._note_alive(client_id)
            if isinstance(message, ClientDone):
                signed_off.add(message.client_id)
                self._parked_leases.pop(message.client_id, None)
                # Signing off while still holding a lease means the
                # worker errored mid-cell and cleaned up on the way out
                # -- treat the lease like a death so the cell is
                # re-queued instead of deadlocking the drain.
                self.coordinator.release_worker(message.client_id)
                continue
            if isinstance(message, LeaseRequest):
                self._grant_lease(message)
                continue
            if isinstance(message, CellDone):
                self.coordinator.complete(message.cell_id, message.client_id)
                continue
            if isinstance(message, Ping):
                continue
            if isinstance(message, StatsUpdate):
                with self._stats_lock:
                    self.worker_snapshots[message.client_id] = message.snapshot
                _STATS_UPDATES.inc()
                continue
            requests.append(message)
            self.stats.n_requests += 1
            self.stats.n_elements += message.n_elements
            _REQUESTS.inc()
            _ELEMENTS.add(message.n_elements)

        with _DISPATCH_SPAN.time():
            for request in requests:
                self._run_ascent(request)
        return signed_off

    def _grant_lease(self, request: LeaseRequest) -> None:
        """Answer a lease request now, or park it until a cell frees."""
        if not self._try_grant(request):
            self._parked_leases[request.client_id] = request

    def _grant_parked_leases(self) -> None:
        """Answer the parked lease requests the queue can fill now.

        Oldest first; the first request left waiting means the queue
        is empty, so the ones behind it stay parked too.
        """
        for client_id, request in list(self._parked_leases.items()):
            if not self._try_grant(request):
                return
            self._parked_leases.pop(client_id, None)

    def _try_grant(self, request: LeaseRequest) -> bool:
        """Send the grant that resolves ``request``; False to wait."""
        cell_id, attempt, drained = self.coordinator.lease(request.client_id)
        if drained:
            grant = LeaseGrant(
                request_id=request.request_id,
                cell_id=-1,
                drained=True,
                poisoned=tuple(sorted(self.coordinator.poisoned)),
            )
        elif cell_id is None:
            return False
        else:
            grant = LeaseGrant(
                request_id=request.request_id,
                cell_id=int(cell_id),
                attempt=int(attempt),
            )
        self._send_reply(request.client_id, grant)
        return True

    def _send_reply(self, client_id: int, reply) -> None:
        """Deliver one reply, or hold it if the client is delayed.

        A delayed reply waits in the due-time heap that :meth:`serve`
        drains; the scorer keeps serving every other client meanwhile.
        """
        delay = self.reply_delays.get(client_id, 0.0)
        if delay > 0:
            heapq.heappush(self._delayed, (
                time.monotonic() + delay, next(self._delayed_seq),
                client_id, reply,
            ))
            return
        self._deliver(client_id, reply)

    def _deliver_due_replies(self) -> float:
        """Send every delayed reply now due; return the next wait.

        The wait is ``_POLL_SECONDS``, or less when a held reply
        falls due sooner.
        """
        while self._delayed:
            due, _, client_id, reply = self._delayed[0]
            wait = due - time.monotonic()
            if wait > 0:
                return min(_POLL_SECONDS, wait)
            heapq.heappop(self._delayed)
            self._deliver(client_id, reply)
        return _POLL_SECONDS

    def _deliver(self, client_id: int, reply) -> None:
        """Put one reply on its client's channel.

        A failed send means the client is gone: it is marked lost
        (revoking its leases) and the service keeps running for the
        rest of the fleet.
        """
        try:
            self.reply_queues[client_id].put(reply)
        except Exception as error:
            self._mark_lost(client_id, f"reply delivery failed: {error}")

    def _run_ascent(self, request: AscentRequest) -> None:
        """One kernel ascent over one request's stack.

        A request that cannot be scored (an unknown model key,
        segments that do not cover the stack, a bad gamma, misshapen
        arrays or an empty stack) is its client's fault: the client is
        marked lost, so its leases are requeued or poisoned, and the
        service keeps scoring for the rest of the fleet.
        """
        self.stats.n_batches += 1
        _BATCHES.inc()
        _BATCH_ELEMENTS.observe(request.n_elements)
        try:
            results = generate_metrics_batch(
                self._kernel_for(request.model_key),
                request.schedules,
                request.adjacencies,
                init_metrics=request.metrics,
                gamma=request.gamma,
                max_steps=request.max_steps,
                segments=request.segments,
            )
            reply = AscentReply(
                request_id=request.request_id,
                metrics=np.stack([r.metrics for r in results]),
            )
        except (KeyError, TypeError, ValueError) as error:
            self._mark_lost(
                request.client_id,
                f"malformed ascent request {request.request_id}: "
                f"{type(error).__name__}: {error}",
            )
            return
        self._send_reply(request.client_id, reply)


class ScoringClient:
    """Worker-side stub: submit stacks, block for the keyed reply.

    Every ascent scores on the published weights of ``model_key``.
    """

    def __init__(self, client_id: int, model_key: str,
                 request_queue, reply_queue) -> None:
        self.client_id = client_id
        self.model_key = model_key
        self.request_queue = request_queue
        self.reply_queue = reply_queue
        self._next_request = 0

    _ROUND_TRIP_SPAN = _telemetry.span("client.round_trip")

    def _round_trip(self, request):
        # The span covers submit -> keyed reply: the worker-side view
        # of service queue wait plus scoring time.
        with self._ROUND_TRIP_SPAN.time():
            self.request_queue.put(request)
            reply = self.reply_queue.get()
        if reply.request_id != request.request_id:  # pragma: no cover
            raise RuntimeError(
                f"reply {reply.request_id} for request "
                f"{request.request_id}: client protocol violated"
            )
        return reply

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
        segments: Sequence[int] = (),
    ) -> List[SurrogateResult]:
        self._next_request += 1
        reply = self._round_trip(AscentRequest(
            client_id=self.client_id,
            request_id=self._next_request,
            model_key=self.model_key,
            metrics=np.asarray(metrics, dtype=float),
            schedules=np.asarray(schedules, dtype=float),
            adjacencies=np.asarray(adjacencies, dtype=float),
            gamma=gamma,
            max_steps=max_steps,
            segments=tuple(int(size) for size in segments),
        ))
        return [
            SurrogateResult(metrics=row, n_steps=max_steps, converged=False)
            for row in reply.metrics
        ]

    def close(self) -> None:
        """Sign off; the service exits once every client has."""
        self.request_queue.put(ClientDone(self.client_id))


class FleetScorer(LocalScorer):
    """CAROL scorer that shares the service's weights until it diverges.

    Implements the :class:`repro.core.scoring.SurrogateScorer` surface
    on the kernel :class:`~repro.core.scoring.LocalScorer` exports from
    this worker's replica:

    * **ascent** -- at generation 0 forwarded to the service, which
      scores on the published shared weights; after the first
      fine-tune run on this replica's own kernel, so no request
      crosses the wire;
    * **confidence** -- always local, one kernel forward (cheaper than
      a round trip and bitwise-identical to in-process execution);
    * **fine_tune** -- copy-on-write divergence: the read-only shared
      parameters are materialised into private writable arrays before
      the first fine-tune, which then runs locally.

    The three methods are defined here rather than inherited so that
    each runs as one call of its own (``perfbench/tracer.py`` times
    them per class).
    """

    def __init__(self, client: ScoringClient, model: GONDiscriminator) -> None:
        super().__init__(model)
        self.client = client

    def ascent(
        self,
        metrics: np.ndarray,
        schedules: np.ndarray,
        adjacencies: np.ndarray,
        gamma: float,
        max_steps: int,
        segments: Sequence[int] = (),
    ) -> List[SurrogateResult]:
        if self.generation:
            return super().ascent(
                metrics, schedules, adjacencies, gamma, max_steps, segments
            )
        return self.client.ascent(
            metrics, schedules, adjacencies, gamma, max_steps, segments
        )

    def confidence(self, sample: GONInput) -> float:
        return sample_confidence(self.kernel(), sample)

    def fine_tune(
        self,
        samples: Sequence[GONInput],
        config: Optional[TrainingConfig],
        iterations: int,
        rng: np.random.Generator,
    ) -> float:
        if self.generation == 0:
            # Copy-on-write: shared views are read-only by design.
            for parameter in self.model.parameters():
                parameter.data = np.array(parameter.data)
        loss = fine_tune(
            self.model,
            list(samples),
            config=config,
            iterations=iterations,
            rng=rng,
        )
        self.generation += 1
        return loss
