"""``repro.serving`` -- fleet-scale GON scoring infrastructure.

Turns a campaign from "N processes x 1 surrogate each" into "N
lightweight simulation workers feeding one batched GON scorer", the
consolidation that sharing one inference stream across federations
buys.  Workers and service talk over TCP only, on one machine or many.
The request path::

        ┌───────────────────────── serving process ─────────────────────────┐
        │  TcpTransport: GON weights + trace stacks packed once, served to  │
        │      each worker on request; one reader thread per client socket  │
        │  GONScoringService: drain the queue -> one kernel                 │
        │      generate_metrics_batch per request -> reply (M* only)        │
        └──────────▲──────────────────────────────┬─────────────────────────┘
          requests │ (frames, one FIFO)           │ replies (per-client socket)
        ┌──────────┴────────────┐     ┌───────────▼─────────────┐
        │ worker k: simulation  │     │ FleetScorer: ascents    │
        │ + CAROL decision loop │ ──> │ remote at every         │
        │ (fetched weights)     │     │ generation via overlays │
        └───────────────────────┘     └─────────────────────────┘

* :mod:`repro.serving.shared` -- the worker-side asset fetch: each
  packed buffer crosses the socket once per process and is viewed
  read-only, zero-copy;
* :mod:`repro.serving.service` -- the scorer loop, the
  worker-side :class:`ScoringClient`, and :class:`FleetScorer`, the
  ``repro.core.scoring.SurrogateScorer`` backend CAROL mounts in
  fleet campaigns (see :mod:`repro.experiments.fleet`).

The invariants this docstring states in protocol terms -- bit-identity
with serial execution, the overlay/generation rules, the lease/poison
lifecycle, and the cell-id/config-hash scheme that lets a
:mod:`repro.storage` store pre-complete the coordinator on resume --
are collected with their soundness arguments in
``docs/architecture.md``.

The overlay protocol
--------------------
CAROL fine-tunes its GON whenever the POT confidence gate opens, and a
fine-tuned replica no longer matches the fleet's published weights.
The :class:`FleetScorer` then ships its packed post-fine-tune state
(``nn/serialization.pack_state``) to the service as an
:class:`OverlayUpdate`; the service installs it as a *copy-on-write
per-client weight overlay* and keeps answering that client's ascents
from the consolidated batched stream.  Three invariants make this
safe and exact:

1. **Ordering** -- overlay installs and scoring requests share one
   FIFO request queue and clients are synchronous, so an install
   always lands before the first request at its generation and no
   request can observe a stale replica.
2. **Isolation** -- kernels are keyed by ``(generation, owner)``:
   generation-0 requests from any client share the base model, while
   generation > 0 weights are private to the owning client -- two
   clients at different generations, or two diverged clients at the
   same generation, never share a replica or a kernel.
3. **Bit-identity** -- ``pack_state``/``unpack_state`` roundtrips are
   bit-exact and the service runs the same ``generate_metrics_batch``
   on identical stack shapes, so overlay-scored fleet records remain
   bit-identical to serial execution even after fine-tuning; the
   contract `tests/test_fleet.py::TestOverlayLifecycle` asserts.

Overlays are evicted when their owning client signs off
(:class:`ClientDone`).  Every fine-tune ships one overlay, so a fleet
record's ``diagnostics["overlay_installs"]`` equals its
``n_fine_tunes``.

The transport and the wire format
--------------------------------
The service is transport-agnostic in code: it drains one FIFO with the
stdlib ``get(timeout)`` surface and replies through per-client ``put``
endpoints (in-process ``queue.Queue`` objects in unit tests, which
drive the same lease protocol).
Campaigns reach it through :mod:`repro.serving.transports`:
:class:`TcpTransport` on the service side and :class:`TcpWorkerChannel`
on the worker side, so one service can host workers from many machines
(``python -m repro serve`` + ``python -m repro campaign --connect``),
or a ``--fleet`` campaign can self-host it on an ephemeral localhost
port.

The TCP wire format (:mod:`repro.serving.wire`) is pickle-free
length-prefixed binary framing::

    frame := MAGIC(4) | type(1) | header_len(u32) | body_len(u32)
             | header(JSON scalars + array manifest)
             | body(pack_state buffer: raw array bytes)

and it carries the service's protocol dataclasses
(:class:`AscentRequest`, :class:`OverlayUpdate`, the lease frames,
:class:`ClientDone`, the replies) plus a handshake (HELLO/WELCOME
assigns client ids in handshake order) and an asset channel (workers fetch each scenario's packed weights and trace
stacks once, cached per process -- see
:func:`~repro.serving.shared.fetch_array_pack`).

Transport guarantees, in the same spirit as the overlay invariants:

1. **Ordering** -- each client's socket is read by one dedicated
   reader thread feeding the service's single FIFO, so a client's
   messages enter the queue in send order and install-before-score
   survives the network hop.  Cross-client interleaving is unordered
   and harmless: generation > 0 overlays are private per client.
2. **Bit-identity** -- float64 payloads cross the wire as raw packed
   bytes (no text round-trip), so a TCP fleet campaign on localhost
   produces records bit-identical to serial execution, overlays
   included (asserted by ``tests/test_fleet.py::TestTcpFleetCampaign``).
3. **No hangs, and one client's fault stays its own** -- a client
   that sends a malformed or truncated frame, spoofs another id, asks
   for an unknown asset pack or disconnects before
   :class:`ClientDone` is dropped and reported as a
   :class:`WorkerLost` (its leases are re-queued); a failed handshake
   is closed and counted (``fleet.handshake_rejections``).  A fault of
   the scorer loop itself, such as a stale-generation request, raises
   out of ``serve()``, and
   :func:`~repro.serving.transports.serve_transport` broadcasts it to
   every connected client before re-raising, so blocked workers raise
   instead of waiting forever.  Frame sizes are bounded, so a corrupt
   length prefix cannot trigger unbounded allocation.  Codes are
   pinned per message; wire protocol 3 retired the confidence frames
   (codes 9 and 13), protocol 4 added ``AscentRequest.segments``,
   protocol 5 cut ``AscentReply`` to its ``M*`` stack and protocol 6
   answers a ``LeaseRequest`` late instead of with "poll again".

The elastic fleet protocol
--------------------------
Fleet campaigns are no longer pre-sharded batch jobs: the service side
holds the whole ``(scenario, model, seed)`` grid as a lease-based cell
queue (:class:`CellCoordinator`) and workers *pull* work::

    worker                        service (coordinator attached)
    ──────                        ──────────────────────────────
    LeaseRequest(request_id) ──>  lease next queued cell
                             <──  LeaseGrant(cell_id, attempt)
    ... run the cell, ship the record on the results path ...
    CellDone(cell_id)        ──>  mark completed (first-wins)
    LeaseRequest             ──>  no free cell: park the request
                                  (fleet.lease_waits) until a cell is
                                  re-queued or the grid drains
                             <──  LeaseGrant(drained=True, poisoned=(...))
    ClientDone               ──>  sign off

Because every cell derives its RNG streams from its own
``SeedSequence.spawn`` child, *which* worker runs a cell -- or how
many times it is retried -- never changes the record; that is what
makes the elasticity below safe:

1. **Liveness** -- workers ping (:class:`Ping`, a daemon heartbeat
   thread) so the service can tell "busy in a long numpy cell" from
   "dead".  A client whose last frame is older than
   ``heartbeat_timeout`` -- or whose socket reader hits EOF -- is
   declared lost
   (``fleet.workers_lost``); Pings deliberately do not count as
   ``--max-idle`` transport activity.
2. **Re-queue with a bounded budget** -- a lost worker's leased cells
   go back to the *front* of the queue (``fleet.cells_requeued``); a
   cell that has killed ``cell_retry_budget`` distinct attempts is
   quarantined as *poisoned* (``fleet.cells_poisoned``) and reported
   in the drained grant instead of sinking the campaign.  Duplicate
   results from zombie workers (a revoked lease finishing anyway) are
   deduplicated first-wins (``fleet.duplicate_completions`` service
   side, ``fleet.duplicate_records`` at collection).
3. **Elastic membership** -- :class:`TcpTransport` keeps accepting
   for its whole lifetime (HELLO/WELCOME assigns ids in
   handshake order), so late workers join a running campaign and start
   leasing immediately; the campaign ends when the queue is drained
   and every registered worker has signed off or been declared lost.
4. **Authentication** -- ``serve --auth-token`` (or
   ``REPRO_FLEET_TOKEN``) sets a pre-shared token carried in the
   ``Hello`` frame; mismatches are loudly rejected *before* Welcome
   (``fleet.auth_rejections``) and the token never enters record
   dumps.
5. **Chaos control plane** -- ``POST /inject`` on the status server
   (:class:`ChaosControl`) perturbs a live fleet (``kill_worker``,
   ``delay_client``, ``requeue_cell``) through exactly the code paths
   organic faults take; injections land in the ``fleet.*`` counters
   and the ``/status`` ``fleet`` section.

Telemetry: STATS frames and the status endpoint
-----------------------------------------------
Every layer of this subsystem is instrumented against the process-wide
:mod:`repro.telemetry` registry (``service.*`` batching counters and
spans, ``wire.*`` frame/byte counters, ``client.round_trip`` latency).
Three pieces tie the distributed picture together:

* **STATS frames** -- after each completed cell a fleet worker ships a
  :class:`StatsUpdate` carrying its registry snapshot (cumulative
  since worker start, JSON-safe by construction; it rides in the frame
  header, no packed body).  The service keeps the *latest* snapshot
  per client -- snapshots are cumulative, so replacement (never
  summation) is the correct merge for a live view.
* **merged view** -- :meth:`GONScoringService.merged_telemetry` folds
  the service-process registry and every worker's latest snapshot into
  one fleet-wide snapshot with
  :func:`repro.telemetry.merge_snapshots`; snapshot reads are
  lock-protected, so the merge is safe mid-``serve()``.
* **status endpoint** -- ``python -m repro serve --status-port N``
  binds :class:`StatusServer` (stdlib ``http.server``, daemon thread,
  read-only) next to the scoring socket.  ``GET /status`` answers one
  JSON object: connected/peak/expected/signed-off workers, cells
  started/completed/in-flight (derived from the merged
  ``campaign.cells_*`` counters), the legacy :class:`ServiceStats`
  view, and the full merged telemetry.  ``GET /metrics`` renders the
  same snapshot in the Prometheus text exposition format
  (``# HELP``/``# TYPE`` metadata, ``le``-labelled histogram buckets)
  for stock scrape jobs.

Telemetry is strictly observational and always on: snapshots never
feed back into scoring, and wall-clock only ever appears in telemetry
(never in record rows).
"""

from .chaos import ChaosControl
from .coordinator import CellCoordinator
from .service import (
    AscentRequest,
    CellDone,
    ClientDone,
    FleetScorer,
    GONScoringService,
    LeaseGrant,
    LeaseRequest,
    OverlayUpdate,
    Ping,
    ScoringClient,
    ServiceStats,
    StatsUpdate,
    WorkerLost,
)
from .status import StatusServer
from .shared import fetch_array_pack
from .transports import (
    TcpTransport,
    TcpWorkerChannel,
    TransportError,
    parse_address,
    serve_transport,
)

__all__ = [
    "AscentRequest",
    "CellCoordinator",
    "CellDone",
    "ChaosControl",
    "ClientDone",
    "FleetScorer",
    "GONScoringService",
    "LeaseGrant",
    "LeaseRequest",
    "OverlayUpdate",
    "Ping",
    "ScoringClient",
    "ServiceStats",
    "StatsUpdate",
    "StatusServer",
    "WorkerLost",
    "fetch_array_pack",
    "TcpTransport",
    "TcpWorkerChannel",
    "TransportError",
    "parse_address",
    "serve_transport",
]
