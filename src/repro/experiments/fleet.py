"""Fleet-mode campaign execution: an elastic, lease-based work queue.

The process-pool path runs ``N`` full replicas: every worker pickles
its own copy of the offline assets and executes its own GON inference
stream.  Fleet mode splits the run differently (see
:mod:`repro.serving` for the subsystem diagram):

* the serving side packs each scenario's trained GON weights and trace
  stacks *once* and serves them over TCP;
* ``N`` lightweight simulation workers connect, fetch those assets
  over the socket once per process, and run the discrete-interval
  loop;
* every CAROL-family surrogate ascent is submitted to the
  :class:`~repro.serving.GONScoringService`, which answers each
  request with one batched eq.-1 ascent on the scenario's resident
  weight replica.

Cells are no longer pre-sharded across workers.  The coordinator side
holds the whole ``(scenario, model, seed)`` grid as a lease-based
queue (:class:`~repro.serving.CellCoordinator`); every worker pulls
one cell at a time (``LeaseRequest`` -> ``LeaseGrant``), runs it,
ships the record, acknowledges with ``CellDone`` and pulls the next.
A request that finds every remaining cell leased elsewhere is answered
late, by the re-queue or the drain that resolves it, so an idle worker
blocks on its reply instead of sleeping and polling; a campaign ends
one event after its last cell.
Because :func:`campaign.run_cell` derives every RNG stream from the
cell's own ``SeedSequence.spawn`` child, *which worker* runs a cell --
or how often it is retried after a worker dies -- never changes the
record.  That independence is what makes work stealing, crash
re-queue and duplicate suppression safe:

* a worker that dies mid-cell (socket EOF or missed heartbeats) has
  its leases revoked and re-queued for the survivors;
* a cell that keeps killing workers exhausts its bounded retry budget
  and is quarantined as *poisoned* -- reported, not retried forever;
* late workers may join a running campaign (client ids go in
  handshake order) and immediately start pulling queued cells;
* duplicate records from zombie workers (a cell revoked and re-run
  elsewhere) are deduplicated first-wins on collection.

The traffic travels as length-prefixed binary frames over sockets
(:mod:`repro.serving.wire`), so workers may live on other machines.
Without ``CampaignConfig.service_addr`` the campaign hosts the service
itself on an ephemeral localhost port; with it, workers connect to an
externally hosted service (``python -m repro serve``) instead.

Record-level bit-identity with serial execution holds because (a) the
scored stacks are exactly the stacks an in-process scorer would run
(one kernel call per request, cut into the request's segments -- see
:mod:`repro.serving.service` for why an unsegmented concatenation
could not be bitwise), (b) workers keep
every RNG stream local, (c) a run whose POT gate opens fine-tunes a
private copy-on-write weight copy exactly as its serial twin would,
then scores its ascents on that copy's own kernel, as the serial twin
does, and (d) the wire moves float64 payloads as raw packed bytes,
never through text.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from itertools import count as _count
from multiprocessing.connection import wait as _wait_ready
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..baselines import AlwaysFineTune, NeverFineTune
from ..core import CAROL, GONDiscriminator, GONInput, ProactiveCAROL
from ..nn.serialization import pack_state, unpack_state
from ..serving import (
    ClientDone,
    FleetScorer,
    GONScoringService,
    ScoringClient,
    ServiceStats,
    StatsUpdate,
    StatusServer,
    TcpTransport,
    TcpWorkerChannel,
    fetch_array_pack,
    serve_transport,
)
from ..serving.chaos import ChaosControl
from ..serving.coordinator import CellCoordinator
from ..serving.service import CellDone, LeaseGrant, LeaseRequest, Ping
from ..telemetry import merge_snapshots
from .calibration import PROACTIVE_NAME, TrainedAssets, build_model
from .campaign import (
    RunRecord,
    RunTask,
    _CAROL_FAMILY,
    campaign_config_hash,
    campaign_grid_identity,
    cell_carol_config,
    plan_tasks,
    run_cell,
)

__all__ = ["run_fleet_campaign", "serve_fleet_service", "FleetChaosHandle"]

#: CAROL-family models whose generation-0 ascents route through the
#: service; after a cell's first POT-gated fine-tune its ascents run
#: on the worker's own replica.
_GON_CAROL_CLASSES = {
    "CAROL": CAROL,
    PROACTIVE_NAME: ProactiveCAROL,
    "CAROL-AlwaysFT": AlwaysFineTune,
    "CAROL-NeverFT": NeverFineTune,
}

#: Seconds to wait for a straggler record/worker before giving up.
_COLLECT_TIMEOUT = 120.0

#: Seconds of post-mortem queue drain once every worker has exited.
_DRAIN_GRACE_SECONDS = 10.0

#: Records arriving for a cell that already delivered (zombie workers
#: finishing a revoked lease) -- deduplicated first-wins on collection.
_DUPLICATE_RECORDS = _telemetry.counter("fleet.duplicate_records")


class _ResultPipe:
    """The workers' record channel to the campaign parent.

    Each worker writes to a pipe of its own (:meth:`writer`), whose
    ``send`` returns once the frame is in the pipe (a
    ``multiprocessing.Queue`` leaves it to a feeder thread, which a
    killed worker takes down with it).  No lock is shared between
    workers: a worker SIGKILLed while holding one would block every
    survivor's next record for good.  A killed worker's pipe, a
    partial last frame included, reads as EOF and is dropped.
    """

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._readers: List = []

    def writer(self):
        """The write end of a new worker's pipe.

        The caller closes its own copy once the worker has started, so
        the read end sees EOF when the worker exits.
        """
        reader, writer = self._ctx.Pipe(duplex=False)
        self._readers.append(reader)
        return writer

    def get(self, timeout: float):
        """The next frame of any worker, or ``queue.Empty`` after
        ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            for reader in _wait_ready(list(self._readers), remaining):
                try:
                    return reader.recv()
                except (EOFError, OSError):  # OSError: EOF mid-frame
                    self._readers.remove(reader)
                    reader.close()
            if time.monotonic() >= deadline:
                raise queue_module.Empty


@dataclass(frozen=True)
class _WorkerDone:
    """A worker's final frame on the results queue.

    Carries the registry delta for the campaign's merged telemetry
    (separate from the per-cell :class:`~repro.serving.StatsUpdate`
    frames, which feed the service's live ``/status`` view and never
    reach a remote campaign parent) plus the poisoned-cell ids the
    drained :class:`~repro.serving.LeaseGrant` reported, so even a
    parent without local coordinator access (``service_addr`` mode)
    learns which cells were quarantined.
    """

    worker_id: int
    snapshot: Dict[str, dict]
    poisoned: Tuple[int, ...] = ()


@dataclass
class FleetChaosHandle:
    """Live fleet internals handed to a ``chaos=`` hook.

    ``run_fleet_campaign(..., chaos=fn)`` runs ``fn(handle)`` on a
    daemon thread once the workers have started -- the failure-matrix
    tests use it to SIGKILL workers mid-cell, revoke leases, or spawn
    late joiners against a *real* running campaign.  ``coordinator``,
    ``service`` and ``transport`` are ``None`` when the scoring
    service is remote.
    """

    workers: List = field(default_factory=list)
    coordinator: Optional[CellCoordinator] = None
    service: Optional[GONScoringService] = None
    transport: Optional[TcpTransport] = None
    address: Optional[str] = None
    spawn_worker: Optional[Callable[[], object]] = None


def _trace_arrays(assets: TrainedAssets) -> Dict[str, np.ndarray]:
    """The offline trace as stacked arrays (the served layout)."""
    return {
        "metrics": np.stack([s.metrics for s in assets.samples]),
        "schedules": np.stack([s.schedule for s in assets.samples]),
        "adjacencies": np.stack([s.adjacency for s in assets.samples]),
        "objectives": np.asarray(assets.objectives, dtype=float),
    }


def _mount_gon(
    state: Dict[str, np.ndarray], hidden: int, layers: int, seed: int
) -> GONDiscriminator:
    """A GON whose parameters are zero-copy views of ``state``."""
    model = GONDiscriminator(
        np.random.default_rng(seed), hidden=hidden, n_layers=layers
    )
    model.load_state_dict(state, copy=False)
    return model


def _execute_fleet_run(
    task: RunTask,
    assets: Optional[TrainedAssets],
    client: ScoringClient,
) -> RunRecord:
    """One grid cell with service-routed GON scoring.

    Runs through the same :func:`campaign.run_cell` tail as every
    other mode; only the model factory differs -- GON-CAROL models
    mount the fetched weight views and a :class:`FleetScorer` instead
    of a private copy of the weights.
    """

    def build(config, _run_seed):
        model_class = _GON_CAROL_CLASSES.get(task.model)
        if model_class is None:
            return build_model(
                task.model, assets, config,
                carol_config=cell_carol_config(task, config),
            )
        if assets is None:
            raise RuntimeError(
                f"fleet run {task.model!r} needs published scenario assets"
            )
        gon = _mount_gon(
            assets.gon_state, assets.gon_hidden, assets.gon_layers,
            assets.seed,
        )
        return model_class(
            gon,
            config.alpha,
            config.beta,
            cell_carol_config(task, config),
            scorer=FleetScorer(client, gon),
        )

    return run_cell(task, build)


def _heartbeat_interval(heartbeat_timeout: float) -> float:
    """Worker ping cadence: several beats per liveness window."""
    if heartbeat_timeout > 0:
        return max(0.2, min(5.0, heartbeat_timeout / 4.0))
    return 5.0


def _start_heartbeat(
    client_id: int, put: Callable, interval: float
) -> threading.Event:
    """Send ``Ping`` frames on a daemon thread until the event is set.

    Pings prove the worker *process* is alive even while its main
    thread is deep in a long numpy cell; they deliberately do not
    count as transport activity (``--max-idle`` must still fire on a
    fleet that pings but never computes).
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                put(Ping(client_id))
            except Exception:
                return  # channel gone; the main thread will notice

    threading.Thread(
        target=beat, name=f"fleet-heartbeat-{client_id}", daemon=True
    ).start()
    return stop


def _run_lease_loop(
    channel: TcpWorkerChannel,
    tasks_by_cell: Dict[int, RunTask],
    assets_by_scenario: Dict[str, TrainedAssets],
    results,
    base: dict,
) -> Tuple[int, ...]:
    """Pull-run-acknowledge until the coordinator reports the grid drained.

    Each ``LeaseRequest`` blocks until the service can answer it: with
    a cell, or with the drain once every cell is completed or
    poisoned.  A worker asking while all remaining cells are leased
    elsewhere waits, without polling, for the event that frees one.
    Returns the poisoned cell ids the drained grant carried.  Raises
    on protocol violations (the reply to a ``LeaseRequest`` must be
    the matching ``LeaseGrant`` naming a cell or the drain -- anything
    else means the service and worker disagree about the conversation
    state).
    """
    client_id = channel.client_id
    request_ids = _count(1)
    while True:
        request_id = next(request_ids)
        channel.put(LeaseRequest(client_id=client_id, request_id=request_id))
        grant = channel.get()
        if not isinstance(grant, LeaseGrant) or grant.request_id != request_id:
            raise RuntimeError(
                f"worker {client_id} lease request {request_id} answered "
                f"with {type(grant).__name__}: fleet protocol violated"
            )
        if grant.drained:
            return tuple(int(cell) for cell in grant.poisoned)
        if grant.cell_id < 0:
            raise RuntimeError(
                f"worker {client_id} lease request {request_id} answered "
                "with no cell and no drain: fleet protocol violated"
            )
        task = tasks_by_cell[grant.cell_id]
        client = ScoringClient(client_id, task.scenario, channel, channel)
        record = _execute_fleet_run(
            task, assets_by_scenario.get(task.scenario), client
        )
        # The record is in the parent's pipe before CellDone settles
        # the cell, so no kill between the two can lose it.
        results.send(record)
        channel.put(CellDone(client_id=client_id, cell_id=grant.cell_id))
        # Cumulative-so-far snapshot for the service's live /status
        # view (latest per client replaces earlier ones).
        channel.put(StatsUpdate(client_id, _telemetry.delta(base)))


def _fetch_assets(
    channel: TcpWorkerChannel, tasks: Sequence[RunTask]
) -> Dict[str, TrainedAssets]:
    """Worker side: :class:`TrainedAssets` over fetched array views.

    Each scenario a CAROL-family cell needs is fetched once per
    process (:func:`repro.serving.fetch_array_pack` caches the packs);
    the rebuilt samples and weights are zero-copy views of the
    received buffers.
    """
    index = channel.fetch_index()
    assets_by_scenario: Dict[str, TrainedAssets] = {}
    needed = sorted(
        {task.scenario for task in tasks if task.model in _CAROL_FAMILY}
    )
    for scenario in needed:
        meta = index.get(scenario)
        if meta is None:
            continue
        weights = fetch_array_pack(channel, f"{scenario}/weights")
        trace = fetch_array_pack(channel, f"{scenario}/trace")
        assets_by_scenario[scenario] = TrainedAssets(
            trace=None,
            samples=[
                GONInput(metrics, schedule, adjacency)
                for metrics, schedule, adjacency in zip(
                    trace["metrics"], trace["schedules"], trace["adjacencies"]
                )
            ],
            objectives=[float(v) for v in trace["objectives"]],
            gon_state=weights,
            gon_hidden=int(meta["gon_hidden"]),
            gon_layers=int(meta["gon_layers"]),
            training_history=None,
            gan_seed=int(meta["gan_seed"]),
            seed=int(meta["seed"]),
        )
    return assets_by_scenario


def _worker_main(
    worker_id: int,
    tasks: Sequence[RunTask],
    address: str,
    results,
    heartbeat_interval: float = 5.0,
    auth_token: str = "",
) -> None:
    """Worker process: connect, fetch assets, lease cells, stream records.

    Every worker receives the *full* task list -- which cells it
    actually runs is decided lease by lease at runtime.  The client id
    is assigned by the service at handshake -- late joiners simply
    connect and start leasing; ``worker_id`` only names the local
    process.
    """
    channel = TcpWorkerChannel(address, auth_token=auth_token)
    # Everything below is reported relative to this base so the
    # fork-inherited parent registry state never double-counts.
    base = _telemetry.snapshot()
    stop_heartbeat = threading.Event()
    try:
        assets_by_scenario = _fetch_assets(channel, tasks)
        tasks_by_cell = {task.run_index: task for task in tasks}
        stop_heartbeat = _start_heartbeat(
            channel.client_id, channel.put, heartbeat_interval
        )
        poisoned = _run_lease_loop(
            channel, tasks_by_cell, assets_by_scenario, results, base
        )
        results.send(
            _WorkerDone(worker_id, _telemetry.delta(base), poisoned)
        )
    finally:
        # Sign off even on failure so the service can revoke this
        # worker's lease and hand the cell to a survivor.
        stop_heartbeat.set()
        try:
            channel.put(ClientDone(channel.client_id))
        except Exception:
            pass  # the socket is already gone; the service saw the EOF
        channel.close()


def _pack_campaign_assets(
    shared_assets: Dict[str, TrainedAssets],
) -> Tuple[Dict[str, tuple], Dict[str, Dict[str, int]], Dict[str, GONDiscriminator]]:
    """Pack every scenario's assets for TCP publication.

    Returns ``(asset_packs, asset_index, models)``: the named
    ``(buffer, manifest)`` packs the transport serves to remote
    workers, the scenario metadata index, and the service-side GON
    replicas mounted as zero-copy views over the very same buffers --
    the weights exist once in the serving process.
    """
    packs: Dict[str, tuple] = {}
    index: Dict[str, Dict[str, int]] = {}
    models: Dict[str, GONDiscriminator] = {}
    for scenario, assets in shared_assets.items():
        weight_buffer, weight_manifest = pack_state(assets.gon_state)
        packs[f"{scenario}/weights"] = (weight_buffer, weight_manifest)
        packs[f"{scenario}/trace"] = pack_state(_trace_arrays(assets))
        index[scenario] = {
            "gon_hidden": assets.gon_hidden,
            "gon_layers": assets.gon_layers,
            "seed": assets.seed,
            "gan_seed": assets.gan_seed,
        }
        models[scenario] = _mount_gon(
            unpack_state(weight_buffer, weight_manifest),
            assets.gon_hidden,
            assets.gon_layers,
            assets.seed,
        )
    return packs, index, models


def _host_service(
    config,
    tasks: Sequence[RunTask],
    shared_assets: Dict[str, TrainedAssets],
    completed: Sequence[int] = (),
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[TcpTransport, GONScoringService]:
    """Bind a fleet's transport and build its scoring service.

    The one construction path of both the self-hosted fleet and
    ``python -m repro serve``: a lease queue over ``tasks`` (with
    ``completed`` cells born done), the packed assets published on a
    started :class:`TcpTransport`, and a service on the transport's
    queues that tears down the socket of any worker it declares lost.
    The coordinator is ``service.coordinator``.
    """
    coordinator = CellCoordinator(
        [task.run_index for task in tasks],
        retry_budget=config.cell_retry_budget,
        completed=completed,
    )
    asset_packs, asset_index, models = _pack_campaign_assets(shared_assets)
    transport = TcpTransport(
        host=host,
        port=port,
        asset_packs=asset_packs,
        asset_index=asset_index,
        auth_token=config.auth_token,
    )
    transport.start()
    service = GONScoringService(
        models,
        transport.request_queue,
        transport.reply_queues,
        coordinator,
        heartbeat_timeout=config.heartbeat_timeout,
    )
    service.on_worker_lost = transport.close_client
    return transport, service


def _start_chaos(
    chaos: Optional[Callable[[FleetChaosHandle], None]],
    handle: FleetChaosHandle,
) -> Optional[threading.Thread]:
    """Run the chaos hook on a daemon thread (failures printed, not raised).

    A broken hook must not wedge the campaign -- the failure surfaces
    through the assertions the hook was meant to enable.
    """
    if chaos is None:
        return None

    def run() -> None:
        try:
            chaos(handle)
        except Exception:
            print("fleet chaos hook failed:", file=sys.stderr)
            traceback.print_exc()

    thread = threading.Thread(target=run, name="fleet-chaos", daemon=True)
    thread.start()
    return thread


class _ElasticCollector:
    """Drains worker records on a thread *while* the scoring loop runs.

    Historically collection happened after ``serve_transport``
    returned, which was fine when records only had to reach the
    parent's memory -- but a store-backed campaign must persist each
    record the moment it arrives, or a SIGKILL mid-campaign loses
    everything workers already delivered.  The collector therefore
    starts before the serve loop and feeds every first-seen record to
    ``on_record`` (the campaign's store persist hook) as it lands.

    A cell is accounted for when its record arrived *or* a drained
    worker reported it poisoned.  Duplicate records (zombie workers
    finishing a revoked lease) are dropped first-wins and counted in
    ``fleet.duplicate_records``.

    Exit rule: a worker's :class:`_WorkerDone` is its last frame on the
    results queue, and each producer's frames arrive in order, so the
    drain returns the moment no cell is outstanding and every spawned
    worker has reported -- nothing of theirs can still be in flight.
    Only a worker that died without reporting (SIGKILL, chaos) falls
    back to liveness, not a wall-clock budget: while any worker is
    alive we keep waiting; once every worker has exited, whatever is
    coming is already in the results pipe, so a short drain
    grace period bounds the wait before failing loudly, and a final
    sweep picks up buffered stragglers.  ``result()`` joins the thread
    and re-raises whatever the drain loop raised (lost-record errors, a
    failing ``on_record`` persist).
    """

    def __init__(
        self,
        results_queue,
        expected: Set[int],
        workers: List,
        on_record: Optional[Callable[[RunRecord], None]] = None,
    ) -> None:
        self._queue = results_queue
        self._expected = set(expected)
        self._workers = workers
        self._on_record = on_record
        self.records: Dict[int, RunRecord] = {}
        self.poisoned: Set[int] = set()
        self.snapshots: List[dict] = []
        #: Worker ids whose :class:`_WorkerDone` has arrived.
        self._reported: Set[int] = set()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._drain, name="fleet-collector", daemon=True
        )
        self._thread.start()

    def _take(self, item) -> None:
        if isinstance(item, _WorkerDone):
            self._reported.add(item.worker_id)
            self.snapshots.append(item.snapshot)
            self.poisoned.update(item.poisoned)
        elif item.run_index in self.records:
            _DUPLICATE_RECORDS.inc()
        else:
            self.records[item.run_index] = item
            if self._on_record is not None:
                self._on_record(item)

    def _drain(self) -> None:
        try:
            grace_deadline: Optional[float] = None
            while True:
                outstanding = (
                    self._expected - set(self.records) - self.poisoned
                )
                if not outstanding and self._reported.issuperset(
                    range(len(self._workers))
                ):
                    return  # every worker's last frame is in
                alive = any(w.is_alive() for w in list(self._workers))
                if not outstanding and not alive:
                    break
                try:
                    self._take(self._queue.get(timeout=0.5))
                    continue
                except queue_module.Empty:
                    pass
                if alive:
                    grace_deadline = None
                    continue
                if not outstanding:
                    continue  # workers draining their exit; loop re-checks
                if grace_deadline is None:
                    grace_deadline = time.monotonic() + _DRAIN_GRACE_SECONDS
                if time.monotonic() >= grace_deadline:
                    raise RuntimeError(
                        "fleet campaign lost records for cells "
                        f"{sorted(outstanding)}: every worker exited but "
                        "the results never arrived -- check worker stderr "
                        "above"
                    )
            # Final sweep for already-buffered straggler frames (a
            # zombie's duplicate record, a late _WorkerDone) so
            # accounting is complete.
            while True:
                try:
                    self._take(self._queue.get(timeout=0.2))
                except queue_module.Empty:
                    break
        except BaseException as error:  # re-raised from result()
            self._error = error

    def result(self) -> Tuple[Dict[int, RunRecord], Set[int], List[dict]]:
        """Join the drain thread; raise its error or return its haul."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self.records, self.poisoned, self.snapshots


def _warn_poisoned(poisoned: Set[int], retry_budget: int) -> None:
    if poisoned:
        print(
            f"warning: fleet campaign quarantined {len(poisoned)} poisoned "
            f"cell(s) {sorted(poisoned)} after {retry_budget} failed "
            "attempt(s) each; their records are omitted",
            file=sys.stderr,
        )


def run_fleet_campaign(
    config,
    tasks: Sequence[RunTask],
    shared_assets: Dict[str, TrainedAssets],
    telemetry_sink: Optional[List[dict]] = None,
    chaos: Optional[Callable[[FleetChaosHandle], None]] = None,
    record_sink: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Execute ``tasks`` with an elastic fleet against one scoring service.

    Without ``config.service_addr`` the parent binds an ephemeral
    localhost port, serves the scoring loop itself (elastic: late
    joiners welcome, reader EOFs become lease revocations) and spawns
    local workers that connect to it.  With ``service_addr`` the
    workers connect to an externally hosted service
    (``python -m repro serve``) and fetch assets from it -- this
    process never trains or publishes anything, and lease accounting
    lives entirely in the serving process.

    ``shared_assets`` maps scenario name -> offline assets (from
    :func:`~repro.experiments.campaign.prepare_campaign_assets`).
    ``telemetry_sink``, when given, receives one merged registry
    snapshot covering the parent (service included when self-hosted)
    and every surviving worker's final delta (a killed worker's
    in-flight telemetry dies with it; its cells' records do not).
    ``record_sink``, when given, receives each first-seen record the
    moment it arrives from a worker -- ``run_campaign`` passes its
    store persist hook here, which is what makes a SIGKILLed fleet
    campaign resumable.  ``chaos`` (tests only) receives a
    :class:`FleetChaosHandle` on a daemon thread once the fleet is
    running.
    """
    tasks = list(tasks)
    if not tasks:
        if telemetry_sink is not None:
            telemetry_sink.append(merge_snapshots())
        return []
    base = _telemetry.snapshot()
    ctx = multiprocessing.get_context()
    n_workers = max(1, min(config.workers, len(tasks)))
    interval = _heartbeat_interval(config.heartbeat_timeout)

    transport: Optional[TcpTransport] = None
    coordinator: Optional[CellCoordinator] = None
    service: Optional[GONScoringService] = None
    workers: List = []
    try:
        if config.service_addr:
            address = config.service_addr
        else:
            transport, service = _host_service(config, tasks, shared_assets)
            coordinator = service.coordinator
            address = transport.address

        results_queue = _ResultPipe(ctx)
        worker_ids = _count()

        def spawn_worker():
            writer = results_queue.writer()
            worker = ctx.Process(
                target=_worker_main,
                args=(
                    next(worker_ids), tasks, address, writer,
                    interval, config.auth_token,
                ),
                daemon=True,
            )
            worker.start()
            writer.close()
            workers.append(worker)
            return worker

        for _ in range(n_workers):
            spawn_worker()

        _start_chaos(
            chaos,
            FleetChaosHandle(
                workers=workers,
                coordinator=coordinator,
                service=service,
                transport=transport,
                address=address,
                spawn_worker=spawn_worker,
            ),
        )

        collector = _ElasticCollector(
            results_queue,
            {task.run_index for task in tasks},
            workers,
            on_record=record_sink,
        )
        if service is not None:

            def abort() -> bool:
                if coordinator.finished:
                    return False
                if any(worker.is_alive() for worker in list(workers)):
                    return False
                raise RuntimeError(
                    "fleet campaign stalled: every worker exited (a "
                    "worker crashed -- check stderr above) with cells "
                    f"{sorted(set(coordinator.lease_view()))} leased and "
                    f"{coordinator.status()['pending']} still queued"
                )

            serve_transport(service, transport, abort=abort)

        records, poisoned, worker_snapshots = collector.result()
        if service is not None:
            poisoned |= set(coordinator.poisoned)
        _warn_poisoned(poisoned, config.cell_retry_budget)
        if telemetry_sink is not None:
            # The parent delta carries the service-side registry
            # (service.*, gon.*, fleet.*); each worker delta carries
            # its sim/campaign/carol side.
            telemetry_sink.append(
                merge_snapshots(_telemetry.delta(base), *worker_snapshots)
            )
        for worker in workers:
            worker.join(timeout=_COLLECT_TIMEOUT)
        return sorted(records.values(), key=lambda record: record.run_index)
    finally:
        # On failure paths (stalled fleet, lost records) the survivors
        # are still blocked on their sockets: tear them down so a
        # long-lived host process never accumulates stuck children.
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        if transport is not None:
            transport.close()


def _status_provider(
    service: GONScoringService,
    transport: TcpTransport,
    n_clients: int,
    chaos_control: ChaosControl,
) -> Callable[[], dict]:
    """Build the ``/status`` JSON assembler for a hosted service.

    Pure observation: merges the service-process registry with the
    latest STATS frame from every worker, derives the cell progress
    view from the merged ``campaign.cells_*`` counters, reports
    connection/sign-off/loss state, and surfaces the coordinator's
    lease/requeue/poison accounting plus the chaos injection log under
    ``"fleet"``.  Safe to call from the status server's threads
    mid-``serve()``.
    """

    def provider() -> dict:
        merged = service.merged_telemetry()
        counters = merged.get("counters", {})
        started = int(counters.get("campaign.cells_started", 0))
        completed = int(counters.get("campaign.cells_completed", 0))
        status = {
            "workers": {
                "connected": transport.n_connected,
                "peak_connected": transport.peak_connected,
                "expected": n_clients,
                "signed_off": len(service.signed_off),
                "lost": len(service.lost),
            },
            "cells": {
                "started": started,
                "completed": completed,
                "in_flight": max(0, started - completed),
            },
            "service": asdict(service.stats),
            "telemetry": merged,
        }
        fleet = service.coordinator.status()
        fleet["workers_lost"] = len(service.lost)
        fleet["heartbeat_ages"] = {
            str(client_id): round(age, 3)
            for client_id, age in sorted(service.heartbeat_ages().items())
        }
        fleet["auth_rejections"] = transport.auth_rejections
        fleet["injections"] = chaos_control.log()
        status["fleet"] = fleet
        return status

    return provider


def serve_fleet_service(
    config,
    shared_assets: Dict[str, TrainedAssets],
    host: str = "127.0.0.1",
    port: int = 0,
    idle_timeout: float = 0.0,
    on_ready: Optional[Callable[[str, int], None]] = None,
    status_port: Optional[int] = None,
    status_host: str = "127.0.0.1",
    telemetry_sink: Optional[List[dict]] = None,
) -> ServiceStats:
    """Host one elastic scoring service for remote campaign workers.

    The backbone of ``python -m repro serve``: plans ``config``'s grid
    into a lease queue, publishes ``shared_assets`` on a
    :class:`TcpTransport`, calls ``on_ready`` with the bound
    ``(host, port)``, then scores until the grid is drained and every
    connected worker has signed off or been declared lost.
    ``config.workers`` is the *expected* fleet size for the status
    view -- workers may come and go freely (``--min-workers``), and
    the campaign survives any churn the retry budget absorbs.
    ``idle_timeout > 0`` (``--max-idle``) aborts loudly when no
    non-heartbeat frame has arrived for that many seconds (covers
    fleets that never connect as well as fleets that ping but stopped
    computing).

    ``status_port`` (0 = ephemeral) additionally binds an HTTP
    :class:`~repro.serving.StatusServer` next to the scoring socket
    serving ``/status`` + ``/metrics`` from the live merged telemetry
    and the ``POST /inject`` chaos control plane
    (:class:`~repro.serving.ChaosControl`); ``None`` (the default)
    serves no HTTP.  ``config.auth_token`` gates handshakes: a
    ``Hello`` with the wrong token is rejected before ``Welcome``.
    ``telemetry_sink``, when given, receives the final merged snapshot
    after the scoring loop winds down.

    With ``config.store == "sqlite"`` the service resumes: cells whose
    records the store already holds are born completed in the lease
    queue (``fleet.cells_resumed``) and never handed to workers.  The
    campaign parent that connects must use the same store -- it is the
    side that restores those cells' records; this process only skips
    the leases.
    """
    from ..serving.transports import TransportError

    tasks = plan_tasks(config)
    completed: List[int] = []
    if config.store == "sqlite":
        from ..storage import open_store

        config_hash = campaign_config_hash(config)
        with open_store(config.store, config.store_path) as store:
            store.register_campaign(
                config_hash, campaign_grid_identity(config)
            )
            done = store.completed_cells(config_hash)
        completed = [
            task.run_index
            for task in tasks
            if (task.scenario, task.model, task.seed_index) in done
        ]
        if completed:
            print(
                f"store: {len(completed)} of {len(tasks)} cells already "
                "completed; they will not be leased",
                file=sys.stderr,
            )
    transport, service = _host_service(
        config, tasks, shared_assets, completed=completed, host=host, port=port
    )
    status_server: Optional[StatusServer] = None
    try:
        chaos_control = ChaosControl(service, transport)
        if status_port is not None:
            status_server = StatusServer(
                _status_provider(
                    service, transport, config.workers, chaos_control
                ),
                host=status_host,
                port=status_port,
                inject_handler=chaos_control.inject,
            ).start()
            print(
                f"status endpoint on http://{status_server.address}/status",
                file=sys.stderr,
            )
        if on_ready is not None:
            on_ready(transport.host, transport.port)

        abort = None
        if idle_timeout > 0:

            def abort() -> bool:
                idle = time.monotonic() - transport.last_activity
                if idle > idle_timeout:
                    raise TransportError(
                        f"scoring service idle for {idle:.0f}s "
                        f"({transport.n_connected} of {config.workers} "
                        "workers connected); shutting down"
                    )
                return False

        stats = serve_transport(service, transport, abort=abort)
        _warn_poisoned(set(service.coordinator.poisoned), config.cell_retry_budget)
        if telemetry_sink is not None:
            telemetry_sink.append(service.merged_telemetry())
        return stats
    finally:
        if status_server is not None:
            status_server.close()
        transport.close()
