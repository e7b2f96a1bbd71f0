"""The fleet transport: length-prefixed frames over TCP sockets.

:class:`GONScoringService` drains *any* object with the stdlib
``get(timeout)`` surface and replies through *any* per-client object
with ``put``.  :class:`TcpTransport` bundles those two endpoints on
the service side, and :class:`TcpWorkerChannel` is the worker-side
counterpart.  The service listens on a socket; each accepted client
gets a dedicated **reader thread** that decodes length-prefixed frames
(:mod:`repro.serving.wire`) and feeds them into the service's single
FIFO request queue.  A client's socket is read sequentially, so its
messages enter the FIFO in send order and the overlay protocol's
install-before-score guarantee survives the network hop; cross-client
interleaving is harmless because generation > 0 overlays are private
per client.

Failure semantics keep one client's fault from sinking the fleet,
and never hang.  A client that sends a malformed or truncated frame,
spoofs another client id, asks for an unknown asset pack or vanishes
before :class:`ClientDone` is *dropped*: its socket is closed and a
:class:`~repro.serving.service.WorkerLost` notice revokes its leases.
A connection that fails the handshake is closed and counted in
``fleet.handshake_rejections``.  Whatever kills the scorer loop itself
(a stale-generation request, say) is broadcast to every connected
client by :func:`serve_transport` before re-raising, so remote workers
blocked on a reply fail loudly too.

The transport doubles as the asset channel: publish
``pack_state``-packed buffers via ``asset_packs`` and workers fetch
each one once at startup (see
:func:`repro.serving.shared.fetch_array_pack`).
"""

from __future__ import annotations

import queue as queue_module
import socket
import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry as _telemetry
from . import wire
from .service import ClientDone, Ping, WorkerLost
from .wire import (
    AssetIndex,
    AssetIndexRequest,
    AssetReply,
    AssetRequest,
    Hello,
    ServiceError,
    Welcome,
)

__all__ = [
    "TransportError",
    "TcpTransport",
    "TcpWorkerChannel",
    "parse_address",
    "serve_transport",
]


class TransportError(RuntimeError):
    """A fleet transport failure (always loud, never a hang)."""


_AUTH_REJECTIONS = _telemetry.counter("fleet.auth_rejections")
_HANDSHAKE_REJECTIONS = _telemetry.counter("fleet.handshake_rejections")
_WORKERS_PEAK = _telemetry.gauge("fleet.workers_peak")


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"``; loud on anything else."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise TransportError(
            f"malformed service address {address!r}; expected 'host:port'"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# TCP transport (service side)
# ----------------------------------------------------------------------
class _Fault:
    def __init__(self, error: BaseException) -> None:
        self.error = error


class _FaultableQueue:
    """A FIFO whose consumer can be failed loudly from another thread.

    Reader threads enqueue decoded messages with :meth:`put`.  When the
    accept loop itself dies it enqueues the exception with :meth:`fail`,
    and the next service-side :meth:`get` or :meth:`get_nowait` raises
    it -- a loud ``serve()`` failure instead of a fleet that can never
    gain a worker again.
    """

    def __init__(self) -> None:
        self._queue: "queue_module.Queue" = queue_module.Queue()

    def put(self, item) -> None:
        self._queue.put(item)

    def fail(self, error: BaseException) -> None:
        self._queue.put(_Fault(error))

    def get(self, timeout: Optional[float] = None):
        return self._unwrap(self._queue.get(timeout=timeout))

    def get_nowait(self):
        return self._unwrap(self._queue.get_nowait())

    @staticmethod
    def _unwrap(item):
        if isinstance(item, _Fault):
            raise item.error
        return item


class _TcpReplyWriter:
    """The service's per-client reply endpoint: frames onto the socket."""

    def __init__(self, transport: "TcpTransport", client_id: int) -> None:
        self._transport = transport
        self._client_id = client_id

    def put(self, reply) -> None:
        self._transport.send_to_client(self._client_id, reply)


class TcpTransport:
    """Service side of the socket transport.

    Listens on ``host:port`` (port 0 picks an ephemeral port; read it
    back from :attr:`address`), assigns client ids in accept order via
    the HELLO/WELCOME handshake, and runs one reader thread per client.
    ``asset_packs`` maps pack name to a ``(buffer, manifest)`` pair
    from ``pack_state``; ``asset_index`` is the scenario metadata
    served to :class:`wire.AssetIndexRequest`.

    Membership is elastic: the transport keeps accepting for its whole
    lifetime, so late workers join a running campaign and get the next
    id in accept order.  A client that disconnects before signing off,
    spoofs another id, or sends a malformed frame is *dropped* -- its
    socket is closed and a :class:`~repro.serving.service.WorkerLost`
    notice is enqueued so the service can revoke its leases -- instead
    of killing the whole fleet.

    ``auth_token`` is the pre-shared fleet secret: a HELLO carrying a
    different token is answered with a :class:`wire.ServiceError` and
    closed *before* WELCOME, without consuming a client id and without
    disturbing the rest of the fleet (counted in
    ``fleet.auth_rejections``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        asset_packs: Optional[Dict[str, Tuple[np.ndarray, list]]] = None,
        asset_index: Optional[Dict[str, Dict[str, int]]] = None,
        auth_token: str = "",
    ) -> None:
        self._auth_token = str(auth_token)
        self._asset_packs = dict(asset_packs or {})
        self._asset_index = {
            name: dict(meta) for name, meta in (asset_index or {}).items()
        }
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.request_queue = _FaultableQueue()
        self.reply_queues: Dict[int, _TcpReplyWriter] = {}
        self._sockets: Dict[int, socket.socket] = {}
        self._send_locks: Dict[int, threading.Lock] = {}
        self._threads: list = []
        self._closed = threading.Event()
        self.auth_rejections = 0
        #: Most clients ever connected at once (``/status`` and the
        #: ``fleet.workers_peak`` gauge): unlike :attr:`n_connected` it
        #: survives the workers signing off.
        self.peak_connected = 0
        #: Monotonic timestamp of the last frame received from any
        #: client (idle-timeout watchdogs key off this).  Heartbeat
        #: :class:`Ping` frames deliberately do *not* refresh it: a
        #: fleet that only ever pings is idle, and ``--max-idle``
        #: should still fire on a wedged worker.
        self.last_activity = time.monotonic()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def n_connected(self) -> int:
        return len(self._sockets)

    # ------------------------------------------------------------------
    def start(self) -> None:
        thread = threading.Thread(
            target=self._accept_loop, name="fleet-tcp-accept", daemon=True
        )
        self._threads.append(thread)
        thread.start()

    def _accept_loop(self) -> None:
        client_id = 0
        try:
            while not self._closed.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except OSError:
                    if self._closed.is_set():
                        return
                    raise
                try:
                    accepted = self._handshake(conn, client_id)
                except Exception:
                    # One garbage connection must not take down a
                    # long-running fleet; reject it and keep accepting.
                    _HANDSHAKE_REJECTIONS.inc()
                    try:
                        conn.close()
                    except OSError:
                        pass
                    continue
                if accepted:
                    client_id += 1
        except Exception as error:
            # Any escape here would strand serve() polling an empty
            # queue forever; fault it instead -- loudness over hangs.
            if not self._closed.is_set():
                self.request_queue.fail(
                    TransportError(f"fleet transport handshake failed: {error}")
                )

    def _handshake(self, conn: socket.socket, client_id: int) -> bool:
        """Run HELLO/WELCOME on one accepted connection.

        Returns True when the connection became client ``client_id``;
        False when it was rejected (bad auth token) without consuming
        the id.  Malformed handshakes raise (the accept loop rejects
        the connection).
        """
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = wire.recv_message(conn)
        if not isinstance(hello, Hello):
            raise TransportError(
                f"connection {client_id} opened with "
                f"{type(hello).__name__} instead of Hello"
            )
        if hello.protocol != wire.PROTOCOL_VERSION:
            raise TransportError(
                f"client speaks wire protocol {hello.protocol}, "
                f"service speaks {wire.PROTOCOL_VERSION}"
            )
        if hello.token != self._auth_token:
            # Loud rejection BEFORE Welcome: the client gets a
            # ServiceError naming the problem and the connection
            # closes without a client id.  Never fatal to the fleet.
            self.auth_rejections += 1
            _AUTH_REJECTIONS.inc()
            try:
                wire.send_message(conn, ServiceError(
                    message="authentication failed: fleet auth token "
                    "mismatch (serve --auth-token / REPRO_FLEET_TOKEN)"
                ))
            except wire.WireError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            return False
        self._send_locks[client_id] = threading.Lock()
        self._sockets[client_id] = conn
        if len(self._sockets) > self.peak_connected:
            self.peak_connected = len(self._sockets)
            _WORKERS_PEAK.set(self.peak_connected)
        self.reply_queues.setdefault(client_id, _TcpReplyWriter(self, client_id))
        self.last_activity = time.monotonic()
        wire.send_message(conn, Welcome(client_id=client_id))
        reader = threading.Thread(
            target=self._reader_loop,
            args=(client_id, conn),
            name=f"fleet-tcp-reader-{client_id}",
            daemon=True,
        )
        self._threads.append(reader)
        reader.start()
        return True

    def _reader_loop(self, client_id: int, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    message = wire.recv_message(conn)
                except wire.ConnectionClosed:
                    raise TransportError(
                        f"client {client_id} disconnected before signing off "
                        "(worker crashed or was killed mid-campaign)"
                    ) from None
                if not isinstance(message, Ping):
                    self.last_activity = time.monotonic()
                if isinstance(message, AssetIndexRequest):
                    self.send_to_client(client_id, AssetIndex(index=self._asset_index))
                    continue
                if isinstance(message, AssetRequest):
                    pack = self._asset_packs.get(message.pack)
                    if pack is None:
                        raise TransportError(
                            f"client {client_id} requested unknown asset pack "
                            f"{message.pack!r}; published: {sorted(self._asset_packs)}"
                        )
                    buffer, manifest = pack
                    self.send_to_client(
                        client_id,
                        AssetReply(
                            pack=message.pack,
                            manifest=tuple(tuple(e) for e in manifest),
                            buffer=buffer,
                        ),
                    )
                    continue
                owner = getattr(message, "client_id", client_id)
                if owner != client_id:
                    raise TransportError(
                        f"client {client_id} sent a {type(message).__name__} "
                        f"claiming client id {owner}"
                    )
                self.request_queue.put(message)
                if isinstance(message, ClientDone):
                    return
        except TransportError as error:
            self._reader_failed(client_id, error)
        except Exception as error:
            # Catch-all for the same reason as the accept loop: a
            # dead reader with no fault enqueued is a silent hang.
            self._reader_failed(
                client_id,
                TransportError(f"client {client_id} protocol error: {error}"),
            )

    def _reader_failed(self, client_id: int, error: TransportError) -> None:
        """A client's reader died: drop the client as a lost worker.

        Any single-client failure (EOF before sign-off, spoofed id,
        malformed frame) becomes a :class:`WorkerLost` notice: the
        service revokes the dead client's leases and the campaign
        keeps running.
        """
        if self._closed.is_set():
            return
        self.close_client(client_id)
        self.request_queue.put(WorkerLost(client_id, reason=str(error)))

    # ------------------------------------------------------------------
    def send_to_client(self, client_id: int, message) -> None:
        conn = self._sockets.get(client_id)
        if conn is None:
            raise TransportError(
                f"no connection for client {client_id} (never connected or gone)"
            )
        try:
            wire.send_message(conn, message, lock=self._send_locks[client_id])
        except wire.WireError as error:
            raise TransportError(
                f"sending {type(message).__name__} to client {client_id} "
                f"failed: {error}"
            ) from None

    def close_client(self, client_id: int) -> None:
        """Tear down one client's socket (idempotent).

        Used by the chaos control plane (``kill_worker``) and by the
        service when it declares a client dead: the reader thread wakes
        with an EOF/OSError and enqueues the :class:`WorkerLost`
        notice.
        """
        conn = self._sockets.pop(client_id, None)
        if conn is None:
            return
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - double close
            pass

    def broadcast_error(self, message: str) -> None:
        """Best-effort fatal-error notice so no client blocks forever."""
        for client_id in list(self._sockets):
            try:
                self.send_to_client(client_id, ServiceError(message=message))
            except TransportError:  # pragma: no cover - socket already dead
                pass

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass
        for conn in self._sockets.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close
                pass
        self._sockets.clear()


# ----------------------------------------------------------------------
# TCP transport (worker side)
# ----------------------------------------------------------------------
class TcpWorkerChannel:
    """Worker endpoint: one socket, queue-compatible ``put``/``get``.

    Slots directly into :class:`repro.serving.ScoringClient` as both
    its request and reply queue -- requests are framed onto the socket,
    replies are read back off it.  The client id is assigned by the
    service during the HELLO/WELCOME handshake (:attr:`client_id`).
    Connection attempts retry until ``connect_timeout`` so workers may
    start before the service finishes binding; each attempt's socket
    timeout is derived from the remaining connect budget (never a
    hidden hard-coded constant).

    Post-handshake reads block until a frame arrives or the socket
    fails: over TCP a reply either arrives or the connection breaks,
    and the service side declares silent clients dead on its
    heartbeat timeout.  Sends are serialized with an internal lock so
    a heartbeat thread can share the socket with the scoring loop.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = 30.0,
        retry_interval: float = 0.2,
        auth_token: str = "",
    ) -> None:
        self.address = address
        self._send_lock = threading.Lock()
        host, port = parse_address(address)
        deadline = time.monotonic() + connect_timeout
        while True:
            remaining = max(deadline - time.monotonic(), 0.05)
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=remaining
                )
                break
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"could not reach the scoring service at {address} "
                        f"within {connect_timeout:.0f}s: {error}"
                    ) from None
                time.sleep(retry_interval)
        # Keep the timeout through the handshake: a connection sitting
        # unaccepted in the listen backlog (an accept loop stuck on
        # another connection) must fail loudly here rather than block
        # on the Welcome forever.
        self._sock.settimeout(connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            wire.send_message(self._sock, Hello(token=auth_token))
            welcome = self._recv()
        except TimeoutError:
            raise TransportError(
                f"handshake with {address} failed: no Welcome within "
                f"{connect_timeout:.0f}s"
            ) from None
        except (wire.WireError, TransportError) as error:
            raise TransportError(f"handshake with {address} failed: {error}") from None
        if not isinstance(welcome, Welcome):
            raise TransportError(
                f"service at {address} answered Hello with "
                f"{type(welcome).__name__}"
            )
        self.client_id: int = welcome.client_id
        self._sock.settimeout(None)

    def _recv(self):
        try:
            message = wire.recv_message(self._sock)
        except wire.ConnectionClosed:
            raise TransportError(
                f"scoring service at {self.address} closed the connection "
                "(it likely aborted; check the service log)"
            ) from None
        except wire.WireError as error:
            raise TransportError(
                f"bad frame from the scoring service at {self.address}: {error}"
            ) from None
        if isinstance(message, ServiceError):
            raise TransportError(f"scoring service reported: {message.message}")
        return message

    # -- queue surface used by ScoringClient ---------------------------
    def put(self, message) -> None:
        try:
            wire.send_message(self._sock, message, lock=self._send_lock)
        except wire.WireError as error:
            raise TransportError(
                f"sending {type(message).__name__} to {self.address} "
                f"failed: {error}"
            ) from None

    def get(self):
        return self._recv()

    # -- asset fetch path ----------------------------------------------
    def fetch_index(self) -> Dict[str, Dict[str, int]]:
        """The service's scenario metadata (``AssetIndex``)."""
        self.put(AssetIndexRequest())
        reply = self._recv()
        if not isinstance(reply, AssetIndex):
            raise TransportError(
                f"asset index request answered with {type(reply).__name__}"
            )
        return reply.index

    def fetch_pack(self, name: str) -> Tuple[np.ndarray, tuple]:
        """One published pack's ``(buffer, manifest)``, fetched raw."""
        self.put(AssetRequest(pack=name))
        reply = self._recv()
        if not isinstance(reply, AssetReply) or reply.pack != name:
            raise TransportError(
                f"asset request for {name!r} answered with "
                f"{type(reply).__name__}"
            )
        return reply.buffer, reply.manifest

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass


# ----------------------------------------------------------------------
def serve_transport(service, transport, abort=None):
    """Run ``service.serve`` and fail every client loudly on error.

    Whatever kills the scorer loop (protocol violation, stale
    generation, transport fault) is broadcast to connected clients as
    a :class:`wire.ServiceError` before re-raising, so synchronous
    workers blocked on a reply raise instead of hanging.
    """
    try:
        return service.serve(abort=abort)
    except BaseException as error:
        transport.broadcast_error(f"{type(error).__name__}: {error}")
        raise
