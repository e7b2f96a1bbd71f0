"""Length-prefixed binary framing for the TCP fleet transport.

The socket transport (:mod:`repro.serving.transports`) ships the
service's protocol dataclasses -- :class:`AscentRequest`,
the lease frames, :class:`ClientDone` and the replies -- over a wire format with no pickle anywhere:

``frame := MAGIC(4) | type(1) | header_len(u32) | body_len(u32)
           | header(JSON) | body(packed arrays)``

* the **header** is UTF-8 JSON carrying every scalar field plus the
  body's array manifest (``(name, shape, dtype, offset)`` entries, the
  same layout :func:`repro.nn.serialization.pack_state` produces);
* the **body** is the ``pack_state`` buffer of the message's ndarray
  fields -- raw little-endian bytes, so float64 payloads round-trip
  **bit-exactly** and TCP-scored fleet records can stay bit-identical
  to serial execution.

Every decoding failure raises :class:`WireError` (or its subclass
:class:`ConnectionClosed` for EOF *between* frames): a malformed or
truncated frame is always a loud protocol error, never a hang or a
silently skipped message.  Frames are bounded (``MAX_HEADER_BYTES`` /
``MAX_BODY_BYTES``) so a corrupt length prefix cannot ask the peer to
allocate unbounded memory.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass, fields
from typing import Dict, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..nn.serialization import pack_state, unpack_state
from .service import (
    AscentReply,
    AscentRequest,
    CellDone,
    ClientDone,
    LeaseGrant,
    LeaseRequest,
    Ping,
    StatsUpdate,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "WireError",
    "ConnectionClosed",
    "Hello",
    "Welcome",
    "AssetIndexRequest",
    "AssetIndex",
    "AssetRequest",
    "AssetReply",
    "ServiceError",
    "encode_message",
    "decode_payload",
    "send_message",
    "recv_message",
]

MAGIC = b"CRL1"
#: Version 2 added the elastic-fleet frames (LEASE/CELL_DONE/PING) and
#: the pre-shared auth token field in HELLO; version 3 retired the
#: confidence request/reply frames; version 4 added
#: ``AscentRequest.segments``; version 5 cut ``AscentReply`` to its
#: ``metrics``; version 6 answers a ``LeaseRequest`` late, once a cell
#: frees or the grid drains, and never with "no cell, poll again";
#: version 7 retired the weight-overlay frame and
#: ``AscentRequest.generation`` (a fine-tuned worker scores locally).
#: The handshake rejects mismatched versions loudly, so mixed
#: deployments fail fast instead of mis-decoding.
PROTOCOL_VERSION = 7

#: magic, message type code, header length, body length.
_PREFIX = struct.Struct("!4sBII")

MAX_HEADER_BYTES = 1 << 24  # 16 MiB of JSON is already absurd
MAX_BODY_BYTES = 1 << 31  # 2 GiB of packed arrays

# Wire telemetry: frame and byte counters on both directions.  These
# fire from reader threads too; int += is atomic enough under the GIL
# for monitoring purposes.
_FRAMES_SENT = _telemetry.counter("wire.frames_sent")
_BYTES_SENT = _telemetry.counter("wire.bytes_sent")
_FRAMES_RECEIVED = _telemetry.counter("wire.frames_received")
_BYTES_RECEIVED = _telemetry.counter("wire.bytes_received")


class WireError(RuntimeError):
    """A malformed, truncated, or out-of-protocol frame."""


class ConnectionClosed(WireError):
    """EOF at a frame boundary (the peer closed the socket)."""


# ----------------------------------------------------------------------
# Control messages that exist only on the wire
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """Client greeting; the server answers with :class:`Welcome`.

    ``token`` is the pre-shared fleet auth token (``serve
    --auth-token`` / ``REPRO_FLEET_TOKEN``).  A mismatch is rejected
    loudly *before* WELCOME assigns a client id; the empty default
    keeps tokenless deployments working unchanged.
    """

    protocol: int = PROTOCOL_VERSION
    token: str = ""


@dataclass(frozen=True)
class Welcome:
    """Server handshake reply assigning the connection's client id."""

    client_id: int
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class AssetIndexRequest:
    """Ask the service which asset packs (and metadata) it hosts."""


@dataclass(frozen=True)
class AssetIndex:
    """``scenario -> {gon_hidden, gon_layers, seed, gan_seed}``."""

    index: Dict[str, Dict[str, int]]


@dataclass(frozen=True)
class AssetRequest:
    """Fetch one published asset pack by name (e.g. ``"s/weights"``)."""

    pack: str


@dataclass(frozen=True)
class AssetReply:
    """One asset pack: the ``pack_state`` buffer plus its manifest."""

    pack: str
    manifest: Tuple[Tuple[str, Tuple[int, ...], str, int], ...]
    buffer: np.ndarray


@dataclass(frozen=True)
class ServiceError:
    """Server-side fatal error broadcast to clients before teardown."""

    message: str


# ----------------------------------------------------------------------
# Codec registry
# ----------------------------------------------------------------------
#: Message class -> (type code, ndarray field names shipped in the
#: packed body).  Codes are pinned: a message keeps its code for as
#: long as it exists, and a retired code is never reused (9 and 13
#: were the confidence request and reply, retired in protocol 3, and
#: 10 the weight overlay, retired in protocol 7).
#: The service-internal WorkerLost and CellRequeued notices
#: deliberately have no code: they are enqueued locally (by the
#: transport and by an operator re-queue) and must never arrive from a
#: client.
_MESSAGES = {
    Hello: (1, ()),
    Welcome: (2, ()),
    AssetIndexRequest: (3, ()),
    AssetIndex: (4, ()),
    AssetRequest: (5, ()),
    AssetReply: (6, ("buffer",)),
    ServiceError: (7, ()),
    AscentRequest: (8, ("metrics", "schedules", "adjacencies")),
    ClientDone: (11, ()),
    AscentReply: (12, ("metrics",)),
    # STATS frame: the telemetry snapshot dict rides in the JSON
    # header (it is JSON-safe by construction), no packed body.
    StatsUpdate: (14, ()),
    # Elastic-fleet frames (protocol 2): the lease queue and the
    # heartbeat, scalar-only payloads.
    LeaseRequest: (15, ()),
    LeaseGrant: (16, ()),
    CellDone: (17, ()),
    Ping: (18, ()),
}
_ARRAY_FIELDS = {cls: arrays for cls, (_code, arrays) in _MESSAGES.items()}

#: Replies are consumed by clients that may mutate result arrays;
#: decode these to writable private arrays instead of read-only views.
_COPY_ON_DECODE = (AscentReply,)

#: Fields holding a ``pack_state`` manifest: JSON turns the nested
#: tuples into lists, so decoding restores the tuple shape.
_MANIFEST_FIELDS = {AssetReply: ("manifest",)}

#: Scalar-tuple fields (JSON round-trips them as lists; decoding
#: restores the frozen-dataclass tuple shape).
_INT_TUPLE_FIELDS = {LeaseGrant: ("poisoned",), AscentRequest: ("segments",)}

_CODE_BY_CLASS = {cls: code for cls, (code, _arrays) in _MESSAGES.items()}
_CLASS_BY_CODE = {code: cls for cls, code in _CODE_BY_CLASS.items()}


def _as_manifest(entries) -> tuple:
    try:
        return tuple(
            (str(name), tuple(int(n) for n in shape), str(dtype), int(offset))
            for name, shape, dtype, offset in entries
        )
    except (TypeError, ValueError) as error:
        raise WireError(f"malformed array manifest in header: {error}") from None


def encode_message(message) -> bytes:
    """One wire frame (bytes) for a protocol dataclass."""
    cls = type(message)
    code = _CODE_BY_CLASS.get(cls)
    if code is None:
        raise WireError(f"{cls.__name__} is not a wire message")
    array_names = _ARRAY_FIELDS[cls]
    header: Dict[str, object] = {}
    for field in fields(cls):
        if field.name in array_names:
            continue
        header[field.name] = getattr(message, field.name)
    if array_names:
        buffer, manifest = pack_state(
            {name: np.asarray(getattr(message, name)) for name in array_names}
        )
        body = buffer.tobytes()
        header["__pack__"] = manifest
    else:
        body = b""
    header_bytes = json.dumps(header).encode("utf-8")
    frame = (
        _PREFIX.pack(MAGIC, code, len(header_bytes), len(body)) + header_bytes + body
    )
    _FRAMES_SENT.inc()
    _BYTES_SENT.add(len(frame))
    return frame


def decode_payload(code: int, header_bytes: bytes, body: bytes):
    """Rebuild the dataclass for one frame's payload (loudly)."""
    cls = _CLASS_BY_CODE.get(code)
    if cls is None:
        raise WireError(f"unknown wire message type {code}")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"malformed {cls.__name__} header: {error}") from None
    if not isinstance(header, dict):
        raise WireError(f"malformed {cls.__name__} header: not an object")

    kwargs: Dict[str, object] = {}
    pack_manifest = header.pop("__pack__", None)
    scalar_names = {
        field.name for field in fields(cls) if field.name not in _ARRAY_FIELDS[cls]
    }
    if set(header) != scalar_names:
        raise WireError(
            f"{cls.__name__} header fields {sorted(header)} != "
            f"expected {sorted(scalar_names)}"
        )
    kwargs.update(header)
    for name in _MANIFEST_FIELDS.get(cls, ()):
        kwargs[name] = _as_manifest(kwargs[name])
    for name in _INT_TUPLE_FIELDS.get(cls, ()):
        try:
            kwargs[name] = tuple(int(value) for value in kwargs[name])
        except (TypeError, ValueError) as error:
            raise WireError(
                f"malformed {cls.__name__}.{name} in header: {error}"
            ) from None

    array_names = _ARRAY_FIELDS[cls]
    if array_names:
        if pack_manifest is None:
            raise WireError(f"{cls.__name__} frame is missing its array pack")
        manifest = _as_manifest(pack_manifest)
        if {entry[0] for entry in manifest} != set(array_names):
            raise WireError(
                f"{cls.__name__} pack carries {[e[0] for e in manifest]}, "
                f"expected {sorted(array_names)}"
            )
        # Array reconstruction trusts nothing from the header: a bogus
        # dtype string, an overflowing shape or a lying offset must
        # all surface as WireError, never as a stray TypeError that a
        # reader thread's except clause misses.
        try:
            end = max(
                offset
                + int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
                for _name, shape, dtype, offset in manifest
            )
            if end > len(body):
                raise WireError(
                    f"{cls.__name__} body holds {len(body)} bytes but the "
                    f"manifest describes {end}: truncated frame"
                )
            views = unpack_state(np.frombuffer(body, dtype=np.uint8), list(manifest))
        except WireError:
            raise
        except Exception as error:
            raise WireError(
                f"{cls.__name__} array manifest is invalid: {error}"
            ) from None
        copy = cls in _COPY_ON_DECODE
        for name in array_names:
            kwargs[name] = np.array(views[name]) if copy else views[name]
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise WireError(f"cannot build {cls.__name__}: {error}") from None


# ----------------------------------------------------------------------
# Socket IO
# ----------------------------------------------------------------------
def _read_exact(sock, n: int, at_boundary: bool) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except TimeoutError:
            # A socket timeout is a liveness signal, not a corrupt
            # frame: the caller names the deadline it set.
            raise
        except OSError as error:
            raise WireError(f"socket read failed: {error}") from None
        if not chunk:
            if at_boundary and remaining == n:
                raise ConnectionClosed("peer closed the connection")
            raise WireError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
        at_boundary = False
    return b"".join(chunks)


def recv_message(sock):
    """Read and decode one frame; loud on anything unexpected."""
    prefix = _read_exact(sock, _PREFIX.size, at_boundary=True)
    magic, code, header_len, body_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"frame header of {header_len} bytes exceeds the protocol cap")
    if body_len > MAX_BODY_BYTES:
        raise WireError(f"frame body of {body_len} bytes exceeds the protocol cap")
    header = _read_exact(sock, header_len, at_boundary=False)
    body = _read_exact(sock, body_len, at_boundary=False) if body_len else b""
    _FRAMES_RECEIVED.inc()
    _BYTES_RECEIVED.add(_PREFIX.size + header_len + body_len)
    return decode_payload(code, header, body)


def send_message(sock, message, lock: "threading.Lock | None" = None) -> None:
    """Encode and write one frame (optionally under a send lock)."""
    frame = encode_message(message)
    try:
        if lock is None:
            sock.sendall(frame)
        else:
            with lock:
                sock.sendall(frame)
    except OSError as error:
        raise WireError(f"socket write failed: {error}") from None
