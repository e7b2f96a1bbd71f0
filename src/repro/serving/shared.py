"""Fleet asset distribution (weights, traces) over the worker socket.

The serving process packs a dict of named arrays into a single buffer
(:func:`repro.nn.serialization.pack_state`) and publishes it on its
:class:`~repro.serving.transports.TcpTransport`.  A worker fetches
each packed buffer **once** over its scoring socket
(:meth:`repro.serving.transports.TcpWorkerChannel.fetch_pack`) and
caches it per process; read-only zero-copy views are rebuilt over the
received bytes with :func:`~repro.nn.serialization.unpack_state`.  The
bytes are the service's own, which is what keeps fleet records
bit-identical to serial execution.

Anything expressible as a ``{name: ndarray}`` dict ships the same
way.  Fetched packs are plain process-local memory and need no
cleanup.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..nn.serialization import unpack_state

__all__ = [
    "FetchedArrayPack",
    "fetch_array_pack",
]


class FetchedArrayPack:
    """Worker side of the asset path: a pack pulled over TCP.

    ``arrays`` are read-only zero-copy views over the received buffer;
    the buffer is ordinary process memory.
    """

    def __init__(self, buffer: np.ndarray, manifest) -> None:
        self.arrays: Dict[str, np.ndarray] = unpack_state(buffer, list(manifest))


#: Per-process cache of fetched packs: ``(service address, pack name)``.
_FETCHED_PACKS: Dict[Tuple[str, str], FetchedArrayPack] = {}


def fetch_array_pack(channel, name: str, cache: bool = True) -> FetchedArrayPack:
    """Fetch a published pack over a worker channel, once per process.

    ``channel`` is a :class:`repro.serving.transports.TcpWorkerChannel`
    (anything with ``address`` and ``fetch_pack``).  Repeat calls for
    the same ``(service, pack)`` reuse the cached copy instead of
    re-downloading -- workers pay the transfer exactly once.
    """
    key = (str(channel.address), name)
    if cache and key in _FETCHED_PACKS:
        return _FETCHED_PACKS[key]
    buffer, manifest = channel.fetch_pack(name)
    pack = FetchedArrayPack(buffer, manifest)
    if cache:
        _FETCHED_PACKS[key] = pack
    return pack
