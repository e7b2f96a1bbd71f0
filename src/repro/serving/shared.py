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

__all__ = ["fetch_array_pack"]

#: Per-process cache of fetched packs: ``(service address, pack name)``.
_FETCHED_PACKS: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}


def fetch_array_pack(channel, name: str) -> Dict[str, np.ndarray]:
    """Fetch a published pack over a worker channel, once per process.

    ``channel`` is a :class:`repro.serving.transports.TcpWorkerChannel`
    (anything with ``address`` and ``fetch_pack``).  Returns the pack's
    arrays as read-only zero-copy views over the received buffer.
    Repeat calls for the same ``(service, pack)`` reuse the cached
    arrays instead of re-downloading -- workers pay the transfer
    exactly once.
    """
    key = (str(channel.address), name)
    arrays = _FETCHED_PACKS.get(key)
    if arrays is None:
        buffer, manifest = channel.fetch_pack(name)
        arrays = _FETCHED_PACKS[key] = unpack_state(buffer, list(manifest))
    return arrays
