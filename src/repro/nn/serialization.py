"""Persist model state dicts as ``.npz`` archives, and export them.

:func:`save_module` writes a trained module's parameters to an
``.npz`` archive (``np.load`` reads it back), e.g. the offline GON
after Algorithm-1 training.

Two read-only export paths back the fleet-scale serving layer
(:mod:`repro.serving`):

* :func:`freeze_state` -- read-only *views* of a state dict, so one
  process's weights can be handed out without risking mutation;
* :func:`pack_state` / :func:`unpack_state` -- flatten a state dict
  into one contiguous buffer plus a picklable manifest, the layout
  the fleet serves over its socket so worker processes mount
  zero-copy weight views over the received bytes.

A third path backs the graph-free fast inference backend
(:mod:`repro.core.fastscore`):

* :func:`export_inference` -- snapshot a trained module into an
  :class:`InferencePack` of frozen, contiguous float64 arrays plus
  architecture metadata;
* :func:`verify_inference_pack` -- the export/verify discipline: the
  pack must name-for-name, shape-for-shape match the module it claims
  to describe, hold float64 arrays, round-trip bit-exactly through
  :func:`pack_state`/:func:`unpack_state`, and equal the live
  parameters exactly.  Backends refuse packs that fail
  verification instead of silently producing wrong scores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .module import Module

__all__ = [
    "save_state",
    "save_module",
    "freeze_state",
    "pack_state",
    "unpack_state",
    "StateManifest",
    "InferencePack",
    "export_inference",
    "verify_inference_pack",
]

#: Per-array layout entry: (name, shape, dtype string, byte offset).
StateManifest = List[Tuple[str, Tuple[int, ...], str, int]]

#: Byte alignment of packed arrays (8 covers every numeric dtype used).
_ALIGN = 8


def save_state(state: Dict[str, np.ndarray], path: str) -> None:
    """Write a ``{name: array}`` dict to ``path`` (npz)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def save_module(module: Module, path: str) -> None:
    """Persist a module's parameters."""
    save_state(module.state_dict(), path)


def freeze_state(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Read-only views of ``state`` (zero-copy weight export).

    The returned arrays share memory with the originals but refuse
    writes, so they can be mounted into a model with
    ``load_state_dict(views, copy=False)`` and shared across consumers
    without defensive copies.
    """
    frozen: Dict[str, np.ndarray] = {}
    for name, array in state.items():
        view = np.asarray(array).view()
        view.flags.writeable = False
        frozen[name] = view
    return frozen


def pack_state(
    state: Dict[str, np.ndarray]
) -> Tuple[np.ndarray, StateManifest]:
    """Flatten a state dict into one byte buffer plus its manifest.

    Arrays are laid out back to back (8-byte aligned, C order, sorted
    by name so the layout is a pure function of the state).  The
    manifest is a plain picklable list, cheap to ship to workers; the
    buffer is what crosses the fleet wire.
    """
    manifest: StateManifest = []
    offset = 0
    arrays = {name: np.ascontiguousarray(state[name]) for name in sorted(state)}
    for name, array in arrays.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        manifest.append((name, tuple(array.shape), array.dtype.str, offset))
        offset += array.nbytes
    buffer = np.zeros(max(offset, 1), dtype=np.uint8)
    for (name, _shape, _dtype, start), array in zip(manifest, arrays.values()):
        buffer[start:start + array.nbytes] = array.view(np.uint8).reshape(-1)
    return buffer, manifest


@dataclass(frozen=True)
class InferencePack:
    """Flat, frozen export of a trained module for graph-free inference.

    ``arrays`` holds read-only, C-contiguous copies of every parameter
    in name-sorted order; ``meta`` carries whatever architecture facts
    a backend needs to rebuild the computation without the module graph
    (e.g. hidden width and layer counts for the GON kernels).  Packs
    are picklable and safe to share across threads -- nothing in them
    aliases live training state.
    """

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, object] = field(default_factory=dict)


def export_inference(
    module: Module, meta: Dict[str, object] | None = None
) -> InferencePack:
    """Snapshot ``module`` into an :class:`InferencePack`.

    Parameters are copied (not viewed) as float64 and frozen, so later
    fine-tuning of the live module cannot leak into a backend that
    captured a pack -- backends re-export after every generation bump
    instead.
    """
    arrays: Dict[str, np.ndarray] = {}
    state = module.state_dict()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name], dtype=np.float64)
        array.flags.writeable = False
        arrays[name] = array
    return InferencePack(arrays=arrays, meta=dict(meta or {}))


def verify_inference_pack(pack: InferencePack, module: Module) -> None:
    """Check that ``pack`` faithfully describes ``module`` or raise.

    Raises ``KeyError`` on missing/unexpected array names, ``ValueError``
    on shape mismatches or non-float64 arrays, and ``AssertionError``
    if the arrays fail the bit-exact
    :func:`pack_state`/:func:`unpack_state` round-trip or differ from
    the live parameters.
    """
    expected = {name: param.data for name, param in module.named_parameters()}
    missing = sorted(set(expected) - set(pack.arrays))
    unexpected = sorted(set(pack.arrays) - set(expected))
    if missing or unexpected:
        raise KeyError(
            f"inference pack mismatch: missing={missing} "
            f"unexpected={unexpected}"
        )
    for name, array in pack.arrays.items():
        if tuple(array.shape) != tuple(expected[name].shape):
            raise ValueError(
                f"inference pack shape mismatch for {name!r}: "
                f"{tuple(array.shape)} != {tuple(expected[name].shape)}"
            )
        if array.dtype != np.float64:
            raise ValueError(
                f"inference pack dtype mismatch for {name!r}: "
                f"{array.dtype} != float64"
            )
    # Bit-exact round-trip through the fleet's pack format: the
    # flat layout must reproduce every array byte for byte.
    buffer, manifest = pack_state(dict(pack.arrays))
    rebuilt = unpack_state(buffer, manifest)
    for name, array in pack.arrays.items():
        assert np.array_equal(rebuilt[name], array), name
        assert np.array_equal(array, expected[name]), name


def unpack_state(
    buffer, manifest: StateManifest, writeable: bool = False
) -> Dict[str, np.ndarray]:
    """Rebuild ``{name: array}`` views into a packed buffer.

    ``buffer`` may be a ``numpy`` array or any buffer-protocol object;
    the returned arrays are zero-copy views, read-only by default.
    """
    state: Dict[str, np.ndarray] = {}
    for name, shape, dtype, offset in manifest:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buffer,
                          offset=offset)
        view.flags.writeable = bool(writeable)
        state[name] = view
    return state
