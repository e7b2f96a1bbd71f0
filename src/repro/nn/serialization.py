"""Persist model state dicts as ``.npz`` archives, and export them.

The offline-trained GON is saved once after Algorithm-1 training and
reloaded by CAROL and the experiment harness; baselines use the same
mechanism for their surrogates.

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
  :class:`InferencePack` of frozen, contiguous arrays plus
  architecture metadata, optionally downcast to ``float32`` for the
  scoring (never training) path;
* :func:`verify_inference_pack` -- the export/verify discipline: the
  pack must name-for-name, shape-for-shape match the module it claims
  to describe, values must round-trip bit-exactly through
  :func:`pack_state`/:func:`unpack_state`, and a ``float64`` pack must
  equal the live parameters exactly.  Backends refuse packs that fail
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
    "load_state",
    "save_module",
    "load_module",
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


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def save_module(module: Module, path: str) -> None:
    """Persist a module's parameters."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str) -> Module:
    """Load parameters into ``module`` in place and return it."""
    module.load_state_dict(load_state(path))
    return module


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


#: Dtypes the inference export accepts (training always stays float64).
_INFERENCE_DTYPES = ("float64", "float32")


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
    dtype: str = "float64"


def export_inference(
    module: Module,
    meta: Dict[str, object] | None = None,
    dtype: str = "float64",
) -> InferencePack:
    """Snapshot ``module`` into an :class:`InferencePack`.

    Parameters are copied (not viewed), cast to ``dtype`` and frozen,
    so later fine-tuning of the live module cannot leak into a backend
    that captured a pack -- backends re-export after every generation
    bump instead.
    """
    if dtype not in _INFERENCE_DTYPES:
        raise ValueError(
            f"unsupported inference dtype {dtype!r}; "
            f"expected one of {_INFERENCE_DTYPES}"
        )
    target = np.dtype(dtype)
    arrays: Dict[str, np.ndarray] = {}
    state = module.state_dict()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name], dtype=target)
        array.flags.writeable = False
        arrays[name] = array
    return InferencePack(arrays=arrays, meta=dict(meta or {}), dtype=dtype)


def verify_inference_pack(pack: InferencePack, module: Module) -> None:
    """Check that ``pack`` faithfully describes ``module`` or raise.

    Raises ``KeyError`` on missing/unexpected array names, ``ValueError``
    on shape or dtype mismatches, and ``AssertionError`` if the arrays
    fail the bit-exact :func:`pack_state`/:func:`unpack_state`
    round-trip or (for float64 packs) differ from the live parameters.
    """
    expected = {name: param.data for name, param in module.named_parameters()}
    missing = sorted(set(expected) - set(pack.arrays))
    unexpected = sorted(set(pack.arrays) - set(expected))
    if missing or unexpected:
        raise KeyError(
            f"inference pack mismatch: missing={missing} "
            f"unexpected={unexpected}"
        )
    if pack.dtype not in _INFERENCE_DTYPES:
        raise ValueError(f"unsupported inference dtype {pack.dtype!r}")
    for name, array in pack.arrays.items():
        if tuple(array.shape) != tuple(expected[name].shape):
            raise ValueError(
                f"inference pack shape mismatch for {name!r}: "
                f"{tuple(array.shape)} != {tuple(expected[name].shape)}"
            )
        if array.dtype != np.dtype(pack.dtype):
            raise ValueError(
                f"inference pack dtype mismatch for {name!r}: "
                f"{array.dtype} != {pack.dtype}"
            )
    # Bit-exact round-trip through the fleet's pack format: the
    # flat layout must reproduce every array byte for byte.
    buffer, manifest = pack_state(dict(pack.arrays))
    rebuilt = unpack_state(buffer, manifest)
    for name, array in pack.arrays.items():
        assert np.array_equal(rebuilt[name], array), name
    if pack.dtype == "float64":
        for name, array in pack.arrays.items():
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
