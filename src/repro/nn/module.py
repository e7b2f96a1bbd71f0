"""Module system: parameter containers with state-dict round-tripping.

A minimal analogue of ``torch.nn.Module``.  Submodules registered as
attributes are discovered automatically, parameters are named by their
attribute path, and :meth:`Module.state_dict` /
:meth:`Module.load_state_dict` serialise to plain dicts of arrays
(persisted via :mod:`repro.nn.serialization`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor flagged as trainable."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network components."""

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(path, parameter)`` pairs in deterministic order."""
        for key in sorted(vars(self)):
            value = getattr(self, key)
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for key in sorted(vars(self)):
            value = getattr(self, key)
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Training-state management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameters into a flat ``{path: array}`` dict."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(
        self, state: Dict[str, np.ndarray], copy: bool = True
    ) -> None:
        """Load parameters in place; shapes must match exactly.

        ``copy=False`` adopts the incoming arrays directly (zero-copy)
        when dtype and shape already match -- the path used to mount
        read-only weight views over a packed buffer (the fleet's
        service replica and fetched worker assets) without copying
        them.  Such parameters cannot be trained until replaced with
        writable copies (see ``FleetScorer`` copy-on-write).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            incoming = np.asarray(state[name])
            if incoming.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{incoming.shape} vs {parameter.data.shape}"
                )
            if not copy and incoming.dtype == parameter.data.dtype:
                parameter.data = incoming
            else:
                parameter.data = incoming.astype(
                    parameter.data.dtype, copy=True
                )

    # ------------------------------------------------------------------
    # Introspection used by the memory-footprint experiments (Fig. 5e/6b)
    # ------------------------------------------------------------------
    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def memory_bytes(self) -> int:
        """Parameter memory (weights + Adam moments, float64)."""
        # Weights plus two optimiser moment buffers, as held at runtime.
        return 3 * sum(p.data.nbytes for p in self.parameters())


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
