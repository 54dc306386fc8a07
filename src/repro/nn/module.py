"""Module base class and the plain :class:`Parameter` it registers.

Attributes that are :class:`Parameter` are parameters; attributes that are
Modules (or lists of Modules) recurse. The discovery order is the
attribute order, and it is load-bearing: :class:`~repro.nn.optim.Adam`
lays out its flat value and gradient buffers in it (the NCF network reads
its four embedding tables as the head of that buffer), and its norm clip
adds the parameters' squared gradients in it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class Parameter:
    """A trainable array and its gradient (``None`` until a backward writes one)."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=float)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the value array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar entries."""
        return self.data.size


class Module:
    """Base class for all neural network modules."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{index}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module tree."""
        return [param for _, param in self.named_parameters()]

    def forward(self, *args, **kwargs):
        """Subclasses implement the computation here."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
