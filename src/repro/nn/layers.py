"""Layers: Linear, Embedding, ReLU, Tanh, Sequential, MLP.

Every layer takes an explicit RNG for weight init so model construction is
deterministic under :class:`repro.rng.RngFactory`.

Each layer with a fused numpy pass carries it as ``forward_array(x)``,
which returns the output array, and ``backward_array(x, y, grad)``, which
takes d(output), writes every parameter's gradient into its ``.grad`` and
returns d(input). The write goes into the existing array (``out=``), so
once :class:`~repro.nn.optim.Adam` has packed a parameter its gradient
lands straight in the optimizer's flat buffer. An :class:`Embedding` is
only a table: the network that owns it reads and trains it (see
:class:`repro.causal.ncf.NcfNetwork`).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ModelError
from . import init, kernels
from .module import Module, Parameter


def _grad_buffer(param: Parameter) -> np.ndarray:
    """``param.grad``, the array a backward writes into (allocated once)."""
    if param.grad is None:
        param.grad = np.empty(param.shape)
    return param.grad


class Linear(Module):
    """Affine map ``y = x W + b`` with ``W`` of shape (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        initializer: Callable[[tuple[int, ...], np.random.Generator], np.ndarray] = init.he_uniform,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ModelError(
                f"Linear dims must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializer((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """``x W + b`` on a 2-D batch, or blockwise on a stack of them."""
        out = x @ self.weight.data
        out += self.bias.data
        return out

    def backward_params(self, x: np.ndarray, grad: np.ndarray) -> None:
        """Write d(W), d(b) from ``grad`` = d(y) of a 2-D batch."""
        np.add.reduce(grad, axis=0, out=_grad_buffer(self.bias))
        np.matmul(x.T, grad, out=_grad_buffer(self.weight))

    def backward_array(
        self, x: np.ndarray, y: np.ndarray | None, grad: np.ndarray
    ) -> np.ndarray:
        """Write d(W), d(b) from ``grad`` = d(y); return d(x)."""
        self.backward_params(x, grad)
        return grad @ self.weight.data.T


class Embedding(Module):
    """A table of ``num_embeddings`` dense rows (normal init, std 0.05)."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
    ) -> None:
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ModelError(
                f"Embedding dims must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=0.05))


class ReLU(Module):
    """Rectified linear activation layer."""

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return kernels.relu(x)

    def backward_array(
        self, x: np.ndarray, y: np.ndarray, grad: np.ndarray
    ) -> np.ndarray:
        return grad * (x > 0)


class Tanh(Module):
    """Hyperbolic tangent activation layer."""

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward_array(
        self, x: np.ndarray, y: np.ndarray, grad: np.ndarray
    ) -> np.ndarray:
        return grad * (1.0 - y**2)


class Sequential(Module):
    """Ordered list of modules (their parameters are named ``steps.<i>.*``)."""

    def __init__(self, *modules: Module) -> None:
        self.steps = list(modules)


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(8, 64, 64, 3)``.
    output_activation:
        Optional activation applied after the final linear layer.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        *,
        output_activation: Callable[[], Module] | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ModelError(f"MLP needs at least input and output sizes, got {sizes}")
        steps: list[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            initializer = init.xavier_uniform if last else init.he_uniform
            steps.append(Linear(fan_in, fan_out, rng, initializer=initializer))
            if not last:
                steps.append(ReLU())
        if output_activation is not None:
            steps.append(output_activation())
        self.body = Sequential(*steps)

    def forward_array(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output array plus the trace of every step's input and output."""
        trace = [x]
        for step in self.body.steps:
            x = step.forward_array(x)
            trace.append(x)
        return x, trace

    def backward_array(self, trace: list[np.ndarray], grad: np.ndarray) -> np.ndarray:
        """Backpropagate d(output) through ``trace``; return d(input)."""
        steps = self.body.steps
        for i in range(len(steps) - 1, -1, -1):
            grad = steps[i].backward_array(trace[i], trace[i + 1], grad)
        return grad
