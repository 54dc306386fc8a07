"""Layers: Linear, Embedding, activations, Dropout, Sequential, MLP.

Every layer takes an explicit RNG for weight init so model construction is
deterministic under :class:`repro.rng.RngFactory`.

Besides the tape ``forward(Tensor)``, the layers the paper's networks use
(Linear, Embedding, ReLU, Tanh, MLP) carry a fused numpy pass:
``forward_array(x)`` returns the output array, and
``backward_array(x, y, grad)`` takes d(output), adds every parameter's
gradient into its ``.grad`` and returns d(input). Each mirrors the ufunc
sequence of the tape ops it replaces, so the gradients are bitwise equal.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ModelError
from . import init, kernels
from .autograd import Tensor, concat, ensure_tensor
from .module import Module


def _add_grad(param: Tensor, grad: np.ndarray) -> None:
    """Accumulate a freshly allocated ``grad`` into ``param.grad``."""
    if param.grad is None:
        param.grad = grad
    else:
        param.grad += grad


class Linear(Module):
    """Affine map ``y = x W + b`` with ``W`` of shape (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        bias: bool = True,
        initializer: Callable[[tuple[int, ...], np.random.Generator], np.ndarray] = init.he_uniform,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ModelError(
                f"Linear dims must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(initializer((in_features, out_features), rng), requires_grad=True)
        self.bias = Tensor(init.zeros((out_features,)), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """``x W + b`` on a 2-D batch."""
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward_array(
        self, x: np.ndarray, y: np.ndarray | None, grad: np.ndarray
    ) -> np.ndarray:
        """Add d(W), d(b) from ``grad`` = d(y); return d(x)."""
        if self.bias is not None:
            _add_grad(self.bias, grad.sum(axis=0))
        _add_grad(self.weight, x.T @ grad)
        return grad @ self.weight.data.T


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        *,
        std: float = 0.05,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ModelError(
                f"Embedding dims must be positive, got ({num_embeddings}, {embedding_dim})"
            )
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            init.normal((num_embeddings, embedding_dim), rng, std=std), requires_grad=True
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight.gather_rows(self.check_ids(ids))

    def forward_array(self, ids: np.ndarray) -> np.ndarray:
        """Rows of the table for ``ids``, a 1-D integer array that
        :meth:`check_ids` has validated (once for all tables it indexes)."""
        return self.weight.data[ids]

    def backward_array(
        self, ids: np.ndarray, grad: np.ndarray, positions: np.ndarray | None = None
    ) -> None:
        """Scatter-add ``grad`` = d(rows) into the table's gradient.

        ``positions`` is ``kernels.scatter_positions(ids, embedding_dim)``
        when the caller shares it between tables looked up by the same ids.
        """
        _add_grad(
            self.weight,
            kernels.scatter_rows(ids, grad, self.num_embeddings, positions),
        )

    def check_ids(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` as an integer array; raises unless each is a row of the table."""
        ids = np.asarray(ids, dtype=int)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ModelError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return ids


class ReLU(Module):
    """Rectified linear activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).relu()

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return kernels.relu(x)

    def backward_array(
        self, x: np.ndarray, y: np.ndarray, grad: np.ndarray
    ) -> np.ndarray:
        return grad * (x > 0)


class Tanh(Module):
    """Hyperbolic tangent activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).tanh()

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward_array(
        self, x: np.ndarray, y: np.ndarray, grad: np.ndarray
    ) -> np.ndarray:
        return grad * (1.0 - y**2)


class Sigmoid(Module):
    """Logistic sigmoid activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).sigmoid()


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ModelError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(float) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]

    def __len__(self) -> int:
        return len(self.steps)


class MLP(Module):
    """Multi-layer perceptron with a uniform hidden activation.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(8, 64, 64, 3)``.
    activation:
        Hidden activation factory (default :class:`ReLU`).
    output_activation:
        Optional activation applied after the final linear layer.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        *,
        activation: Callable[[], Module] = ReLU,
        output_activation: Callable[[], Module] | None = None,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ModelError(f"MLP needs at least input and output sizes, got {sizes}")
        steps: list[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            initializer = init.xavier_uniform if last else init.he_uniform
            steps.append(Linear(fan_in, fan_out, rng, initializer=initializer))
            if not last:
                steps.append(activation())
        if output_activation is not None:
            steps.append(output_activation())
        self.body = Sequential(*steps)

    def forward(self, x) -> Tensor:
        return self.body(x)

    def forward_array(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output array plus the trace of every step's input and output.

        Every activation in the MLP must have a fused pass (ReLU, Tanh).
        """
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


def concat_features(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate feature tensors along the last axis (thin re-export)."""
    return concat(list(parts), axis=axis)
