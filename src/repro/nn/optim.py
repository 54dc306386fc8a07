"""Optimizers: SGD (with momentum), Adam, and AdamW.

The paper trains every model with Adam plus weight decay 1e-4 (§V-A). Adam
here implements classic L2-coupled decay (decay added to the gradient);
AdamW implements decoupled decay. Both are provided so the difference can be
ablated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError
from .autograd import Tensor


class Optimizer:
    """Base optimizer: owns one flat buffer holding all its parameters.

    On construction the parameters are copied into one contiguous float64
    buffer and each ``param.data`` is rebound to its view of it, so the
    update rules run a handful of ufuncs over the whole buffer per step
    instead of a loop per parameter. Elementwise updates are
    layout-independent, so results are bitwise those of a per-parameter
    loop. Parameter values must therefore only be changed in place
    (``param.data[...] = ...``, as ``Module.load_state_dict`` does); a
    rebound ``param.data`` no longer trains and fails the next step.
    """

    def __init__(self, parameters: Sequence[Tensor], lr: float) -> None:
        self.parameters = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ModelError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ModelError(f"learning rate must be positive, got {lr}")
        _check_distinct(self.parameters)
        self.lr = float(lr)
        self._flat = np.concatenate([p.data.ravel() for p in self.parameters])
        offset = 0
        for param in self.parameters:
            size = param.data.size
            param.data = self._flat[offset : offset + size].reshape(param.data.shape)
            offset += size

    def zero_grad(self) -> None:
        """Clear gradient buffers on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update; subclasses implement."""
        raise NotImplementedError

    def _flat_grad(self) -> np.ndarray:
        """Every parameter's gradient (zeros where absent), concatenated."""
        grads = []
        for param in self.parameters:
            if param.data.base is not self._flat:
                raise ModelError(
                    "a parameter's storage was rebound after the optimizer packed "
                    "it; change parameter values in place"
                )
            grad = param.grad
            grads.append(grad.ravel() if grad is not None else np.zeros(param.size))
        return np.concatenate(grads)


def _check_distinct(parameters: list[Tensor]) -> None:
    """Reject a parameter listed twice or two parameters sharing memory."""
    for i, param in enumerate(parameters):
        for other in parameters[:i]:
            if other is param:
                raise ModelError(
                    f"parameter #{i} (shape {param.shape}) is listed twice"
                )
            if np.shares_memory(other.data, param.data):
                raise ModelError(
                    f"parameter #{i} (shape {param.shape}) aliases the memory of "
                    f"another parameter (shape {other.shape})"
                )


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 0.01,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ModelError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = np.zeros_like(self._flat)

    def step(self) -> None:
        grad = self._flat_grad()
        if self.weight_decay:
            grad = grad + self.weight_decay * self._flat
        if self.momentum:
            self._velocity *= self.momentum
            self._velocity += grad
            update = self._velocity
        else:
            update = grad
        self._flat -= self.lr * update


class Adam(Optimizer):
    """Adam with L2-coupled weight decay (the paper's training setup)."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 1e-3,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ModelError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def step(self) -> None:
        grad = self._flat_grad()
        if self.weight_decay:
            grad = grad + self.weight_decay * self._flat
        self._adam_update(grad)

    def _adam_update(self, grad: np.ndarray) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        self._flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def step(self) -> None:
        if self.weight_decay:
            self._flat -= self.lr * self.weight_decay * self._flat
        self._adam_update(self._flat_grad())


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for training diagnostics).
    """
    if max_norm <= 0:
        raise ModelError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float((grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm
