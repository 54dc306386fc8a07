"""Adam over one flat parameter buffer, and global gradient-norm clipping.

The paper trains every model with Adam plus weight decay 1e-4 (§V-A).
:class:`Adam` implements classic L2-coupled decay: the decay term is added
to the gradient.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ModelError
from .module import Parameter

#: Adam's moment decay rates and denominator guard (the usual defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with L2-coupled weight decay over one flat parameter buffer.

    On construction the parameters are copied into one contiguous float64
    buffer and each ``param.data`` is rebound to its view of it, so a step
    runs a handful of ufuncs over the whole buffer instead of a loop per
    parameter. Elementwise updates are layout-independent, so results are
    bitwise those of a per-parameter loop. Parameter values must therefore
    only be changed in place (``param.data[...] = ...``); a rebound
    ``param.data`` no longer trains and fails the next step.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        *,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ModelError("optimizer received no trainable parameters")
        if not math.isfinite(lr) or lr <= 0:
            raise ModelError(f"learning rate must be positive and finite, got {lr}")
        _check_distinct(self.parameters)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self._flat = np.concatenate([p.data.ravel() for p in self.parameters])
        offset = 0
        for param in self.parameters:
            size = param.data.size
            param.data = self._flat[offset : offset + size].reshape(param.data.shape)
            offset += size
        self._step_count = 0
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def zero_grad(self) -> None:
        """Clear gradient buffers on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one Adam update from the parameters' gradients."""
        grad = self._flat_grad()
        if self.weight_decay:
            grad = grad + self.weight_decay * self._flat
        self._step_count += 1
        bias1 = 1.0 - BETA1**self._step_count
        bias2 = 1.0 - BETA2**self._step_count
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        self._flat -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

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


def _check_distinct(parameters: list[Parameter]) -> None:
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


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for training diagnostics).
    """
    if not math.isfinite(max_norm) or max_norm <= 0:
        raise ModelError(f"max_norm must be positive and finite, got {max_norm}")
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
