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
    buffer, :attr:`flat`, and each ``param.data`` is rebound to its view of
    it; each ``param.grad`` likewise becomes its view of a gradient buffer
    of the same layout, :attr:`flat_grad`. A backward pass writes its
    gradients straight into those views, so a step runs a fixed handful of
    ufuncs over the whole buffer, into preallocated scratch, instead of a
    loop per parameter. Elementwise updates are layout-independent, so
    results are bitwise those of a per-parameter loop.

    Parameter values must only be changed in place
    (``param.data[...] = ...``); a rebound ``param.data`` no longer trains
    and fails the next step. A gradient may be assigned
    (``param.grad = array``): the next step copies it into the buffer and
    rebinds the view. ``None`` counts as a zero gradient.
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
        self.flat = np.concatenate([p.data.ravel() for p in self.parameters])
        self.flat_grad = np.zeros_like(self.flat)
        self._grads: list[np.ndarray] = []
        offset = 0
        for param in self.parameters:
            size, shape = param.data.size, param.data.shape
            param.data = self.flat[offset : offset + size].reshape(shape)
            grad = self.flat_grad[offset : offset + size].reshape(shape)
            if param.grad is not None:
                grad[...] = param.grad
            param.grad = grad
            self._grads.append(grad)
            offset += size
        self._step_count = 0
        self._m = np.zeros_like(self.flat)
        self._v = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))

    def zero_grad(self) -> None:
        """Zero the gradient buffer and rebind every ``.grad`` to its view."""
        self.flat_grad.fill(0.0)
        for param, grad in zip(self.parameters, self._grads):
            param.grad = grad

    def step(self) -> None:
        """Apply one Adam update from the gradient buffer."""
        for param, grad in zip(self.parameters, self._grads):
            if param.data.base is not self.flat:
                raise ModelError(
                    "a parameter's storage was rebound after the optimizer packed "
                    "it; change parameter values in place"
                )
            if param.grad is not grad:
                grad[...] = 0.0 if param.grad is None else param.grad
                param.grad = grad
        grad = self.flat_grad
        first, second = self._scratch
        if self.weight_decay:
            grad = np.add(
                grad, np.multiply(self.weight_decay, self.flat, out=first), out=first
            )
        self._step_count += 1
        bias1 = 1.0 - BETA1**self._step_count
        bias2 = 1.0 - BETA2**self._step_count
        m, v = self._m, self._v
        m *= BETA1
        m += np.multiply(1.0 - BETA1, grad, out=second)
        v *= BETA2
        squared = np.multiply(grad, grad, out=second)
        squared *= 1.0 - BETA2
        v += squared
        # ``lr * (m / bias1) / (sqrt(v / bias2) + EPS)``, op for op.
        denominator = np.sqrt(np.divide(v, bias2, out=first), out=first)
        denominator += EPS
        update = np.divide(m, bias1, out=second)
        update *= self.lr
        update /= denominator
        self.flat -= update


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
