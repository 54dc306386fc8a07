"""Adam over one flat parameter buffer, with optional global gradient-norm clipping.

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
    results are bitwise those of a per-parameter loop. The same holds for
    the optional norm clip (``step(max_grad_norm=...)``): one square of
    the buffer, one sum per parameter's segment, added in parameter order
    as a per-parameter loop adds them, and one scale of the buffer.

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
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        self._grads: list[np.ndarray] = []
        #: Each parameter's segment of the first scratch buffer, where the
        #: norm clip squares the gradients.
        self._squared: list[np.ndarray] = []
        offset = 0
        for param in self.parameters:
            size, shape = param.data.size, param.data.shape
            param.data = self.flat[offset : offset + size].reshape(shape)
            grad = self.flat_grad[offset : offset + size].reshape(shape)
            if param.grad is not None:
                grad[...] = param.grad
            param.grad = grad
            self._grads.append(grad)
            self._squared.append(self._scratch[0][offset : offset + size])
            offset += size
        self._step_count = 0
        self._m = np.zeros_like(self.flat)
        self._v = np.zeros_like(self.flat)

    def step(self, *, max_grad_norm: float | None = None) -> None:
        """Apply one Adam update from the gradient buffer.

        With ``max_grad_norm`` the gradients are first scaled in place so
        that their global L2 norm is at most ``max_grad_norm``. Each
        parameter's squared gradient is summed as ``(grad**2).sum()`` sums
        it, and the sums are added in parameter order, so the clip is
        bitwise that of a loop over the parameters.
        """
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
        if max_grad_norm is not None:
            self._clip(max_grad_norm)
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
        if bias1 == 1.0:
            # BETA1**t has fallen below half an ulp of 1 (from t = 356 on),
            # and m / 1.0 is m: skip that pass.
            update = np.multiply(m, self.lr, out=second)
        else:
            update = np.divide(m, bias1, out=second)
            update *= self.lr
        update /= denominator
        self.flat -= update

    def _clip(self, max_norm: float) -> None:
        """Scale the gradient buffer so its global L2 norm is at most ``max_norm``."""
        if not math.isfinite(max_norm) or max_norm <= 0:
            raise ModelError(f"max_norm must be positive and finite, got {max_norm}")
        np.multiply(self.flat_grad, self.flat_grad, out=self._scratch[0])
        total = 0.0
        for squared in self._squared:
            total += float(np.add.reduce(squared))
        norm = math.sqrt(total)
        if norm > max_norm and norm > 0:
            self.flat_grad *= max_norm / norm


def _check_distinct(parameters: list[Parameter]) -> None:
    """Reject a parameter listed twice or two parameters sharing memory."""
    for i, param in enumerate(parameters):
        for other in parameters[:i]:
            if other is param:
                raise ModelError(
                    f"parameter #{i} (shape {param.data.shape}) is listed twice"
                )
            if np.shares_memory(other.data, param.data):
                raise ModelError(
                    f"parameter #{i} (shape {param.data.shape}) aliases the memory of "
                    f"another parameter (shape {other.data.shape})"
                )
