"""Numpy loss heads: each returns ``(loss, d_logits)`` for the fused backward.

A head runs the forward of its loss and the backward to the gradient of
the loss with respect to its input, both as plain ufunc sequences. The
gradient seeds a network's fused ``backward``, so training runs no
autograd tape.

Each head mirrors, op for op, the tape expression it replaces (kept as a
frozen oracle in ``tests/test_fused_steps.py``), so losses and gradients
are bitwise the tape's:

* a mean is ``sum() * (1.0 / count)``, and its backward is a full array
  of that scale;
* where a node feeds several consumers, its gradient is summed in the
  order the tape's reverse topological sort delivers them;
* a ``select_columns`` scatter adds onto zero (``0.0 + x``), which turns
  ``-0.0`` into ``+0.0``.

The model-specific heads (the ECT-Price objective, PPO) live next to
their models and follow the same rules.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels


def mean_grad(shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """d(``scale * x.mean()``)/dx: the tape's ``sum() * (1 / count)``."""
    return np.full(shape, scale * (1.0 / math.prod(shape)))


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean ``max(z, 0) - z*y + log(1 + exp(-|z|))`` and its d(logits)."""
    zeros = np.zeros_like(logits)
    neg_logits = -logits
    take_abs = logits >= neg_logits
    abs_logits = np.where(take_abs, logits, neg_logits)
    take_pos = logits >= zeros
    exp_neg_abs = np.exp(np.clip(-abs_logits, -kernels.EXP_CLIP, kernels.EXP_CLIP))
    safe = np.maximum(exp_neg_abs + 1.0, 1e-12)
    losses = (np.where(take_pos, logits, zeros) + -(logits * targets)) + np.log(safe)
    loss = float(losses.sum() * (1.0 / logits.size))

    w = mean_grad(logits.shape)
    d_abs = -((w / safe) * exp_neg_abs)
    # The four consumers of the logits, in tape order: max(z, 0), z * y,
    # max(z, -z) and the -z inside it.
    d_logits = w * take_pos
    d_logits += -w * targets
    d_logits += d_abs * take_abs
    d_logits += -(d_abs * ~take_abs)
    return loss, d_logits


def mse(prediction: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean ``(prediction - targets)**2`` and its d(prediction)."""
    diff = prediction - targets
    loss = float((diff * diff).sum() * (1.0 / diff.size))
    half = mean_grad(diff.shape) * diff
    return loss, half + half
