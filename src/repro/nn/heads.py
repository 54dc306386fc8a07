"""Numpy loss heads: each returns ``(loss, d_logits)`` for the fused backward.

A head runs the forward of its loss and the backward to the gradient of
the loss with respect to its input, both as plain ufunc sequences. The
gradient seeds a network's fused ``backward``, so training runs no
autograd tape.

Each head mirrors, op for op, the tape expression it replaces (kept as a
frozen oracle in ``tests/test_fused_steps.py``), so losses and gradients
are bitwise the tape's:

* a mean is ``sum() * (1.0 / count)``, and its backward is a full array
  of that scale, written as the scalar ``1.0 / count`` (a scalar
  broadcasts to the same bits);
* where a node feeds several consumers, its gradient is summed in the
  order the tape's reverse topological sort delivers them;
* a ``select_columns`` scatter adds onto zero (``0.0 + x``), which turns
  ``-0.0`` into ``+0.0``.

The model-specific heads (the ECT-Price objective, PPO) live next to
their models and follow the same rules.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean ``max(z, 0) - z*y + log(1 + exp(-|z|))`` and its d(logits)."""
    neg_logits = -logits
    take_abs = logits >= neg_logits
    # -|z|, the tape's max(z, -z) negated: negation is exact.
    neg_abs_logits = np.where(take_abs, neg_logits, logits)
    take_pos = logits >= 0.0
    exp_neg_abs = np.exp(np.clip(neg_abs_logits, -kernels.EXP_CLIP, kernels.EXP_CLIP))
    # The tape's log floors its input at 1e-12; ``1 + exp(...)`` is >= 1.
    safe = exp_neg_abs + 1.0
    losses = (np.where(take_pos, logits, 0.0) + -(logits * targets)) + np.log(safe)
    loss = float(losses.sum() * (1.0 / logits.size))

    w = 1.0 / logits.size  # every entry of the mean's gradient
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
    half = (1.0 / diff.size) * diff  # the mean's gradient times diff
    return loss, half + half
