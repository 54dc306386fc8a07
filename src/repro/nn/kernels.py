"""Numpy kernels shared by the autograd tape and the fused network passes.

Each kernel is written once and called from both sides: a
:class:`~repro.nn.autograd.Tensor` op on the tape, and the hand-derived
forward/backward of the layers in :mod:`repro.nn.layers`. Sharing the
exact ufunc sequence is what keeps fused gradients bitwise equal to the
tape's.
"""

from __future__ import annotations

import math

import numpy as np

#: Inputs to exp/sigmoid are clipped to this magnitude to avoid overflow.
EXP_CLIP = 60.0


def relu(values: np.ndarray) -> np.ndarray:
    """``x * (x > 0)``: negative inputs map to ``-0.0``, as on the tape."""
    return values * (values > 0)


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Logistic sigmoid with the input clipped to ``±EXP_CLIP``."""
    return 1.0 / (1.0 + np.exp(-np.clip(values, -EXP_CLIP, EXP_CLIP)))


def log_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = values - values.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def scatter_positions(indices: np.ndarray, width: int) -> np.ndarray:
    """Flat ``(row, col)`` positions of a row scatter of ``width``-wide rows."""
    return (indices[:, None] * width + np.arange(width)).ravel()


def scatter_rows(
    indices: np.ndarray,
    grad: np.ndarray,
    n_rows: int,
    positions: np.ndarray | None = None,
) -> np.ndarray:
    """Sum the rows of ``grad`` into an ``(n_rows, ...)`` array by ``indices``.

    The backward of a row gather. One ``np.bincount`` over flattened
    ``(row, col)`` positions adds each element in ascending input order
    onto a zero start, so it is bitwise equal to ``np.add.at`` into zeros,
    repeated indices and signed zeros included. ``indices`` must be
    non-negative. ``positions``, when given, is
    ``scatter_positions(indices, width)``, built once for several scatters
    of the same ids.
    """
    tail = grad.shape[1:]
    width = math.prod(tail)
    if positions is None:
        positions = scatter_positions(indices, width)
    summed = np.bincount(positions, weights=grad.ravel(), minlength=n_rows * width)
    # An empty input makes bincount return integer zeros.
    return np.asarray(summed, dtype=float).reshape((n_rows, *tail))
