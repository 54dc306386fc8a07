"""Numpy kernels of the fused network passes and the loss heads.

Each kernel is one fixed ufunc sequence, written once and shared by the
layers' forward/backward (:mod:`repro.nn.layers`), the loss heads and the
tests' tape oracle. Sharing the exact sequence is what keeps the fused
gradients bitwise equal to the tape's.
"""

from __future__ import annotations

import numpy as np

# ``clip`` is the ufunc that ``np.clip`` ends in: called directly, it skips
# two Python wrappers and gives the same bits.
try:
    from numpy._core.umath import clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip

#: Inputs to exp/sigmoid are clipped to this magnitude to avoid overflow.
EXP_CLIP = 60.0


def relu(values: np.ndarray) -> np.ndarray:
    """``x * (x > 0)``: negative inputs map to ``-0.0``, as on the tape."""
    return values * (values > 0)


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Logistic sigmoid with the input clipped to ``±EXP_CLIP``."""
    return 1.0 / (1.0 + np.exp(-clip(values, -EXP_CLIP, EXP_CLIP)))


#: Rows narrower than this are reduced column by column (:func:`row_sum`).
NARROW_ROW = 8


def row_sum(values: np.ndarray, *, nonnegative: bool = False) -> np.ndarray:
    """``values.sum(axis=-1)`` of a 2-D array with
    ``1 <= width < NARROW_ROW`` columns, bitwise, as column adds.

    numpy sums a row that short one element at a time onto a zero start,
    ``((0.0 + x0) + x1) + ...``; a few column ufuncs cost less than its
    reduction machinery on small batches. The zero start only turns a
    ``-0.0`` first entry into ``+0.0``, so ``nonnegative=True`` (no entry
    is ``-0.0``, as for the output of an ``exp``) drops it.
    """
    if nonnegative and values.shape[1] > 1:
        total = values[:, 0] + values[:, 1]
        first = 2
    else:
        total = values[:, 0] + 0.0
        first = 1
    for k in range(first, values.shape[1]):
        total += values[:, k]
    return total


def row_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=-1)`` of a 2-D array with at
    least one column: ``np.maximum`` folded left to right, as numpy does."""
    if values.shape[1] == 1:
        return values[:, 0].copy()
    top = np.maximum(values[:, 0], values[:, 1])
    for k in range(2, values.shape[1]):
        np.maximum(top, values[:, k], out=top)
    return top


def matmul_k1(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``column @ row`` for ``(n, 1) @ (1, m)``, bitwise, as a broadcast.

    numpy forms each entry of a one-term matmul as ``0.0 + a * b`` (so a
    ``-0.0`` product comes out ``+0.0``), in its own loop rather than
    BLAS; the broadcast product plus that zero start costs less.
    """
    out = column * row
    out += 0.0
    return out


def log_softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``.

    Narrow 2-D rows (the strata and action heads) reduce through
    :func:`row_max`/:func:`row_sum`, bitwise equal to numpy's reductions.
    """
    if values.ndim == 2 and axis in (-1, 1) and 0 < values.shape[1] < NARROW_ROW:
        shifted = values - row_max(values)[:, None]
        return shifted - np.log(row_sum(np.exp(shifted), nonnegative=True))[:, None]
    shifted = values - values.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def scatter_add(positions: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum ``weights`` into a zero ``(size,)`` float array at ``positions``.

    The backward of a gather ``flat.take(positions)``. One ``np.bincount``
    adds each element onto a zero start in ascending input order, so it is
    bitwise equal to ``np.add.at`` into zeros, repeated positions and
    signed zeros included, and each position's sum is independent of the
    positions interleaved with it. ``positions`` must be non-negative.
    """
    summed = np.bincount(positions.ravel(), weights=weights.ravel(), minlength=size)
    # An empty input makes bincount return integer zeros.
    return np.asarray(summed, dtype=float)
