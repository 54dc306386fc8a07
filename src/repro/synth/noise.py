"""Noise draws and AR(1) recursions shared by the trace generators.

Every generator keeps one named stream per hub. :func:`normal_rows`
draws each stream's whole noise row in one call — the same numbers, and
the same stream state afterwards, as one scalar draw per slot — and
:func:`ar1_rows` runs the time recursion once for all rows together, over
an ``(n_rows,)`` state vector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def normal_rows(
    rngs: Sequence[np.random.Generator], scale: float, n: int
) -> np.ndarray:
    """``(len(rngs), n)`` plane: one ``normal(0, scale, size=n)`` per stream.

    Each stream fills its row with standard normals in place, and the
    plane is scaled once: ``normal`` computes ``0.0 + scale * z`` per draw,
    and ``*= scale`` then ``+= 0.0`` is that expression bit for bit, with
    each stream left in the same state.
    """
    if scale < 0:
        raise ValueError("scale < 0")
    plane = np.empty((len(rngs), n))
    for rng, row in zip(rngs, plane):
        rng.standard_normal(out=row)
    plane *= scale
    plane += 0.0
    return plane


def ar1_rows(noise: np.ndarray, phi: float, state: np.ndarray) -> np.ndarray:
    """``x_t = phi * x_{t-1} + e_t`` along each row of ``noise``.

    ``state`` holds ``x_{-1}`` per row. The result is C-contiguous, so
    the elementwise functions applied to it afterwards take the same
    vectorized path as they would on a single row.
    """
    out = np.empty(noise.shape[::-1])
    for t, innovation in enumerate(noise.T):
        state = phi * state + innovation
        out[t] = state
    return np.ascontiguousarray(out.T)
