"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so layer
construction is reproducible through :class:`repro.rng.RngFactory` streams.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero array (bias default)."""
    return np.zeros(shape, dtype=float)


def normal(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    *,
    std: float,
) -> np.ndarray:
    """Gaussian init with the given standard deviation (the embeddings')."""
    if std <= 0:
        raise ModelError(f"std must be positive, got {std}")
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform init for (fan_in, fan_out) weight matrices."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init, suited to ReLU networks."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    raise ModelError(f"initializers support 1-D/2-D shapes, got {shape}")
