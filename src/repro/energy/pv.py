"""Photovoltaic plant model.

Converts the weather feed's global horizontal irradiance into AC power with
the standard performance-ratio formulation:

``P = rated_kw · (GHI / 1000 W/m²) · performance_ratio``

clipped to the inverter rating. This is the ``P_PV(t)`` term of Eq. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class PvConfig:
    """PV plant parameters.

    Attributes
    ----------
    rated_kw:
        Nameplate DC rating at reference irradiance.
    performance_ratio:
        Lumped derating (soiling, wiring, inverter), typically 0.75–0.85.
    reference_irradiance_w_m2:
        Irradiance at which the plant produces ``rated_kw``.
    inverter_limit_kw:
        AC clip level; defaults to the DC rating when non-positive.
    """

    rated_kw: float = 20.0
    performance_ratio: float = 0.8
    reference_irradiance_w_m2: float = 1000.0
    inverter_limit_kw: float = 0.0

    def __post_init__(self) -> None:
        if self.rated_kw < 0:
            raise ConfigError(f"rated_kw must be non-negative, got {self.rated_kw}")
        if not 0.0 < self.performance_ratio <= 1.0:
            raise ConfigError(
                f"performance_ratio must be in (0, 1], got {self.performance_ratio}"
            )
        if self.reference_irradiance_w_m2 <= 0:
            raise ConfigError("reference_irradiance_w_m2 must be positive")
        if self.inverter_limit_kw < 0:
            raise ConfigError("inverter_limit_kw must be non-negative")


def pv_power_kw(
    rated_kw: np.ndarray | float,
    irradiance_w_m2: np.ndarray | float,
    config: PvConfig,
) -> np.ndarray:
    """AC power of plants that share ``config`` apart from their rating.

    ``rated_kw`` broadcasts against ``irradiance_w_m2``: a ``(n_hubs, 1)``
    column of ratings over ``(n_hubs, horizon)`` irradiance rows converts
    a whole fleet at once. The AC clip is ``config.inverter_limit_kw``
    when set, else each plant's own rating.
    """
    ghi = np.asarray(irradiance_w_m2, dtype=float)
    if ghi.size and ghi.min() < 0:
        raise ConfigError("irradiance must be non-negative")
    raw = rated_kw * config.performance_ratio * ghi / config.reference_irradiance_w_m2
    clip_kw = config.inverter_limit_kw if config.inverter_limit_kw > 0 else rated_kw
    return np.minimum(raw, clip_kw)


class PvArray:
    """A PV plant producing ``P_PV(t)`` from irradiance."""

    def __init__(self, config: PvConfig | None = None) -> None:
        self.config = config or PvConfig()

    def power_kw(self, irradiance_w_m2: np.ndarray | float) -> np.ndarray | float:
        """AC power for the given irradiance (array-friendly)."""
        power = pv_power_kw(self.config.rated_kw, irradiance_w_m2, self.config)
        return power if np.ndim(irradiance_w_m2) else float(power)
