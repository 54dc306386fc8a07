"""Wind turbine model.

A standard piecewise power curve converts hub-height wind speed into the
``P_WT(t)`` term of Eq. 7:

* below ``cut_in`` and above ``cut_out``: zero output;
* between ``cut_in`` and ``rated_speed``: cubic ramp
  ``rated · (v³ − v_ci³) / (v_r³ − v_ci³)``;
* between ``rated_speed`` and ``cut_out``: rated output.

The cubic region is what gives the WT trace in paper Fig. 2 its spiky,
hard-to-predict character.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class WindTurbineConfig:
    """Turbine power-curve parameters (speeds in m/s)."""

    rated_kw: float = 25.0
    cut_in_m_s: float = 3.0
    rated_speed_m_s: float = 12.0
    cut_out_m_s: float = 25.0

    def __post_init__(self) -> None:
        if self.rated_kw < 0:
            raise ConfigError(f"rated_kw must be non-negative, got {self.rated_kw}")
        if not 0.0 <= self.cut_in_m_s < self.rated_speed_m_s < self.cut_out_m_s:
            raise ConfigError(
                "speeds must satisfy 0 <= cut_in < rated_speed < cut_out, got "
                f"({self.cut_in_m_s}, {self.rated_speed_m_s}, {self.cut_out_m_s})"
            )


def turbine_power_kw(
    rated_kw: np.ndarray | float,
    wind_speed_m_s: np.ndarray | float,
    config: WindTurbineConfig,
) -> np.ndarray:
    """Output of turbines that share ``config``'s power curve apart from their rating.

    ``rated_kw`` broadcasts against ``wind_speed_m_s``: a ``(n_hubs, 1)``
    column of ratings over ``(n_hubs, horizon)`` speed rows converts a
    whole fleet at once.
    """
    speed = np.asarray(wind_speed_m_s, dtype=float)
    if speed.size and speed.min() < 0:
        raise ConfigError("wind speed must be non-negative")

    v3 = speed**3
    ci3 = config.cut_in_m_s**3
    r3 = config.rated_speed_m_s**3
    ramp = rated_kw * (v3 - ci3) / (r3 - ci3)

    return np.where(
        (speed < config.cut_in_m_s) | (speed >= config.cut_out_m_s),
        0.0,
        np.where(speed >= config.rated_speed_m_s, rated_kw, np.clip(ramp, 0.0, rated_kw)),
    )


class WindTurbine:
    """A wind turbine producing ``P_WT(t)`` from wind speed."""

    def __init__(self, config: WindTurbineConfig | None = None) -> None:
        self.config = config or WindTurbineConfig()

    def power_kw(self, wind_speed_m_s: np.ndarray | float) -> np.ndarray | float:
        """Power output for the given wind speed (array-friendly)."""
        power = turbine_power_kw(self.config.rated_kw, wind_speed_m_s, self.config)
        return power if np.ndim(wind_speed_m_s) else float(power)
