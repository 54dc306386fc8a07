"""Synthetic wind speed (NSRDB substitute).

Hourly wind speed is generated as a Weibull-marginal AR(1) process: a
Gaussian AR(1) series is mapped through its own CDF to a uniform, then
through the inverse Weibull CDF. This gives the right marginal distribution
(Weibull with shape ≈ 2 is the standard wind-resource model) while keeping
hour-to-hour persistence — the gusty volatility that paper Fig. 2 shows in
the WT power trace.

A mild diurnal modulation (stronger afternoon winds, typical of surface
stations) is applied multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ..errors import ConfigError
from ..timeutils import SlotCalendar
from .noise import ar1_rows, normal_rows


@dataclass(frozen=True)
class WindConfig:
    """Parameters of the synthetic wind-speed model.

    Attributes
    ----------
    weibull_shape:
        Weibull ``k``; ≈2 (Rayleigh) for typical sites.
    weibull_scale_m_s:
        Weibull ``λ`` in m/s; sets the mean resource level.
    persistence:
        AR(1) coefficient of the latent Gaussian driver.
    diurnal_amplitude:
        Fractional amplitude of the afternoon-peaking diurnal cycle
        (0 disables it).
    diurnal_peak_hour:
        Hour of day of maximum diurnal boost.
    """

    weibull_shape: float = 2.0
    weibull_scale_m_s: float = 7.5
    persistence: float = 0.85
    diurnal_amplitude: float = 0.15
    diurnal_peak_hour: float = 15.0

    def __post_init__(self) -> None:
        if self.weibull_shape <= 0:
            raise ConfigError(f"weibull_shape must be positive, got {self.weibull_shape}")
        if self.weibull_scale_m_s <= 0:
            raise ConfigError(
                f"weibull_scale_m_s must be positive, got {self.weibull_scale_m_s}"
            )
        if not 0.0 <= self.persistence < 1.0:
            raise ConfigError(f"persistence must be in [0, 1), got {self.persistence}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if not 0.0 <= self.diurnal_peak_hour < 24.0:
            raise ConfigError(
                f"diurnal_peak_hour must be in [0, 24), got {self.diurnal_peak_hour}"
            )


def _gaussian_ar1(
    n: int, phi: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Stationary unit-variance Gaussian AR(1) series, one row per stream."""
    initial = np.array([rng.normal(0.0, 1.0) for rng in rngs])
    noise = normal_rows(rngs, np.sqrt(1.0 - phi**2), n)
    return ar1_rows(noise, phi, initial)


def wind_speed_planes(
    n_hours: int,
    config: WindConfig,
    rngs: Sequence[np.random.Generator],
    *,
    calendar: SlotCalendar | None = None,
) -> np.ndarray:
    """Wind speed in m/s, one ``(len(rngs), n_hours)`` row per stream.

    The diurnal modulation is computed once and shared by every row.
    """
    if n_hours < 0:
        raise ConfigError(f"n_hours must be non-negative, got {n_hours}")
    if n_hours == 0:
        return np.empty((len(rngs), 0))
    calendar = calendar or SlotCalendar()

    gaussian = _gaussian_ar1(n_hours, config.persistence, rngs)
    # Probability-integral transform: Gaussian -> uniform -> Weibull marginal.
    uniform = np.clip(special.ndtr(gaussian), 1e-12, 1.0 - 1e-12)
    speeds = config.weibull_scale_m_s * (-np.log1p(-uniform)) ** (1.0 / config.weibull_shape)

    if config.diurnal_amplitude > 0.0:
        hod = np.asarray(calendar.hour_of_day(np.arange(n_hours)), dtype=float)
        phase = 2.0 * np.pi * (hod - config.diurnal_peak_hour) / 24.0
        speeds = speeds * (1.0 + config.diurnal_amplitude * np.cos(phase))
    return np.maximum(speeds, 0.0)


def generate_wind_speed(
    n_hours: int,
    config: WindConfig,
    rng: np.random.Generator,
    *,
    calendar: SlotCalendar | None = None,
) -> np.ndarray:
    """Hourly wind-speed trace in m/s of length ``n_hours``."""
    return wind_speed_planes(n_hours, config, [rng], calendar=calendar)[0]
