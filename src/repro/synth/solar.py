"""Synthetic solar irradiance (NSRDB substitute).

The paper pulls solar radiation from the National Solar Radiation Database
[25]. Offline we generate global horizontal irradiance (GHI) from solar
geometry plus a stochastic cloud process:

* **Clear-sky GHI** — solar declination (Cooper's formula), hour angle, and
  solar elevation give ``GHI_clear = S · max(0, sin el)^1.15`` with
  ``S ≈ 1000 W/m²``, the standard Haurwitz-style clear-sky shape.
* **Clouds** — an AR(1) cloud-cover process in [0, 1]; transmittance follows
  the Kasten–Czeplak relation ``1 − 0.75 c³``.

This preserves what the downstream system consumes: a strong diurnal cycle,
zero output at night, and day-to-day volatility (paper Fig. 2 emphasises
renewable volatility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from ..timeutils import DAYS_PER_YEAR, SlotCalendar
from .noise import normal_rows


@dataclass(frozen=True)
class SolarConfig:
    """Parameters of the synthetic irradiance model.

    Attributes
    ----------
    latitude_deg:
        Site latitude; drives seasonal sun-height variation.
    clear_sky_peak_w_m2:
        Irradiance at a solar elevation of 90° under clear sky.
    cloud_persistence:
        AR(1) coefficient of the cloud process (0 = white noise, →1 = slow
        synoptic systems).
    cloud_volatility:
        Innovation scale of the cloud process.
    mean_cloud_cover:
        Long-run mean cloud cover in [0, 1].
    """

    latitude_deg: float = 31.0
    clear_sky_peak_w_m2: float = 1000.0
    cloud_persistence: float = 0.92
    cloud_volatility: float = 0.12
    mean_cloud_cover: float = 0.35

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ConfigError(f"latitude_deg must be in [-90, 90], got {self.latitude_deg}")
        if self.clear_sky_peak_w_m2 <= 0:
            raise ConfigError("clear_sky_peak_w_m2 must be positive")
        if not 0.0 <= self.cloud_persistence < 1.0:
            raise ConfigError("cloud_persistence must be in [0, 1)")
        if self.cloud_volatility < 0:
            raise ConfigError("cloud_volatility must be non-negative")
        if not 0.0 <= self.mean_cloud_cover <= 1.0:
            raise ConfigError("mean_cloud_cover must be in [0, 1]")


def solar_declination_deg(day_of_year: np.ndarray) -> np.ndarray:
    """Solar declination in degrees (Cooper 1969)."""
    day = np.asarray(day_of_year, dtype=float)
    return 23.45 * np.sin(2.0 * np.pi * (284.0 + day + 1.0) / DAYS_PER_YEAR)


def solar_elevation_sin(
    day_of_year: np.ndarray,
    hour_of_day: np.ndarray,
    latitude_deg: float,
) -> np.ndarray:
    """Sine of the solar elevation angle for each (day, hour) pair."""
    lat = np.deg2rad(latitude_deg)
    dec = np.deg2rad(solar_declination_deg(day_of_year))
    hour_angle = np.deg2rad(15.0 * (np.asarray(hour_of_day, dtype=float) - 12.0))
    return np.sin(lat) * np.sin(dec) + np.cos(lat) * np.cos(dec) * np.cos(hour_angle)


def clear_sky_ghi(
    day_of_year: np.ndarray,
    hour_of_day: np.ndarray,
    config: SolarConfig,
) -> np.ndarray:
    """Clear-sky global horizontal irradiance in W/m²."""
    sin_el = solar_elevation_sin(day_of_year, hour_of_day, config.latitude_deg)
    sin_el = np.maximum(sin_el, 0.0)
    return config.clear_sky_peak_w_m2 * sin_el**1.15


def cloud_cover_planes(
    n_hours: int,
    config: SolarConfig,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """AR(1) cloud cover clipped to [0, 1], one row per stream.

    Returns a ``(len(rngs), n_hours)`` plane; the recursion runs once
    over all rows.
    """
    if n_hours < 0:
        raise ConfigError(f"n_hours must be non-negative, got {n_hours}")
    noise = normal_rows(rngs, config.cloud_volatility, n_hours)
    mean = config.mean_cloud_cover
    phi = config.cloud_persistence
    state = np.full(len(rngs), mean)
    cover = np.empty((n_hours, len(rngs)))
    for t, innovation in enumerate(noise.T):
        state = np.clip(mean + phi * (state - mean) + innovation, 0.0, 1.0)
        cover[t] = state
    return np.ascontiguousarray(cover.T)


def cloud_transmittance(cloud_cover: np.ndarray) -> np.ndarray:
    """Kasten–Czeplak transmittance ``1 − 0.75 c³``."""
    cover = np.clip(np.asarray(cloud_cover, dtype=float), 0.0, 1.0)
    return 1.0 - 0.75 * cover**3


def irradiance_planes(
    n_hours: int,
    config: SolarConfig,
    rngs: Sequence[np.random.Generator],
    *,
    calendar: SlotCalendar | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """GHI in W/m² plus cloud cover, one ``(len(rngs), n_hours)`` row per stream.

    The clear-sky curve is computed once and shared by every row.
    """
    calendar = calendar or SlotCalendar()
    slots = np.arange(n_hours)
    clear = clear_sky_ghi(
        calendar.day_of_year(slots), calendar.hour_of_day(slots), config
    )
    cover = cloud_cover_planes(n_hours, config, rngs)
    return clear * cloud_transmittance(cover), cover


def generate_irradiance(
    n_hours: int,
    config: SolarConfig,
    rng: np.random.Generator,
    *,
    calendar: SlotCalendar | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hourly GHI trace in W/m² plus the underlying cloud cover.

    Returns ``(ghi_w_m2, cloud_cover)``, both of length ``n_hours``.
    """
    ghi, cover = irradiance_planes(n_hours, config, [rng], calendar=calendar)
    return ghi[0], cover[0]
