"""Combined weather generation: the library's NSRDB-equivalent feed.

:class:`WeatherGenerator` bundles the solar and wind processes into a single
:class:`WeatherTrace` so the hub simulator and the DRL state (Eq. 24's
``weather`` vector) consume one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from ..rng import RngFactory
from ..timeutils import SlotCalendar
from .solar import SolarConfig, generate_irradiance
from .wind import WindConfig, generate_wind_speed


@dataclass(frozen=True)
class WeatherConfig:
    """Configuration for the combined weather feed."""

    solar: SolarConfig = field(default_factory=SolarConfig)
    wind: WindConfig = field(default_factory=WindConfig)


@dataclass(frozen=True)
class WeatherTrace:
    """Hourly weather observations.

    Attributes
    ----------
    irradiance_w_m2:
        Global horizontal irradiance per slot.
    wind_speed_m_s:
        Hub-height wind speed per slot.
    cloud_cover:
        Cloud-cover fraction per slot (kept for diagnostics; it is the
        paper's "unmeasured confounder U" realisation).
    """

    irradiance_w_m2: np.ndarray
    wind_speed_m_s: np.ndarray
    cloud_cover: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            len(self.irradiance_w_m2),
            len(self.wind_speed_m_s),
            len(self.cloud_cover),
        }
        if len(lengths) != 1:
            raise DataError(f"weather trace arrays disagree on length: {lengths}")
        if len(self.irradiance_w_m2) and self.irradiance_w_m2.min() < 0:
            raise DataError("irradiance must be non-negative")
        if len(self.wind_speed_m_s) and self.wind_speed_m_s.min() < 0:
            raise DataError("wind speed must be non-negative")


class WeatherGenerator:
    """Generates :class:`WeatherTrace` objects from a seeded factory.

    >>> gen = WeatherGenerator(WeatherConfig(), RngFactory(seed=1))
    >>> trace = gen.generate(48)
    >>> trace.irradiance_w_m2.shape
    (48,)
    """

    def __init__(
        self,
        config: WeatherConfig | None = None,
        rng_factory: RngFactory | None = None,
        *,
        calendar: SlotCalendar | None = None,
    ) -> None:
        self.config = config or WeatherConfig()
        self._factory = rng_factory or RngFactory(seed=0)
        self.calendar = calendar or SlotCalendar()

    def generate(self, n_hours: int, *, stream: str = "weather") -> WeatherTrace:
        """Generate ``n_hours`` of weather using the named RNG stream."""
        if n_hours < 0:
            raise ConfigError(f"n_hours must be non-negative, got {n_hours}")
        solar_rng = self._factory.stream(f"{stream}/solar")
        wind_rng = self._factory.stream(f"{stream}/wind")
        irradiance, cover = generate_irradiance(
            n_hours, self.config.solar, solar_rng, calendar=self.calendar
        )
        wind_speed = generate_wind_speed(
            n_hours, self.config.wind, wind_rng, calendar=self.calendar
        )
        return WeatherTrace(
            irradiance_w_m2=irradiance,
            wind_speed_m_s=wind_speed,
            cloud_cover=cover,
        )
