"""Synthetic cellular network traffic (city-scale trace substitute).

The paper uses the public city-scale cellular dataset of Chen et al. [22]
(its Fig. 5 shows four days of traffic in the 20–160 GB/h band, peaking at
night alongside the electricity price). We reproduce the consumed features:

* a double-peak diurnal cycle (midday business peak + larger evening peak,
  so load is high when RTP is high, matching the paper's measurement that
  "load factors and electricity prices peak during the night");
* a weekday/weekend level shift;
* multiplicative AR(1) noise for realistic short-term burstiness.

Traffic maps to the base-station load rate ``α_t`` (Eq. 1) by normalising
against a configurable fleet capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DataError
from ..timeutils import SlotCalendar, diurnal_harmonic
from .noise import ar1_rows, normal_rows


@dataclass(frozen=True)
class TrafficConfig:
    """Parameters of the synthetic traffic model.

    Attributes
    ----------
    base_gb:
        Overnight minimum traffic (GB per hour).
    midday_peak_gb:
        Additional traffic at the midday peak.
    evening_peak_gb:
        Additional traffic at the evening peak (the dominant one).
    midday_peak_hour / evening_peak_hour:
        Peak positions.
    weekend_factor:
        Multiplier applied on Saturdays/Sundays.
    noise_persistence / noise_volatility:
        AR(1) parameters of the multiplicative noise.
    capacity_gb:
        Traffic level mapping to load rate α = 1.
    """

    base_gb: float = 25.0
    midday_peak_gb: float = 60.0
    evening_peak_gb: float = 85.0
    midday_peak_hour: float = 12.0
    evening_peak_hour: float = 21.0
    weekend_factor: float = 0.85
    noise_persistence: float = 0.6
    noise_volatility: float = 0.08
    capacity_gb: float = 170.0

    def __post_init__(self) -> None:
        for name in ("base_gb", "midday_peak_gb", "evening_peak_gb", "capacity_gb"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.weekend_factor <= 1.5:
            raise ConfigError(f"weekend_factor must be in (0, 1.5], got {self.weekend_factor}")
        if not 0.0 <= self.noise_persistence < 1.0:
            raise ConfigError("noise_persistence must be in [0, 1)")
        if self.noise_volatility < 0:
            raise ConfigError("noise_volatility must be non-negative")


@dataclass(frozen=True)
class TrafficTrace:
    """Hourly traffic volumes and the implied base-station load rate."""

    volume_gb: np.ndarray
    load_rate: np.ndarray

    def __post_init__(self) -> None:
        if len(self.volume_gb) != len(self.load_rate):
            raise DataError("volume_gb and load_rate must have equal length")
        if len(self.load_rate) and (
            self.load_rate.min() < 0.0 or self.load_rate.max() > 1.0
        ):
            raise DataError("load_rate must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.volume_gb)

    def slice(self, start: int, stop: int) -> "TrafficTrace":
        """A sub-trace covering slots [start, stop)."""
        if not 0 <= start <= stop <= len(self):
            raise DataError(
                f"invalid slice [{start}, {stop}) for trace of length {len(self)}"
            )
        return TrafficTrace(
            volume_gb=self.volume_gb[start:stop],
            load_rate=self.load_rate[start:stop],
        )


class TrafficGenerator:
    """Generates :class:`TrafficTrace` series."""

    def __init__(
        self,
        config: TrafficConfig | None = None,
        *,
        calendar: SlotCalendar | None = None,
    ) -> None:
        self.config = config or TrafficConfig()
        self.calendar = calendar or SlotCalendar()

    def _profile_rows(self, n_hours: int, scale: np.ndarray) -> np.ndarray:
        """Expected traffic (GB/h) with every peak scaled per row by ``scale``."""
        cfg = self.config
        slots = np.arange(n_hours)
        hod = np.asarray(self.calendar.hour_of_day(slots), dtype=float)
        scale = np.asarray(scale, dtype=float)[:, None]
        profile = (
            cfg.base_gb * scale
            + (cfg.midday_peak_gb * scale)
            * diurnal_harmonic(hod, cfg.midday_peak_hour, sharpness=3.0)
            + (cfg.evening_peak_gb * scale)
            * diurnal_harmonic(hod, cfg.evening_peak_hour, sharpness=2.0)
        )
        weekend = np.asarray(self.calendar.is_weekend(slots))
        return np.where(weekend, profile * cfg.weekend_factor, profile)

    def generate_planes(
        self,
        n_hours: int,
        rngs: Sequence[np.random.Generator],
        *,
        scale: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(volume_gb, load_rate)`` planes, one ``(len(rngs), n_hours)`` row per stream.

        ``scale`` multiplies each row's base level and peaks (a hub's
        ``traffic_scale``; default 1). The diurnal harmonics and the
        calendar are computed once for all rows.
        """
        if n_hours < 0:
            raise ConfigError(f"n_hours must be non-negative, got {n_hours}")
        cfg = self.config
        profile = self._profile_rows(
            n_hours, np.ones(len(rngs)) if scale is None else scale
        )
        innovation_std = cfg.noise_volatility * np.sqrt(
            max(1.0 - cfg.noise_persistence**2, 1e-9)
        )
        noise = ar1_rows(
            normal_rows(rngs, innovation_std, n_hours),
            cfg.noise_persistence,
            np.zeros(len(rngs)),
        )
        volume = np.maximum(profile * np.exp(noise), 0.0)
        load = np.clip(volume / cfg.capacity_gb, 0.0, 1.0)
        return volume, load

    def generate(self, n_hours: int, rng: np.random.Generator) -> TrafficTrace:
        """Expected profile with multiplicative AR(1) noise, mapped to load."""
        volume, load = self.generate_planes(n_hours, [rng])
        return TrafficTrace(volume_gb=volume[0], load_rate=load[0])
