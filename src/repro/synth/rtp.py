"""Synthetic real-time electricity price (ENGIE Resources substitute).

The paper's Fig. 5 shows a 96-hour ENGIE real-time price trace in the
50–130 $/MWh band that is *positively correlated with network traffic*
(both peak in the evening). We reproduce that joint structure: the price is
a base diurnal curve plus a coupling term driven by the (normalised) system
load, plus AR(1) noise and occasional scarcity spikes.

Prices are generated in $/MWh to match the feed convention;
:attr:`PriceTrace.price_kwh` gives the library's internal $/kWh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DataError
from ..timeutils import SlotCalendar, diurnal_harmonic
from .noise import ar1_rows, exponential_rows, normal_rows


@dataclass(frozen=True)
class RtpConfig:
    """Parameters of the synthetic real-time price model.

    Attributes
    ----------
    base_price_mwh:
        Overnight floor price, $/MWh.
    diurnal_amplitude_mwh:
        Amplitude of the deterministic evening-peaking cycle.
    peak_hour:
        Hour of day of the deterministic price peak.
    load_coupling_mwh:
        $/MWh added per unit of normalised load — creates the load–price
        correlation the paper measures.
    noise_persistence / noise_volatility_mwh:
        AR(1) parameters of the additive noise.
    spike_probability:
        Per-hour probability of a scarcity spike.
    spike_scale_mwh:
        Mean (exponential) magnitude of a spike.
    price_floor_mwh / price_cap_mwh:
        Hard clamps keeping the trace in a realistic band.
    """

    base_price_mwh: float = 55.0
    diurnal_amplitude_mwh: float = 35.0
    peak_hour: float = 20.0
    load_coupling_mwh: float = 30.0
    noise_persistence: float = 0.7
    noise_volatility_mwh: float = 6.0
    spike_probability: float = 0.01
    spike_scale_mwh: float = 40.0
    price_floor_mwh: float = 20.0
    price_cap_mwh: float = 400.0

    def __post_init__(self) -> None:
        if self.base_price_mwh <= 0:
            raise ConfigError("base_price_mwh must be positive")
        if self.diurnal_amplitude_mwh < 0 or self.load_coupling_mwh < 0:
            raise ConfigError("amplitude/coupling must be non-negative")
        if not 0.0 <= self.noise_persistence < 1.0:
            raise ConfigError("noise_persistence must be in [0, 1)")
        if self.noise_volatility_mwh < 0:
            raise ConfigError("noise_volatility_mwh must be non-negative")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ConfigError("spike_probability must be in [0, 1]")
        if self.price_floor_mwh <= 0 or self.price_cap_mwh <= self.price_floor_mwh:
            raise ConfigError("price_floor/cap must satisfy 0 < floor < cap")


@dataclass(frozen=True)
class PriceTrace:
    """Hourly real-time prices in both feed and internal conventions."""

    price_mwh: np.ndarray

    def __post_init__(self) -> None:
        if len(self.price_mwh) and self.price_mwh.min() <= 0:
            raise DataError("prices must be strictly positive")

    @property
    def price_kwh(self) -> np.ndarray:
        """Prices converted to the library's $/kWh convention."""
        return self.price_mwh / 1000.0


class RtpGenerator:
    """Generates :class:`PriceTrace` series, optionally coupled to a load."""

    def __init__(
        self,
        config: RtpConfig | None = None,
        *,
        calendar: SlotCalendar | None = None,
    ) -> None:
        self.config = config or RtpConfig()
        self.calendar = calendar or SlotCalendar()

    def generate_planes(
        self,
        n_hours: int,
        rngs: Sequence[np.random.Generator],
        *,
        load_rate: np.ndarray | None = None,
    ) -> np.ndarray:
        """Prices in $/MWh, one ``(len(rngs), n_hours)`` row per stream.

        ``load_rate`` is the matching ``(len(rngs), n_hours)`` load plane
        (see :meth:`generate`). The diurnal term is computed once for all
        rows.
        """
        if n_hours < 0:
            raise ConfigError(f"n_hours must be non-negative, got {n_hours}")
        cfg = self.config
        n_rows = len(rngs)
        hod = np.asarray(self.calendar.hour_of_day(np.arange(n_hours)), dtype=float)

        price = cfg.base_price_mwh + cfg.diurnal_amplitude_mwh * diurnal_harmonic(
            hod, cfg.peak_hour, sharpness=2.0
        )

        if load_rate is not None:
            load = np.asarray(load_rate, dtype=float)
            if load.shape != (n_rows, n_hours):
                raise DataError(
                    f"load_rate shape {load.shape} does not match "
                    f"{n_rows} rows x n_hours={n_hours}"
                )
            price = price + cfg.load_coupling_mwh * np.clip(load, 0.0, 1.0)

        innovation_std = cfg.noise_volatility_mwh * np.sqrt(
            max(1.0 - cfg.noise_persistence**2, 1e-9)
        )
        noise = ar1_rows(
            normal_rows(rngs, innovation_std, n_hours),
            cfg.noise_persistence,
            np.zeros(n_rows),
        )
        price = price + noise

        # Each stream draws its spike mask before its spike sizes, each
        # into its own row in place.
        uniforms = np.empty((n_rows, n_hours))
        for rng, row in zip(rngs, uniforms):
            rng.random(out=row)
        sizes = exponential_rows(rngs, cfg.spike_scale_mwh, n_hours)
        price = price + (uniforms < cfg.spike_probability) * sizes

        return np.clip(price, cfg.price_floor_mwh, cfg.price_cap_mwh)

    def generate(
        self,
        n_hours: int,
        rng: np.random.Generator,
        *,
        load_rate: np.ndarray | None = None,
    ) -> PriceTrace:
        """Generate ``n_hours`` of prices.

        ``load_rate`` (values in [0, 1], e.g. from
        :class:`~repro.synth.traffic.TrafficTrace`) adds the load-coupled
        component; omit it for a purely diurnal price.
        """
        if load_rate is not None:
            load_rate = np.asarray(load_rate, dtype=float)[None]
        prices = self.generate_planes(n_hours, [rng], load_rate=load_rate)
        return PriceTrace(price_mwh=prices[0])
