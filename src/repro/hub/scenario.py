"""Scenario assembly: from fleet descriptions to runnable simulations.

A :class:`HubScenario` wires one :class:`~repro.synth.catalog.HubSite` to
its generated exogenous traces (weather → PV/WT power, traffic → load rate,
RTP) plus an Eq. 6-sized battery. Charging-station occupancy is *not* fixed
here — it depends on the pricing method's discount decisions and the latent
strata — so the fleet engine's inputs
(:func:`~repro.fleet.builder.fleet_inputs_from_scenarios`) close the loop,
and :func:`resolve_occupancy` implements the strata semantics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DataError
from ..energy.base_station import BaseStationCluster, BaseStationConfig
from ..energy.battery import BatteryConfig
from ..energy.charging_station import ChargingStationConfig
from ..energy.pv import PvConfig, pv_power_kw
from ..energy.wind_turbine import WindTurbineConfig, turbine_power_kw
from ..rng import RngFactory
from ..synth.catalog import HubSite, default_fleet
from ..synth.charging import ChargingBehaviorModel, ChargingConfig, Stratum
from ..synth.rtp import RtpConfig, RtpGenerator
from ..synth.solar import irradiance_planes
from ..synth.traffic import TrafficConfig, TrafficGenerator
from ..synth.weather import WeatherConfig
from ..synth.wind import wind_speed_planes
from .constraints import sized_battery_config
from .hub import HubConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs shared by every hub in a generated fleet scenario."""

    n_hours: int = 24 * 30
    recovery_time_h: int = 4
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    base_station: BaseStationConfig = field(default_factory=BaseStationConfig)
    charging_station: ChargingStationConfig = field(default_factory=ChargingStationConfig)
    weather: WeatherConfig = field(default_factory=WeatherConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    rtp: RtpConfig = field(default_factory=RtpConfig)
    charging: ChargingConfig = field(default_factory=ChargingConfig)
    c_bp_per_slot: float = 0.01

    def __post_init__(self) -> None:
        if self.n_hours <= 0:
            raise ConfigError(f"n_hours must be positive, got {self.n_hours}")
        if self.recovery_time_h < 0:
            raise ConfigError("recovery_time_h must be non-negative")


#: The per-slot trace fields of :class:`HubScenario` and :class:`FleetTraces`.
TRACE_FIELDS = (
    "load_rate",
    "rtp_kwh",
    "pv_power_kw",
    "wt_power_kw",
    "irradiance_w_m2",
    "wind_speed_m_s",
)


@dataclass(frozen=True, eq=False)
class FleetTraces:
    """Every hub's exogenous traces as read-only ``(n_hubs, horizon)`` planes.

    Row ``i`` belongs to the ``i``-th site given to
    :func:`synthesize_traces`; :func:`build_scenario` wires one row into
    a :class:`HubScenario` as views.
    """

    load_rate: np.ndarray
    rtp_kwh: np.ndarray
    pv_power_kw: np.ndarray
    wt_power_kw: np.ndarray
    irradiance_w_m2: np.ndarray
    wind_speed_m_s: np.ndarray

    @property
    def n_hubs(self) -> int:
        """Number of hub rows."""
        return int(self.load_rate.shape[0])

    def row(self, index: int) -> dict[str, np.ndarray]:
        """Hub ``index``'s traces as row views, keyed by field name."""
        return {name: getattr(self, name)[index] for name in TRACE_FIELDS}


@dataclass
class HubScenario:
    """One hub plus all its exogenous traces, ready to simulate."""

    site: HubSite
    hub_config: HubConfig
    load_rate: np.ndarray
    rtp_kwh: np.ndarray
    pv_power_kw: np.ndarray
    wt_power_kw: np.ndarray
    irradiance_w_m2: np.ndarray
    wind_speed_m_s: np.ndarray
    #: ``(planes, row)`` when :func:`build_scenario` cut these traces
    #: from row ``row`` of a :class:`FleetTraces` — what lets
    #: :func:`fleet_traces` hand the planes back without re-stacking.
    fleet_row: tuple["FleetTraces", int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.load_rate)
        for name in TRACE_FIELDS[1:]:
            if len(getattr(self, name)) != n:
                raise DataError(f"scenario trace {name} has inconsistent length")

    @property
    def n_hours(self) -> int:
        """Scenario horizon in slots."""
        return len(self.load_rate)


def resolve_occupancy(strata: np.ndarray, discounted: np.ndarray) -> np.ndarray:
    """Strata semantics → occupancy: Always ⇒ 1; Incentive ⇒ discounted; else 0."""
    strata = np.asarray(strata, dtype=int)
    discounted = np.asarray(discounted).astype(int)
    if strata.shape != discounted.shape:
        raise DataError(
            f"strata shape {strata.shape} != discounted shape {discounted.shape}"
        )
    return np.where(
        strata == Stratum.ALWAYS,
        1,
        np.where(strata == Stratum.INCENTIVE, discounted, 0),
    ).astype(int)


def synthesize_traces(
    sites: Sequence[HubSite],
    config: ScenarioConfig,
    rng_factory: RngFactory,
) -> FleetTraces:
    """Synthesize the exogenous traces of ``sites`` as whole-fleet planes.

    Each hub's rows come from its own named streams
    (``hub/{id}/weather/solar``, ``hub/{id}/weather/wind``,
    ``hub/{id}/traffic`` and ``hub/{id}/rtp``, all seeded in one
    :meth:`~repro.rng.RngFactory.streams` call), so a hub's traces do not
    depend on which other hubs are synthesized with it. The parts that do
    not depend on the hub (clear-sky GHI, the traffic, price and wind
    diurnal terms, the calendar) are computed once; each AR(1) recursion
    runs once over the hub axis; ``traffic_scale``, ``pv_kw`` and
    ``wt_kw`` enter as per-hub columns.
    """
    n_hours = config.n_hours
    n_hubs = len(sites)
    streams = rng_factory.streams(
        [
            f"hub/{site.hub_id}/{process}"
            for process in ("weather/solar", "weather/wind", "traffic", "rtp")
            for site in sites
        ]
    )
    solar, wind, traffic, rtp = (
        streams[part * n_hubs : (part + 1) * n_hubs] for part in range(4)
    )
    irradiance, _ = irradiance_planes(n_hours, config.weather.solar, solar)
    wind_speed = wind_speed_planes(n_hours, config.weather.wind, wind)
    _, load_rate = TrafficGenerator(config.traffic).generate_planes(
        n_hours, traffic, scale=np.array([site.traffic_scale for site in sites])
    )
    price_mwh = RtpGenerator(config.rtp).generate_planes(
        n_hours, rtp, load_rate=load_rate
    )

    # A hub without a plant produces exactly zero.
    pv_kw = np.array([site.pv_kw for site in sites])[:, None]
    wt_kw = np.array([site.wt_kw for site in sites])[:, None]
    pv_power = np.where(pv_kw > 0, pv_power_kw(pv_kw, irradiance, PvConfig()), 0.0)
    wt_power = np.where(
        wt_kw > 0, turbine_power_kw(wt_kw, wind_speed, WindTurbineConfig()), 0.0
    )

    planes = {
        "load_rate": load_rate,
        "rtp_kwh": price_mwh / 1000.0,
        "pv_power_kw": pv_power,
        "wt_power_kw": wt_power,
        "irradiance_w_m2": irradiance,
        "wind_speed_m_s": wind_speed,
    }
    for plane in planes.values():
        plane.setflags(write=False)
    return FleetTraces(**planes)


def fleet_traces(scenarios: Sequence[HubScenario]) -> FleetTraces:
    """The scenarios' traces as ``(n_hubs, horizon)`` planes.

    Scenarios that :func:`build_scenario` cut from rows ``0..n-1`` of one
    :class:`FleetTraces`, in that order, give those planes back without a
    copy; any other sequence is stacked into new planes.
    """
    source = scenarios[0].fleet_row if scenarios else None
    if source is not None:
        planes = source[0]
        if planes.n_hubs == len(scenarios) and all(
            s.fleet_row is not None and s.fleet_row[0] is planes and s.fleet_row[1] == i
            for i, s in enumerate(scenarios)
        ):
            return planes
    return FleetTraces(
        **{
            name: np.stack([getattr(s, name) for s in scenarios])
            for name in TRACE_FIELDS
        }
    )


@functools.lru_cache(maxsize=128)
def _sized_battery(
    battery: BatteryConfig,
    base_station: BaseStationConfig,
    n_base_stations: int,
    recovery_time_h: int,
) -> BatteryConfig:
    """The Eq. 6-sized battery, once per distinct key: a fleet's hubs
    share a few (battery, BS config, BS count, ``T_r``) combinations. A
    key that violates Eq. 6 is not cached, so it raises on every call."""
    return sized_battery_config(
        battery,
        BaseStationCluster(n_base_stations, base_station),
        recovery_time_h,
    )


def build_scenario(
    site: HubSite,
    config: ScenarioConfig,
    rng_factory: RngFactory,
    *,
    traces: tuple[FleetTraces, int] | None = None,
) -> HubScenario:
    """One hub's scenario: traces, plants, and a sized battery.

    ``traces`` is ``(planes, row)``: this hub's traces are row ``row`` of
    planes :func:`synthesize_traces` already made for the whole fleet.
    Without it the hub is synthesized here as a fleet of one.
    """
    if traces is None:
        traces = (synthesize_traces([site], config, rng_factory), 0)
    planes, row = traces

    pv_config = PvConfig(rated_kw=site.pv_kw) if site.pv_kw > 0 else None
    wt_config = (
        WindTurbineConfig(rated_kw=site.wt_kw) if site.wt_kw > 0 else None
    )
    battery = _sized_battery(
        config.battery,
        config.base_station,
        site.n_base_stations,
        config.recovery_time_h,
    )

    hub_config = HubConfig(
        battery=battery,
        base_station=config.base_station,
        n_base_stations=site.n_base_stations,
        charging_station=config.charging_station,
        pv=pv_config,
        wind_turbine=wt_config,
        c_bp_per_slot=config.c_bp_per_slot,
    )
    scenario = HubScenario(site=site, hub_config=hub_config, **planes.row(row))
    scenario.fleet_row = traces
    return scenario


def build_fleet_scenarios(
    config: ScenarioConfig,
    rng_factory: RngFactory | None = None,
    *,
    n_hubs: int | None = None,
) -> list[HubScenario]:
    """Scenarios for the default fleet (paper: 12 hubs)."""
    factory = rng_factory or RngFactory(seed=0)
    sites = default_fleet(
        n_hubs if n_hubs is not None else config.charging.n_stations,
        rng_factory=factory,
    )
    planes = synthesize_traces(sites, config, factory)
    return [
        build_scenario(site, config, factory, traces=(planes, row))
        for row, site in enumerate(sites)
    ]


def fleet_behavior_model(
    config: ScenarioConfig,
    rng_factory: RngFactory | None = None,
) -> ChargingBehaviorModel:
    """The fleet-wide charging behaviour model matching the scenarios."""
    factory = rng_factory or RngFactory(seed=0)
    return ChargingBehaviorModel(config.charging, factory)
