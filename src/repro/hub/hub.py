"""The ECT-Hub equipment configuration — the paper's Fig. 6 system.

A :class:`HubConfig` names one hub's battery point, its cluster of
co-located base stations, its charging station, optional PV / WT plants
and its grid interconnection. The fleet engine
(:class:`~repro.fleet.params.FleetParams`) stacks these configs into the
per-hub arrays it steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..energy.base_station import BaseStationConfig
from ..energy.battery import BatteryConfig
from ..energy.charging_station import ChargingStationConfig
from ..energy.grid import GridConfig
from ..energy.pv import PvConfig
from ..energy.wind_turbine import WindTurbineConfig


@dataclass(frozen=True)
class HubConfig:
    """Full equipment configuration of one ECT-Hub.

    ``pv`` / ``wind_turbine`` may be None for hubs without that plant
    (urban hubs typically have rooftop PV only; Fig. 6 shows rural hubs
    with both). ``c_bp_per_slot`` is the paper's battery operating cost
    (Eq. 8), set to 0.01 in §V-C. ``dt_h`` is the slot length.
    """

    battery: BatteryConfig = field(default_factory=BatteryConfig)
    base_station: BaseStationConfig = field(default_factory=BaseStationConfig)
    n_base_stations: int = 2
    charging_station: ChargingStationConfig = field(default_factory=ChargingStationConfig)
    pv: PvConfig | None = field(default_factory=PvConfig)
    wind_turbine: WindTurbineConfig | None = None
    grid: GridConfig = field(default_factory=GridConfig)
    c_bp_per_slot: float = 0.01
    dt_h: float = 1.0

    def __post_init__(self) -> None:
        if self.n_base_stations <= 0:
            raise ConfigError(f"n_base_stations must be positive, got {self.n_base_stations}")
        if self.c_bp_per_slot < 0:
            raise ConfigError(f"c_bp_per_slot must be non-negative, got {self.c_bp_per_slot}")
        if self.dt_h <= 0:
            raise ConfigError(f"dt_h must be positive, got {self.dt_h}")
