"""``repro.energy`` — physical models of every hub component.

Implements the paper's system model (§III-B): the base station (Eq. 1),
the charging station (Eq. 2), the battery point (Eqs. 3–5), renewable
plants (the ``P_WT``/``P_PV`` terms of Eq. 7), grid billing (Eq. 9), and
the degradation process behind Fig. 4.
"""

from .base_station import BaseStationCluster, BaseStationConfig
from .battery import CHARGE, DISCHARGE, IDLE, BatteryConfig
from .charging_station import ChargingStationConfig
from .degradation import (
    DegradationConfig,
    cell_voltage,
    simulate_voltage_traces,
)
from .grid import BlackoutConfig, BlackoutModel, GridConfig
from .pv import PvArray, PvConfig
from .wind_turbine import WindTurbine, WindTurbineConfig

__all__ = [
    "CHARGE",
    "DISCHARGE",
    "IDLE",
    "BaseStationCluster",
    "BaseStationConfig",
    "BatteryConfig",
    "BlackoutConfig",
    "BlackoutModel",
    "ChargingStationConfig",
    "DegradationConfig",
    "GridConfig",
    "PvArray",
    "PvConfig",
    "WindTurbine",
    "WindTurbineConfig",
    "cell_voltage",
    "simulate_voltage_traces",
]
