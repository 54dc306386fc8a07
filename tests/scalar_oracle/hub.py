"""The ECT-Hub composition — the paper's Fig. 6 system.

An :class:`EctHub` bundles one battery point, a cluster of co-located base
stations, a charging station, optional PV / WT plants, and the grid
interconnection. Its :meth:`power_balance` implements Eq. 7:

``P_grid(t) = max{0, P_BS + P_CS + P_BP − P_WT − P_PV}``

with the curtailed surplus reported separately so energy accounting closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.base_station import BaseStationCluster
from repro.energy.pv import PvArray
from repro.energy.wind_turbine import WindTurbine
from repro.errors import HubError
from repro.hub.hub import HubConfig

from .devices import BatteryPack, ChargingStation, GridConnection


@dataclass(frozen=True)
class PowerBalance:
    """Resolved Eq. 7 for one slot (all values in kW)."""

    grid_import_kw: float
    surplus_kw: float

    def __post_init__(self) -> None:
        if self.grid_import_kw < 0 or self.surplus_kw < 0:
            raise HubError("grid import and surplus must be non-negative")
        if self.grid_import_kw > 0 and self.surplus_kw > 0:
            raise HubError("a slot cannot both import and curtail")


class EctHub:
    """One energy-communication-transportation hub.

    >>> hub = EctHub(HubConfig())
    >>> hub.battery.soc_fraction
    0.5
    """

    def __init__(
        self,
        config: HubConfig | None = None,
        *,
        initial_soc_fraction: float = 0.5,
    ) -> None:
        self.config = config or HubConfig()
        self.battery = BatteryPack(
            self.config.battery, initial_soc_fraction=initial_soc_fraction
        )
        self.base_stations = BaseStationCluster(
            self.config.n_base_stations, self.config.base_station
        )
        self.charging_station = ChargingStation(self.config.charging_station)
        self.pv = PvArray(self.config.pv) if self.config.pv is not None else None
        self.wind_turbine = (
            WindTurbine(self.config.wind_turbine)
            if self.config.wind_turbine is not None
            else None
        )
        self.grid = GridConnection(self.config.grid)

    # ------------------------------------------------------------------ #
    # Power balance (Eq. 7)                                                #
    # ------------------------------------------------------------------ #

    def power_balance(
        self,
        *,
        p_bs_kw: float,
        p_cs_kw: float,
        p_bp_kw: float,
        p_pv_kw: float,
        p_wt_kw: float,
    ) -> PowerBalance:
        """Resolve the residual bus power into grid import + curtailment.

        ``p_bp_kw`` is signed (positive while charging, negative while
        discharging), exactly the paper's ``P_BP``.
        """
        if p_bs_kw < 0 or p_cs_kw < 0 or p_pv_kw < 0 or p_wt_kw < 0:
            raise HubError("loads and generation must be non-negative")
        residual = p_bs_kw + p_cs_kw + p_bp_kw - p_pv_kw - p_wt_kw
        if residual >= 0:
            return PowerBalance(
                grid_import_kw=self.grid.draw_power(residual), surplus_kw=0.0
            )
        return PowerBalance(grid_import_kw=0.0, surplus_kw=-residual)
