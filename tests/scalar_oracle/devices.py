"""Stateful per-hub device objects of the scalar engine.

:class:`BaseStation` and :class:`BaseStationCluster` draw Eq. 1 power one
load rate at a time, :class:`BatteryPack` steps Eqs. 3–5 one slot at a
time (partial execution at the SoC bounds, the Eq. 6 emergency supply in
a blackout),
:class:`ChargingStation` prices Eq. 2 power and Eq. 11 revenue, and
:class:`GridConnection` resolves the Eq. 7 residual into a grid import
and bills it (Eq. 9). Their configs live in :mod:`repro.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy import base_station
from repro.energy.battery import CHARGE, DISCHARGE, IDLE, BatteryConfig
from repro.energy.charging_station import ChargingStationConfig
from repro.energy.grid import GridConfig
from repro.errors import ConfigError, EnergyModelError, GridError

_VALID_ACTIONS = (DISCHARGE, IDLE, CHARGE)


class BaseStation:
    """One base station; power is Eq. 1 in the load rate."""

    def __init__(self, config: base_station.BaseStationConfig | None = None) -> None:
        self.config = config or base_station.BaseStationConfig()

    def power_kw(self, load_rate: np.ndarray | float) -> np.ndarray | float:
        """``P_BS`` for load rate(s) ``α`` in [0, 1]."""
        alpha = np.asarray(load_rate, dtype=float)
        if alpha.size and (alpha.min() < 0.0 or alpha.max() > 1.0):
            raise ConfigError("load_rate must lie in [0, 1]")
        cfg = self.config
        power = cfg.p_min_kw + alpha * (cfg.p_max_kw - cfg.p_min_kw)
        return power if np.ndim(load_rate) else float(power)


class BaseStationCluster(base_station.BaseStationCluster):
    """A hub's co-located BSs, drawing Eq. 1 power at a shared load rate."""

    def __init__(
        self, n_stations: int, config: base_station.BaseStationConfig | None = None
    ) -> None:
        super().__init__(n_stations, config)
        self.station = BaseStation(self.config)

    def power_kw(self, load_rate: np.ndarray | float) -> np.ndarray | float:
        """Aggregate ``P_BS`` assuming the cluster shares the load rate."""
        return self.n_stations * self.station.power_kw(load_rate)


class BatteryError(EnergyModelError):
    """Battery driven with an invalid action, slot length or demand."""


@dataclass(frozen=True)
class BatteryStepResult:
    """Outcome of one battery slot.

    Attributes
    ----------
    action:
        The action actually applied (may be :data:`IDLE` if the request was
        fully infeasible).
    bus_power_kw:
        Signed power at the hub bus: positive = the battery consumes
        (charging load, the paper's ``P_BP > 0``), negative = the battery
        supplies the bus.
    delta_soc_kwh:
        Change applied to the state of charge.
    loss_kwh:
        Conversion energy lost this slot.
    curtailed:
        True when the requested rate was clipped by a SoC bound.
    """

    action: int
    bus_power_kw: float
    delta_soc_kwh: float
    loss_kwh: float
    curtailed: bool


class BatteryPack:
    """Stateful battery pack implementing Eqs. 3–5.

    >>> pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.5)
    >>> result = pack.step(CHARGE, dt_h=1.0)
    >>> result.bus_power_kw
    50.0
    """

    def __init__(
        self,
        config: BatteryConfig | None = None,
        *,
        initial_soc_fraction: float = 0.5,
    ) -> None:
        self.config = config or BatteryConfig()
        if not 0.0 <= initial_soc_fraction <= 1.0:
            raise ConfigError(
                f"initial_soc_fraction must be in [0, 1], got {initial_soc_fraction}"
            )
        initial = initial_soc_fraction * self.config.capacity_kwh
        self._soc_kwh = float(
            min(max(initial, self.config.soc_min_kwh), self.config.soc_max_kwh)
        )

    # ------------------------------------------------------------------ #
    # State inspection                                                    #
    # ------------------------------------------------------------------ #

    @property
    def soc_kwh(self) -> float:
        """Current state of charge in kWh."""
        return self._soc_kwh

    @property
    def soc_fraction(self) -> float:
        """Current state of charge as a fraction of capacity."""
        return self._soc_kwh / self.config.capacity_kwh

    def headroom_kwh(self) -> float:
        """Energy the pack can still absorb before hitting ``SoC_max``."""
        return max(self.config.soc_max_kwh - self._soc_kwh, 0.0)

    def available_kwh(self) -> float:
        """Energy the pack can still release before hitting ``SoC_min``."""
        return max(self._soc_kwh - self.config.soc_min_kwh, 0.0)

    def reset(self, soc_fraction: float) -> None:
        """Reset SoC (clipped into the legal window) and clear counters."""
        if not 0.0 <= soc_fraction <= 1.0:
            raise ConfigError(f"soc_fraction must be in [0, 1], got {soc_fraction}")
        target = soc_fraction * self.config.capacity_kwh
        self._soc_kwh = float(
            min(max(target, self.config.soc_min_kwh), self.config.soc_max_kwh)
        )

    # ------------------------------------------------------------------ #
    # Dynamics                                                            #
    # ------------------------------------------------------------------ #

    def step(self, action: int, dt_h: float = 1.0) -> BatteryStepResult:
        """Advance one slot with the paper's ``S_BP`` action.

        Parameters
        ----------
        action:
            :data:`CHARGE`, :data:`IDLE`, or :data:`DISCHARGE`.
        dt_h:
            Slot length in hours.
        """
        if action not in _VALID_ACTIONS:
            raise BatteryError(f"invalid battery action {action}; expected -1, 0, or 1")
        if dt_h <= 0:
            raise BatteryError(f"dt_h must be positive, got {dt_h}")

        if action == IDLE:
            return BatteryStepResult(IDLE, 0.0, 0.0, 0.0, curtailed=False)
        if action == CHARGE:
            return self._charge(dt_h)
        return self._discharge(dt_h)

    def _charge(self, dt_h: float) -> BatteryStepResult:
        cfg = self.config
        eta = cfg.charge_efficiency
        requested_bus_kwh = cfg.charge_rate_kw * dt_h
        stored_requested = requested_bus_kwh * eta
        headroom = self.headroom_kwh()
        if stored_requested > headroom + 1e-12:
            stored = headroom
            curtailed = True
        else:
            stored = stored_requested
            curtailed = False
        if stored <= 0.0:
            return BatteryStepResult(IDLE, 0.0, 0.0, 0.0, curtailed=True)
        bus_kwh = stored / eta
        self._soc_kwh += stored
        return BatteryStepResult(
            action=CHARGE,
            bus_power_kw=bus_kwh / dt_h,
            delta_soc_kwh=stored,
            loss_kwh=bus_kwh - stored,
            curtailed=curtailed,
        )

    def _discharge(self, dt_h: float) -> BatteryStepResult:
        cfg = self.config
        eta = cfg.discharge_efficiency
        requested_bus_kwh = cfg.discharge_rate_kw * dt_h

        if cfg.paper_exact:
            # Eq. 3 literal: SoC moves by η·R, bus receives η·R.
            drawn_requested = requested_bus_kwh * eta
            bus_per_drawn = 1.0
        else:
            # Physical: bus receives R, cells provide R / η.
            drawn_requested = requested_bus_kwh / eta
            bus_per_drawn = eta

        available = self.available_kwh()
        if drawn_requested > available + 1e-12:
            drawn = available
            curtailed = True
        else:
            drawn = drawn_requested
            curtailed = False
        if drawn <= 0.0:
            return BatteryStepResult(IDLE, 0.0, 0.0, 0.0, curtailed=True)
        bus_kwh = drawn * bus_per_drawn
        self._soc_kwh -= drawn
        return BatteryStepResult(
            action=DISCHARGE,
            bus_power_kw=-bus_kwh / dt_h,
            delta_soc_kwh=-drawn,
            loss_kwh=drawn - bus_kwh,
            curtailed=curtailed,
        )

    # ------------------------------------------------------------------ #
    # Emergency (blackout) service                                        #
    # ------------------------------------------------------------------ #

    def emergency_supply(self, demand_kwh: float) -> float:
        """Serve a blackout load, allowed to dip *below* ``SoC_min``.

        The Eq. 6 reserve exists exactly for this case: during an outage the
        pack may use the reserved band down to empty. Returns the energy
        actually delivered at the bus.
        """
        if demand_kwh < 0:
            raise BatteryError(f"demand_kwh must be non-negative, got {demand_kwh}")
        eta = 1.0 if self.config.paper_exact else self.config.discharge_efficiency
        drawn_needed = demand_kwh / eta
        drawn = min(drawn_needed, self._soc_kwh)
        self._soc_kwh -= drawn
        return drawn * eta


class ChargingStation:
    """One EVSE implementing Eq. 2 power and Eq. 11 revenue."""

    def __init__(self, config: ChargingStationConfig | None = None) -> None:
        self.config = config or ChargingStationConfig()

    def power_kw(self, occupied: np.ndarray | bool | int) -> np.ndarray | float:
        """``P_CS = S_CS · R_CS`` (array-friendly)."""
        state = np.asarray(occupied, dtype=float)
        if state.size and not np.isin(np.unique(state), (0.0, 1.0)).all():
            raise ConfigError("occupancy must be binary (0/1)")
        power = state * self.config.rate_kw
        return power if np.ndim(occupied) else float(power)

    def selling_price_kwh(self, discount_fraction: float = 0.0) -> float:
        """``SRTP`` after an optional ECT-Price discount."""
        if not 0.0 <= discount_fraction < 1.0:
            raise ConfigError(
                f"discount_fraction must be in [0, 1), got {discount_fraction}"
            )
        return self.config.base_price_kwh * (1.0 - discount_fraction)

    def revenue(
        self,
        occupied: bool | int,
        dt_h: float,
        *,
        discount_fraction: float = 0.0,
    ) -> float:
        """Revenue for one slot: ``P_CS · SRTP · dt`` (Eq. 11 summand)."""
        if dt_h <= 0:
            raise ConfigError(f"dt_h must be positive, got {dt_h}")
        power = self.power_kw(1 if occupied else 0)
        return power * dt_h * self.selling_price_kwh(discount_fraction)


class GridConnection:
    """Stateless billing and limit checks for grid imports."""

    def __init__(self, config: GridConfig | None = None) -> None:
        self.config = config or GridConfig()

    def draw_power(self, residual_kw: float) -> float:
        """Resolve a residual bus power into a grid import (``P_grid``).

        Positive residual → import from the grid (capped by the import
        limit). Negative residual → surplus; returns 0 (curtailment).
        """
        if residual_kw < 0:
            return 0.0
        limit = self.config.import_limit_kw
        if limit and residual_kw > limit:
            raise GridError(
                f"import of {residual_kw:.3f} kW exceeds the interconnection "
                f"limit of {limit:.3f} kW"
            )
        return float(residual_kw)

    def cost(self, power_kw: float, price_kwh: float, dt_h: float = 1.0) -> float:
        """Eq. 9: ``C_grid = P_grid · RTP`` over one slot."""
        if power_kw < 0:
            raise GridError(f"grid cost requires non-negative power, got {power_kw}")
        if price_kwh < 0:
            raise GridError(f"price must be non-negative, got {price_kwh}")
        if dt_h <= 0:
            raise GridError(f"dt_h must be positive, got {dt_h}")
        return power_kw * dt_h * price_kwh
