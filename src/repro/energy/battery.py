"""Battery point (BP) model — Eqs. 3–5 of the paper.

The battery pack is the hub's central flexibility asset: it charges from
the grid/renewables (``S_BP = 1``), discharges to the BS + charging station
bus (``S_BP = −1``), or idles (``S_BP = 0``). State of charge follows
Eq. 4 with efficiency-scaled throughput, bounded by Eq. 5's
``[SoC_min, SoC_max]`` window.

Two efficiency conventions are supported (DESIGN.md §6):

* ``paper_exact=True`` reproduces Eq. 3 literally: the bus-side power is
  ``S_BP · η · R`` and SoC changes by exactly that amount (discharge is a
  lossless transfer at a derated rate).
* ``paper_exact=False`` (default) is the physical convention: charging
  stores ``η_ch · R_ch`` of the ``R_ch`` drawn at the bus; discharging
  delivers ``R_dch`` at the bus while drawing ``R_dch / η_dch`` from the
  cells.

Actions that would overshoot a SoC bound are *partially executed* (rate is
clipped to the available headroom). Partial execution is what the RL
environment relies on: an infeasible action degrades gracefully to the
feasible fraction, and the true applied state is reported back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BatteryError, ConfigError

#: Action codes matching the paper's ``S_BP``.
CHARGE = 1
IDLE = 0
DISCHARGE = -1

_VALID_ACTIONS = (DISCHARGE, IDLE, CHARGE)


@dataclass(frozen=True)
class BatteryConfig:
    """Battery pack parameters.

    Defaults follow the paper's feasibility discussion (§II-A): pack sizes
    of 200–600 kWh dwarf a single BS's 2–4 kW draw; we default to the small
    end.

    Attributes
    ----------
    capacity_kwh:
        Nameplate energy capacity.
    charge_rate_kw / discharge_rate_kw:
        Maximum bus-side power while charging / discharging (``R_ch`` /
        ``R_dch``).
    charge_efficiency / discharge_efficiency:
        ``η_ch`` / ``η_dch`` in (0, 1].
    soc_min_fraction / soc_max_fraction:
        Eq. 5's bounds as fractions of capacity. The lower bound doubles as
        the blackout reserve (Eq. 6) — see
        :func:`repro.hub.constraints.required_reserve_kwh`.
    paper_exact:
        Select the literal Eq. 3 arithmetic (see module docstring).
    """

    capacity_kwh: float = 200.0
    charge_rate_kw: float = 50.0
    discharge_rate_kw: float = 50.0
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.95
    soc_min_fraction: float = 0.10
    soc_max_fraction: float = 0.95
    paper_exact: bool = False

    def __post_init__(self) -> None:
        if self.capacity_kwh <= 0:
            raise ConfigError(f"capacity_kwh must be positive, got {self.capacity_kwh}")
        if self.charge_rate_kw <= 0 or self.discharge_rate_kw <= 0:
            raise ConfigError("charge/discharge rates must be positive")
        for name in ("charge_efficiency", "discharge_efficiency"):
            eta = getattr(self, name)
            if not 0.0 < eta <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {eta}")
        if not 0.0 <= self.soc_min_fraction < self.soc_max_fraction <= 1.0:
            raise ConfigError(
                "SoC bounds must satisfy 0 <= min < max <= 1, got "
                f"[{self.soc_min_fraction}, {self.soc_max_fraction}]"
            )

    @property
    def soc_min_kwh(self) -> float:
        """Lower SoC bound in kWh."""
        return self.soc_min_fraction * self.capacity_kwh

    @property
    def soc_max_kwh(self) -> float:
        """Upper SoC bound in kWh."""
        return self.soc_max_fraction * self.capacity_kwh


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
