"""Battery point (BP) parameters — Eqs. 3–5 of the paper.

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

The fleet engine (:mod:`repro.fleet.simulation`) steps these dynamics for
every hub at once. Actions that would overshoot a SoC bound are *partially
executed* (rate is clipped to the available headroom). Partial execution
is what the RL environment relies on: an infeasible action degrades
gracefully to the feasible fraction, and the true applied state is
reported back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: Action codes matching the paper's ``S_BP``.
CHARGE = 1
IDLE = 0
DISCHARGE = -1


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
