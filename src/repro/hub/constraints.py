"""Operating constraints — Eqs. 5 and 6 of the paper.

Eq. 5 bounds the SoC inside ``[SoC_min, SoC_max]`` to slow degradation;
Eq. 6 requires the reserve below ``SoC_min`` to carry the base stations
through a blackout until the grid recovers (``T_r`` slots):

``Σ_{t..t+T_r} P_BS(t) ≤ SoC_min``

Since ``P_BS ≤ P_max`` always, sizing against the worst case
``SoC_min ≥ T_r · P_max · dt`` guarantees Eq. 6 for every window.
"""

from __future__ import annotations

from ..errors import ConfigError, ConstraintViolation
from ..energy.base_station import BaseStationCluster
from ..energy.battery import BatteryConfig


def required_reserve_kwh(
    cluster: BaseStationCluster,
    recovery_time_h: int,
    *,
    dt_h: float = 1.0,
) -> float:
    """Worst-case Eq. 6 reserve: ``T_r`` slots of full-load BS draw."""
    if recovery_time_h < 0:
        raise ConfigError(f"recovery_time_h must be non-negative, got {recovery_time_h}")
    if dt_h <= 0:
        raise ConfigError(f"dt_h must be positive, got {dt_h}")
    return cluster.max_power_kw * recovery_time_h * dt_h


def sized_battery_config(
    base: BatteryConfig,
    cluster: BaseStationCluster,
    recovery_time_h: int,
    *,
    dt_h: float = 1.0,
) -> BatteryConfig:
    """A copy of ``base`` with ``SoC_min`` raised to satisfy Eq. 6 if needed."""
    needed_fraction = required_reserve_kwh(cluster, recovery_time_h, dt_h=dt_h) / base.capacity_kwh
    if needed_fraction >= base.soc_max_fraction:
        raise ConstraintViolation(
            f"battery of {base.capacity_kwh:.0f} kWh cannot hold the Eq. 6 "
            f"reserve ({needed_fraction:.0%} of capacity) below SoC_max "
            f"({base.soc_max_fraction:.0%})"
        )
    if base.soc_min_fraction >= needed_fraction:
        return base
    from ..config import replace  # local import to avoid cycles at module load

    return replace(base, soc_min_fraction=float(needed_fraction))
