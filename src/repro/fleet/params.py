"""Per-hub equipment parameters in struct-of-arrays form.

:class:`FleetParams` flattens N :class:`~repro.hub.hub.HubConfig` objects
into ``(n_hubs,)`` NumPy arrays so :class:`~repro.fleet.simulation.
FleetSimulation` can advance every hub with one vectorized expression per
slot. Each array holds one config value per hub (battery Eqs. 3–5, BS
Eq. 1, CS Eq. 2, the Eq. 8 battery operating cost), so the batched
arithmetic reproduces a one-hub-at-a-time step term for term.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..errors import FleetError
from ..hub.hub import HubConfig


@dataclass(frozen=True)
class FleetParams:
    """``(n_hubs,)`` arrays of every per-hub scalar the engine needs.

    ``dt_h`` stays a scalar: the batched engine advances all hubs on one
    shared slot clock, so mixed slot lengths are rejected at build time.
    """

    capacity_kwh: np.ndarray
    charge_rate_kw: np.ndarray
    discharge_rate_kw: np.ndarray
    charge_efficiency: np.ndarray
    discharge_efficiency: np.ndarray
    soc_min_kwh: np.ndarray
    soc_max_kwh: np.ndarray
    paper_exact: np.ndarray
    n_base_stations: np.ndarray
    bs_p_min_kw: np.ndarray
    bs_p_max_kw: np.ndarray
    cs_rate_kw: np.ndarray
    cs_base_price_kwh: np.ndarray
    import_limit_kw: np.ndarray
    c_bp_per_slot: np.ndarray
    dt_h: float = 1.0

    def __post_init__(self) -> None:
        first = self.capacity_kwh
        n = first.shape[0] if isinstance(first, np.ndarray) and first.ndim == 1 else -1
        for spec in fields(self):
            if spec.name == "dt_h":
                continue
            arr = getattr(self, spec.name)
            if not isinstance(arr, np.ndarray) or arr.ndim != 1:
                raise FleetError(f"fleet parameter {spec.name} must be a 1-D array")
            if arr.shape[0] != n:
                raise FleetError(
                    f"fleet parameter {spec.name} has length {arr.shape[0]}, "
                    f"expected {n}"
                )
        if n <= 0:
            raise FleetError("a fleet needs at least one hub")
        if self.dt_h <= 0:
            raise FleetError(f"dt_h must be positive, got {self.dt_h}")

    @property
    def n_hubs(self) -> int:
        """Number of hubs in the fleet."""
        return int(self.capacity_kwh.shape[0])

    def tile(self, copies: int) -> "FleetParams":
        """The fleet repeated ``copies`` times along the hub axis (copy
        ``k`` holds hubs ``k*n_hubs ... (k+1)*n_hubs - 1``)."""
        if copies == 1:
            return self
        return FleetParams(
            **{
                spec.name: np.tile(getattr(self, spec.name), copies)
                for spec in fields(self)
                if spec.name != "dt_h"
            },
            dt_h=self.dt_h,
        )

    def bs_power_kw(self, load_rate: np.ndarray) -> np.ndarray:
        """Eq. 1 cluster draw per hub for load fractions ``load_rate``.

        One shared definition for the engine, the plane cache, and the
        feeder congestion signal, so every consumer prices the BS load
        with bit-identical arithmetic. ``load_rate`` may be one slot
        (``(n_hubs,)``) or a full trace block (``(n_hubs, horizon)``);
        2-D inputs broadcast the per-hub parameters over the horizon.
        """
        load_rate = np.asarray(load_rate)
        n_bs, p_min, p_max = (
            self.n_base_stations,
            self.bs_p_min_kw,
            self.bs_p_max_kw,
        )
        if load_rate.ndim == 2:
            n_bs, p_min, p_max = n_bs[:, None], p_min[:, None], p_max[:, None]
        return n_bs * (p_min + load_rate * (p_max - p_min))

    def cs_power_kw(self, occupied: np.ndarray) -> np.ndarray:
        """Eq. 2 charging-station draw per hub for occupancy ``occupied``.

        Accepts one slot or a ``(n_hubs, horizon)`` block like
        :meth:`bs_power_kw`.
        """
        occupied = np.asarray(occupied)
        rate = self.cs_rate_kw
        if occupied.ndim == 2:
            rate = rate[:, None]
        return occupied * rate

    @classmethod
    def from_hub_configs(cls, configs: Sequence[HubConfig]) -> "FleetParams":
        """Stack validated :class:`HubConfig` objects into parameter arrays.

        Raises :class:`FleetError` for fleet-incompatible configs: mixed
        slot lengths.
        """
        if not configs:
            raise FleetError("a fleet needs at least one HubConfig")
        dts = {config.dt_h for config in configs}
        if len(dts) != 1:
            raise FleetError(f"all hubs must share one slot length, got {sorted(dts)}")

        def column(getter, dtype=float) -> np.ndarray:
            return np.array([getter(config) for config in configs], dtype=dtype)

        return cls(
            capacity_kwh=column(lambda c: c.battery.capacity_kwh),
            charge_rate_kw=column(lambda c: c.battery.charge_rate_kw),
            discharge_rate_kw=column(lambda c: c.battery.discharge_rate_kw),
            charge_efficiency=column(lambda c: c.battery.charge_efficiency),
            discharge_efficiency=column(lambda c: c.battery.discharge_efficiency),
            soc_min_kwh=column(lambda c: c.battery.soc_min_kwh),
            soc_max_kwh=column(lambda c: c.battery.soc_max_kwh),
            paper_exact=column(lambda c: c.battery.paper_exact, dtype=bool),
            n_base_stations=column(lambda c: c.n_base_stations, dtype=int),
            bs_p_min_kw=column(lambda c: c.base_station.p_min_kw),
            bs_p_max_kw=column(lambda c: c.base_station.p_max_kw),
            cs_rate_kw=column(lambda c: c.charging_station.rate_kw),
            cs_base_price_kwh=column(lambda c: c.charging_station.base_price_kwh),
            import_limit_kw=column(lambda c: c.grid.import_limit_kw),
            c_bp_per_slot=column(lambda c: c.c_bp_per_slot),
            dt_h=float(configs[0].dt_h),
        )
