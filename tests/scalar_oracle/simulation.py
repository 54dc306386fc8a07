"""Slot-stepping simulation engine for one ECT-Hub.

:class:`HubSimulation` advances a hub through aligned exogenous traces
(:class:`HubInputs`): per slot it applies a battery action, resolves the
Eq. 7 power balance, books Eqs. 8–11 into a :class:`SlotLedger`, and
handles blackout slots (grid import forced to zero, charging suspended,
the battery's emergency reserve carries the base stations).

The oracle's schedulers and RL environment share this engine, so every
method is scored by the exact same accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.battery import IDLE
from repro.errors import DataError, HubError
from repro.fleet.inputs import validate_exogenous_traces

from .costs import CostBook, SlotLedger, compute_slot_ledger
from .hub import EctHub


@dataclass(frozen=True)
class HubInputs:
    """Exogenous per-slot traces driving a simulation.

    All arrays share one length (the horizon):

    * ``load_rate`` — BS load ``α_t`` in [0, 1] (from traffic).
    * ``rtp_kwh`` — grid real-time price, $/kWh.
    * ``pv_power_kw`` / ``wt_power_kw`` — renewable generation.
    * ``occupied`` — charging-station occupancy ``S_CS`` (0/1), already
      resolved from strata + discounts by the pricing layer.
    * ``discount`` — discount fraction applied to the selling price.
    * ``outage`` — optional blackout mask.
    """

    load_rate: np.ndarray
    rtp_kwh: np.ndarray
    pv_power_kw: np.ndarray
    wt_power_kw: np.ndarray
    occupied: np.ndarray
    discount: np.ndarray
    outage: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.load_rate)
        for name in ("rtp_kwh", "pv_power_kw", "wt_power_kw", "occupied", "discount"):
            if len(getattr(self, name)) != n:
                raise DataError(f"hub input column {name} has inconsistent length")
        if self.outage is not None and len(self.outage) != n:
            raise DataError("outage mask has inconsistent length")
        validate_exogenous_traces(
            load_rate=self.load_rate,
            rtp_kwh=self.rtp_kwh,
            pv_power_kw=self.pv_power_kw,
            wt_power_kw=self.wt_power_kw,
            occupied=self.occupied,
            discount=self.discount,
        )

    def __len__(self) -> int:
        return len(self.load_rate)

    def slice(self, start: int, stop: int) -> "HubInputs":
        """Sub-inputs covering slots [start, stop)."""
        if not 0 <= start <= stop <= len(self):
            raise DataError(
                f"invalid slice [{start}, {stop}) for inputs of length {len(self)}"
            )
        return HubInputs(
            load_rate=self.load_rate[start:stop],
            rtp_kwh=self.rtp_kwh[start:stop],
            pv_power_kw=self.pv_power_kw[start:stop],
            wt_power_kw=self.wt_power_kw[start:stop],
            occupied=self.occupied[start:stop],
            discount=self.discount[start:stop],
            outage=None if self.outage is None else self.outage[start:stop],
        )


class HubSimulation:
    """Advance one hub through :class:`HubInputs`, slot by slot."""

    def __init__(
        self,
        hub: EctHub,
        inputs: HubInputs,
        *,
        initial_soc_fraction: float = 0.5,
    ) -> None:
        self.hub = hub
        self.inputs = inputs
        self._initial_soc = initial_soc_fraction
        self.book = CostBook()
        self._t = 0
        self.hub.battery.reset(initial_soc_fraction)

    # ------------------------------------------------------------------ #
    # State                                                                #
    # ------------------------------------------------------------------ #

    @property
    def t(self) -> int:
        """Next slot index to simulate."""
        return self._t

    @property
    def horizon(self) -> int:
        """Total number of slots."""
        return len(self.inputs)

    @property
    def done(self) -> bool:
        """Whether the horizon has been exhausted."""
        return self._t >= self.horizon

    def reset(self, *, soc_fraction: float | None = None) -> None:
        """Rewind to slot 0 and reset the battery and the cost book."""
        self._t = 0
        self.book = CostBook()
        self.hub.battery.reset(
            self._initial_soc if soc_fraction is None else soc_fraction
        )

    # ------------------------------------------------------------------ #
    # Stepping                                                             #
    # ------------------------------------------------------------------ #

    def step(self, action: int) -> SlotLedger:
        """Apply one battery action to the current slot and book the result."""
        if self.done:
            raise HubError(f"simulation horizon of {self.horizon} slots exhausted")
        t = self._t
        hub = self.hub
        cfg = hub.config
        dt = cfg.dt_h

        is_blackout = bool(self.inputs.outage is not None and self.inputs.outage[t])
        p_bs = float(hub.base_stations.power_kw(float(self.inputs.load_rate[t])))
        rtp = float(self.inputs.rtp_kwh[t])
        discount = float(self.inputs.discount[t])
        srtp = hub.charging_station.selling_price_kwh(discount)

        if is_blackout:
            ledger = self._blackout_slot(t, p_bs, rtp, srtp, dt)
        else:
            ledger = self._normal_slot(t, action, p_bs, rtp, srtp, dt)
        self.book.add(ledger)
        self._t += 1
        return ledger

    def _normal_slot(
        self, t: int, action: int, p_bs: float, rtp: float, srtp: float, dt: float
    ) -> SlotLedger:
        hub = self.hub
        cfg = hub.config
        p_pv = float(self.inputs.pv_power_kw[t])
        p_wt = float(self.inputs.wt_power_kw[t])
        occupied = int(self.inputs.occupied[t])
        p_cs = float(hub.charging_station.power_kw(occupied))

        result = hub.battery.step(action, dt_h=dt)
        balance = hub.power_balance(
            p_bs_kw=p_bs,
            p_cs_kw=p_cs,
            p_bp_kw=result.bus_power_kw,
            p_pv_kw=p_pv,
            p_wt_kw=p_wt,
        )
        return compute_slot_ledger(
            slot=t,
            action=result.action,
            p_bs_kw=p_bs,
            p_cs_kw=p_cs,
            p_bp_kw=result.bus_power_kw,
            p_pv_kw=p_pv,
            p_wt_kw=p_wt,
            p_grid_kw=balance.grid_import_kw,
            surplus_kw=balance.surplus_kw,
            rtp_kwh=rtp,
            srtp_kwh=srtp,
            soc_kwh=hub.battery.soc_kwh,
            c_bp_per_slot=cfg.c_bp_per_slot,
            dt_h=dt,
        )

    def _blackout_slot(
        self, t: int, p_bs: float, rtp: float, srtp: float, dt: float
    ) -> SlotLedger:
        """Grid down: serve the BS from renewables then the emergency reserve.

        Charging is suspended (no revenue) and the scheduled action is
        overridden — keeping communication alive is the hub's hard priority
        (§II-C). Renewables cover what they can; the battery may dip below
        ``SoC_min`` per the Eq. 6 reserve design.
        """
        hub = self.hub
        cfg = hub.config
        p_pv = float(self.inputs.pv_power_kw[t])
        p_wt = float(self.inputs.wt_power_kw[t])

        renewable_kw = p_pv + p_wt
        deficit_kwh = max(p_bs - renewable_kw, 0.0) * dt
        served_kwh = hub.battery.emergency_supply(deficit_kwh)
        unserved_kwh = deficit_kwh - served_kwh
        surplus_kw = max(renewable_kw - p_bs, 0.0)
        battery_kw = -served_kwh / dt if served_kwh > 0 else 0.0

        return compute_slot_ledger(
            slot=t,
            action=IDLE,
            p_bs_kw=p_bs,
            p_cs_kw=0.0,
            p_bp_kw=battery_kw,
            p_pv_kw=p_pv,
            p_wt_kw=p_wt,
            p_grid_kw=0.0,
            surplus_kw=surplus_kw,
            rtp_kwh=rtp,
            srtp_kwh=srtp,
            soc_kwh=hub.battery.soc_kwh,
            c_bp_per_slot=cfg.c_bp_per_slot,
            dt_h=dt,
            blackout=True,
            unserved_kwh=unserved_kwh,
        )

    def run(self, policy) -> CostBook:
        """Run the remaining horizon under ``policy(simulation) -> action``.

        The policy receives the simulation itself (so it can inspect
        ``t``, the inputs, and the battery) and returns a battery action
        per slot. Returns the completed :class:`CostBook`.
        """
        while not self.done:
            self.step(int(policy(self)))
        return self.book
