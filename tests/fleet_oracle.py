"""Bridges between the scalar hub engine and the fleet engine.

The equivalence tests run N scalar :class:`~repro.hub.simulation.HubSimulation`
hubs against one :class:`~repro.fleet.simulation.FleetSimulation`: these
helpers stack scalar inputs into a fleet block and read one hub's scalar
:class:`~repro.hub.costs.CostBook` back out of a dense fleet book.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fleet import FleetCostBook, FleetInputs
from repro.hub.costs import CostBook, SlotLedger
from repro.hub.simulation import HubInputs


def stack_hub_inputs(inputs: Sequence[HubInputs]) -> FleetInputs:
    """Stack per-hub :class:`HubInputs` rows (one shared horizon) into a fleet block."""
    horizon = len(inputs[0])
    outage = None
    if any(one.outage is not None for one in inputs):
        outage = np.stack(
            [
                np.zeros(horizon, dtype=bool)
                if one.outage is None
                else np.asarray(one.outage, dtype=bool)
                for one in inputs
            ]
        )
    return FleetInputs(
        load_rate=np.stack([np.asarray(one.load_rate, dtype=float) for one in inputs]),
        rtp_kwh=np.stack([np.asarray(one.rtp_kwh, dtype=float) for one in inputs]),
        pv_power_kw=np.stack([np.asarray(one.pv_power_kw, dtype=float) for one in inputs]),
        wt_power_kw=np.stack([np.asarray(one.wt_power_kw, dtype=float) for one in inputs]),
        occupied=np.stack([np.asarray(one.occupied, dtype=int) for one in inputs]),
        discount=np.stack([np.asarray(one.discount, dtype=float) for one in inputs]),
        outage=outage,
    )


def hub_book(book: FleetCostBook, index: int) -> CostBook:
    """Hub ``index``'s scalar :class:`CostBook`, rebuilt from a dense fleet book."""
    scalar = CostBook(voll_per_kwh=book.voll_per_kwh)
    for t in range(len(book)):
        scalar.add(
            SlotLedger(
                slot=t,
                action=int(book.action[index, t]),
                p_bs_kw=float(book.p_bs_kw[index, t]),
                p_cs_kw=float(book.p_cs_kw[index, t]),
                p_bp_kw=float(book.p_bp_kw[index, t]),
                p_pv_kw=float(book.p_pv_kw[index, t]),
                p_wt_kw=float(book.p_wt_kw[index, t]),
                p_grid_kw=float(book.p_grid_kw[index, t]),
                surplus_kw=float(book.surplus_kw[index, t]),
                rtp_kwh=float(book.rtp_kwh[index, t]),
                srtp_kwh=float(book.srtp_kwh[index, t]),
                soc_kwh=float(book.soc_kwh[index, t]),
                grid_cost=float(book.grid_cost[index, t]),
                bp_cost=float(book.bp_cost[index, t]),
                revenue=float(book.revenue[index, t]),
                blackout=bool(book.blackout[index, t]),
                unserved_kwh=float(book.unserved_kwh[index, t]),
            )
        )
    return scalar
