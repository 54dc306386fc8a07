"""Bridges between the scalar hub engine and the fleet engine, the
fleet schedulers' per-slot oracle, and a round-robin feeder builder.

The equivalence tests run N scalar :class:`~scalar_oracle.HubSimulation`
hubs (the frozen oracle in ``tests/scalar_oracle``) against one
:class:`~repro.fleet.simulation.FleetSimulation`: these helpers stack
scalar inputs into a fleet block, cut one hub's :class:`HubInputs` out of
a fleet block, and read one hub's scalar :class:`CostBook` back out of a
dense fleet book.

:func:`per_slot_schedule` freezes how the fleet schedulers decided one
slot at a time, with one feeder headroom ``bincount`` per slot
(:func:`per_slot_available_import_kw`), before they became block
planners; the block plans must equal it bit for bit. :func:`per_slot_run`
books a plan one finished and committed slot at a time, the path an
open-loop block run (SoC chain per slot, one finish and commit per
block) must equal bit for bit, and :func:`per_slot_fold` freezes the
windowed book's fold of one slot at a time, in slot order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.energy.battery import CHARGE, DISCHARGE, IDLE
from repro.errors import FleetError
from repro.fleet import FeederGroup, FleetCostBook, FleetInputs
from scalar_oracle import CostBook, HubInputs, SlotLedger


class SlotTraces(NamedTuple):
    """One slot's exogenous columns, each shaped ``(n_hubs,)``."""

    load_rate: np.ndarray
    rtp_kwh: np.ndarray
    pv_power_kw: np.ndarray
    wt_power_kw: np.ndarray
    occupied: np.ndarray
    discount: np.ndarray


def slot_traces(inputs: FleetInputs, t: int) -> SlotTraces:
    """All six trace columns at slot ``t``: the per-step view the engine
    read before the slot planes."""
    if not 0 <= t < inputs.horizon:
        raise FleetError(f"slot {t} out of range for horizon {inputs.horizon}")
    return SlotTraces(
        load_rate=inputs.load_rate[:, t],
        rtp_kwh=inputs.rtp_kwh[:, t],
        pv_power_kw=inputs.pv_power_kw[:, t],
        wt_power_kw=inputs.wt_power_kw[:, t],
        occupied=inputs.occupied[:, t],
        discount=inputs.discount[:, t],
    )


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


def hub_inputs(inputs: FleetInputs, index: int) -> HubInputs:
    """Row ``index`` of a fleet block as scalar-engine :class:`HubInputs`."""
    if not 0 <= index < inputs.n_hubs:
        raise FleetError(f"hub index {index} out of range for {inputs.n_hubs} hubs")
    return HubInputs(
        load_rate=inputs.load_rate[index],
        rtp_kwh=inputs.rtp_kwh[index],
        pv_power_kw=inputs.pv_power_kw[index],
        wt_power_kw=inputs.wt_power_kw[index],
        occupied=inputs.occupied[index],
        discount=inputs.discount[index],
        outage=None if inputs.outage is None else inputs.outage[index],
    )


def uniform_feeders(
    n_hubs: int,
    n_feeders: int,
    capacity_kw: float | np.ndarray,
    *,
    policy: str = "proportional",
    priority: np.ndarray | None = None,
) -> FeederGroup:
    """Round-robin hubs over ``n_feeders`` feeders of ``capacity_kw``.

    ``capacity_kw`` may be a scalar (every feeder, every slot), a
    ``(n_feeders,)`` array, or a full ``(n_feeders, horizon)`` block.
    """
    capacity = np.asarray(capacity_kw, dtype=float)
    if capacity.ndim == 0:
        capacity = np.full(n_feeders, float(capacity))
    return FeederGroup(
        assignment=np.arange(n_hubs) % n_feeders,
        import_capacity_kw=capacity,
        policy=policy,
        priority=priority,
    )


def hub_book(book: FleetCostBook, index: int) -> CostBook:
    """Hub ``index``'s scalar :class:`CostBook`, rebuilt from a dense fleet book."""
    scalar = CostBook(voll_per_kwh=book.voll_per_kwh)
    for t in range(book._n_recorded):
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


def per_slot_available_import_kw(
    feeders: FeederGroup, base_import_kw: np.ndarray, t: int
) -> np.ndarray:
    """Slot ``t``'s fair-share feeder headroom, one ``bincount`` per slot."""
    if feeders.is_unlimited:
        return np.full(feeders.n_hubs, np.inf)
    demand = np.bincount(
        feeders.assignment, weights=base_import_kw, minlength=feeders.n_feeders
    )
    headroom = np.maximum(feeders.capacity_at(t) - demand, 0.0)
    return (headroom / np.maximum(feeders.members, 1))[feeders.assignment]


def per_slot_congestion_loads(params, inputs: FleetInputs, t: int):
    """Slot ``t``'s base import (zero while dark) and on-site renewable
    surplus, rebuilt from the traces as the per-slot engine formed them:
    ``(base_import_kw, onsite_surplus_kw)``, each ``(n_hubs,)``."""
    p_bs = params.bs_power_kw(inputs.load_rate[:, t])
    p_cs = params.cs_power_kw(inputs.occupied[:, t])
    pv, wt = inputs.pv_power_kw[:, t], inputs.wt_power_kw[:, t]
    base = np.where(
        inputs.outage_mask()[:, t], 0.0, np.maximum(p_bs + p_cs - pv - wt, 0.0)
    )
    return base, np.maximum(pv + wt - p_bs - p_cs, 0.0)


def per_slot_schedule(scheduler, view) -> np.ndarray:
    """``(n_hubs, horizon)`` actions of a fleet scheduler, decided slot by slot.

    Reads the scheduler's configuration (name, quantiles, congestion
    flag; a random scheduler's own streams, which this draws from) and
    the view's traces, planes and feeders. Give it its own scheduler
    instance: drawing consumes a random scheduler's streams.
    """
    name = scheduler.name
    n_hubs, horizon = view.n_hubs, view.horizon
    inputs, planes = view.inputs, view.planes
    prices = inputs.rtp_kwh
    if name == "random":
        drawn = np.stack(
            [rng.integers(-1, 2, size=horizon) for rng in scheduler._rngs]
        )
    elif name == "rule-based":
        cheap = np.quantile(prices, scheduler.cheap_quantile, axis=1)
        expensive = np.quantile(prices, scheduler.expensive_quantile, axis=1)
    elif name == "greedy-renewable":
        threshold = np.quantile(prices, scheduler.expensive_quantile, axis=1)
    slots = []
    for t in range(horizon):
        if name == "idle":
            actions = np.zeros(n_hubs, dtype=int)
        elif name == "random":
            actions = drawn[:, t]
        elif name == "rule-based":
            price = prices[:, t]
            actions = np.where(
                price <= cheap,
                CHARGE,
                np.where(price >= expensive, DISCHARGE, IDLE),
            )
        else:
            renewables = inputs.pv_power_kw[:, t] + inputs.wt_power_kw[:, t]
            actions = np.where(
                renewables > planes.p_bs_kw[:, t],
                CHARGE,
                np.where(prices[:, t] >= threshold, DISCHARGE, IDLE),
            )
        if name in ("rule-based", "greedy-renewable") and scheduler.congestion_aware:
            feeders = view.feeders
            if not feeders.is_unlimited:
                base, onsite_surplus = per_slot_congestion_loads(
                    view.params, inputs, t
                )
                available = per_slot_available_import_kw(feeders, base, t)
                extra_import = np.maximum(
                    view.params.charge_rate_kw - onsite_surplus, 0.0
                )
                actions = np.where(
                    (actions == CHARGE) & (extra_import > available), IDLE, actions
                )
        slots.append(actions)
    return np.stack(slots, axis=1)


def per_slot_run(sim, plan: np.ndarray) -> tuple[FleetCostBook, ...]:
    """Step ``sim`` from its current slot to the horizon, one public
    ``step`` per slot: each slot is finished and committed before the next.

    ``plan`` holds the whole horizon's actions with the slot axis last —
    ``(n_hubs, horizon)``, or ``(n_jobs, n_hubs, horizon)`` stacked.
    """
    for t in range(sim.t, sim.horizon):
        sim.step(plan[..., t])
    return sim.books


def per_slot_fold(book: FleetCostBook) -> dict[str, np.ndarray | int]:
    """The windowed book's running aggregates, folded from a dense book's
    columns one slot at a time in slot order, with one feeder
    ``bincount`` per slot. Keys name the windowed book's public
    aggregates (the per-feeder ones as its ``feeder_aggregates()`` keys)."""
    n_hubs, feeders = book.n_hubs, book.feeders
    assignment, n_feeders = feeders.assignment, feeders.n_feeders
    op_cost, revenue_total = np.zeros(n_hubs), np.zeros(n_hubs)
    unserved_total, shortfall_total = np.zeros(n_hubs), np.zeros(n_hubs)
    daily = np.zeros((n_hubs, -(-book._n_recorded // 24)))
    feeder_import, feeder_shortfall = np.zeros(n_feeders), np.zeros(n_feeders)
    feeder_peak = np.zeros(n_feeders)
    congested = blackout = 0
    for t in range(book._n_recorded):
        grid_cost, bp_cost = book.grid_cost[:, t], book.bp_cost[:, t]
        revenue, unserved = book.revenue[:, t], book.unserved_kwh[:, t]
        shortfall = book.import_shortfall_kw[:, t]
        op_cost += grid_cost
        op_cost += bp_cost
        revenue_total += revenue
        unserved_total += unserved
        shortfall_total += shortfall
        daily[:, t // 24] += (
            revenue - grid_cost - bp_cost - book.voll_per_kwh * unserved
        )
        slot_import = np.bincount(
            assignment, weights=book.p_grid_kw[:, t], minlength=n_feeders
        )
        slot_shortfall = np.bincount(assignment, weights=shortfall, minlength=n_feeders)
        feeder_import += slot_import
        feeder_shortfall += slot_shortfall
        np.maximum(feeder_peak, slot_import, out=feeder_peak)
        congested += int(np.count_nonzero(slot_shortfall > 0.0))
        blackout += int(np.count_nonzero(book.blackout[:, t]))
    return {
        "operating_cost_per_hub": op_cost,
        "charging_revenue_per_hub": revenue_total,
        "unserved_per_hub_kwh": unserved_total,
        "import_shortfall_per_hub_kwh": shortfall_total,
        "daily_rewards": daily,
        "feeder_import_kwh": feeder_import,
        "feeder_shortfall_kwh": feeder_shortfall,
        "feeder_peak_import_kw": feeder_peak,
        "congested_feeder_slots": congested,
        "blackout_hub_slots": blackout,
    }
