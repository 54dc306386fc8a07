"""Offline dynamic-programming oracle for battery scheduling.

With the exogenous traces fixed and known, the battery scheduling problem
is a finite-horizon MDP over (slot, SoC). Discretising SoC onto a grid and
running backward value iteration yields the **optimal clairvoyant
schedule** — an upper bound no online policy (including ECT-DRL) can beat.
Used by the ablation benches to report how much of the attainable profit
each scheduler captures.

The oracle reads one hub of a :class:`~repro.fleet.simulation.
FleetSimulation` — its parameter row, its slot planes' revenue and
static Eq. 7 residual, and its price trace — and mirrors the engine's
dynamics (efficiencies, rate limits, SoC bounds, Eq. 7 balance, Eqs.
8–12 rewards) up to the SoC discretisation error, which shrinks with
``n_soc_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from ..errors import ConfigError
from ..fleet.simulation import FleetSimulation


@dataclass(frozen=True)
class OracleResult:
    """Optimal schedule and its value."""

    actions: np.ndarray
    total_reward: float
    soc_trajectory_kwh: np.ndarray


def _nearest_level(levels: list[float], step: float, value: float) -> int:
    """``int(np.argmin(np.abs(np.asarray(levels) - value)))`` for the
    ``np.linspace`` grid ``levels`` of spacing ``step``, without the scan.

    The nearest level is within one of the level ``value`` falls on, so
    only the levels from one below it to two above are compared, each
    with the same ``abs(level - value)``; the first of equal distances
    wins, as in ``argmin``. ``value`` must be finite.
    """
    last = len(levels) - 1
    below = int((value - levels[0]) / step)
    nearest = first = min(max(below - 1, 0), last)
    distance = abs(levels[first] - value)
    for k in range(first + 1, min(max(below + 2, 0), last) + 1):
        candidate = abs(levels[k] - value)
        if candidate < distance:
            nearest, distance = k, candidate
    return nearest


def optimal_schedule(
    simulation: FleetSimulation,
    hub: int,
    *,
    initial_soc_fraction: float = 0.5,
    n_soc_levels: int = 41,
) -> OracleResult:
    """Backward value iteration over the (slot, SoC) grid of hub ``hub``.

    The schedule spans the simulation's whole horizon. Blackout slots are
    not supported by the oracle (the emergency path is event-driven);
    pass outage-free inputs.
    """
    if n_soc_levels < 2:
        raise ConfigError(f"n_soc_levels must be at least 2, got {n_soc_levels}")
    planes = simulation.planes
    if planes.outage[hub].any():
        raise ConfigError("the DP oracle requires outage-free inputs")

    params = simulation.params
    capacity = float(params.capacity_kwh[hub])
    soc_min, soc_max = float(params.soc_min_kwh[hub]), float(params.soc_max_kwh[hub])
    charge_efficiency = float(params.charge_efficiency[hub])
    discharge_efficiency = float(params.discharge_efficiency[hub])
    discharge_rate = float(params.discharge_rate_kw[hub])
    dt = params.dt_h
    horizon = simulation.horizon
    grid = np.linspace(soc_min, soc_max, n_soc_levels)

    # Pre-compute action transitions on the SoC grid.
    charge_stored = float(params.charge_rate_kw[hub]) * dt * charge_efficiency
    if params.paper_exact[hub]:
        discharge_drawn = discharge_rate * dt * discharge_efficiency
        discharge_bus = discharge_drawn
    else:
        discharge_drawn = discharge_rate * dt / discharge_efficiency
        discharge_bus = discharge_rate * dt

    def transition(soc: float, action: int) -> tuple[float, float, bool]:
        """(new_soc, bus_power_kw, active) of one battery slot, clipped
        at the SoC bounds like the engine's battery block."""
        if action == IDLE:
            return soc, 0.0, False
        if action == CHARGE:
            stored = min(charge_stored, soc_max - soc)
            if stored <= 1e-12:
                return soc, 0.0, False
            return soc + stored, stored / charge_efficiency / dt, True
        drawn = min(discharge_drawn, soc - soc_min)
        if drawn <= 1e-12:
            return soc, 0.0, False
        bus = drawn * (discharge_bus / discharge_drawn)
        return soc - drawn, -bus / dt, True

    # The action-independent halves of Eqs. 7–12, read off the planes.
    residual_static = planes.residual_static_kw[hub].tolist()
    revenue = planes.revenue[hub].tolist()
    rtp = simulation.inputs.rtp_kwh[hub].tolist()
    c_bp = float(params.c_bp_per_slot[hub])

    def slot_reward(t: int, bus_kw: float, active: bool) -> float:
        """Eq. 12 summand for one slot given the battery's bus power."""
        grid_cost = max(residual_static[t] + bus_kw, 0.0) * dt * rtp[t]
        return revenue[t] - grid_cost - (c_bp if active else 0.0)

    levels = grid.tolist()
    step = (soc_max - soc_min) / (n_soc_levels - 1)

    def snap(soc: float) -> int:
        return _nearest_level(levels, step, soc)

    value = np.zeros((horizon + 1, n_soc_levels))
    best_action = np.zeros((horizon, n_soc_levels), dtype=int)
    for t in reversed(range(horizon)):
        for k, soc in enumerate(grid):
            best = -np.inf
            chosen = IDLE
            for action in (IDLE, CHARGE, DISCHARGE):
                new_soc, bus_kw, active = transition(float(soc), action)
                reward = slot_reward(t, bus_kw, active)
                candidate = reward + value[t + 1, snap(new_soc)]
                if candidate > best + 1e-12:
                    best = candidate
                    chosen = action
            value[t, k] = best
            best_action[t, k] = chosen

    # Forward pass: follow the greedy table with continuous SoC.
    soc = float(np.clip(initial_soc_fraction * capacity, soc_min, soc_max))
    actions = np.zeros(horizon, dtype=int)
    trajectory = np.zeros(horizon)
    total = 0.0
    for t in range(horizon):
        action = int(best_action[t, snap(soc)])
        new_soc, bus_kw, active = transition(soc, action)
        total += slot_reward(t, bus_kw, active)
        actions[t] = action if active or action == IDLE else IDLE
        soc = new_soc
        trajectory[t] = soc
    return OracleResult(
        actions=actions, total_reward=total, soc_trajectory_kwh=trajectory
    )
