"""Fleet assembly: from ``default_fleet`` scenarios to a batched engine.

Bridges the per-hub scenario layer (:mod:`repro.hub.scenario`) and the
struct-of-arrays engine: stack N :class:`~repro.hub.scenario.HubScenario`
traces + configs into :class:`FleetParams` / :class:`FleetInputs`, resolve
charging occupancy from the generative strata model, and optionally sample
per-hub blackout masks — yielding city-scale fleets
(``build_default_fleet(n_hubs=200)``) ready to batch-step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import FleetError
from ..hub.scenario import HubScenario, fleet_traces
from .grid import FeederGroup
from .inputs import FleetInputs
from .params import FleetParams
from .simulation import FleetSimulation


def fleet_params_from_scenarios(scenarios: Sequence[HubScenario]) -> FleetParams:
    """Stack the scenarios' hub configs into engine parameter arrays."""
    if not scenarios:
        raise FleetError("a fleet needs at least one scenario")
    return FleetParams.from_hub_configs([s.hub_config for s in scenarios])


def fleet_inputs_from_scenarios(
    scenarios: Sequence[HubScenario],
    occupied: np.ndarray,
    discount: np.ndarray,
    *,
    outage: np.ndarray | None = None,
) -> FleetInputs:
    """The scenarios' traces once occupancy/discounts are decided.

    Scenarios compiled from one spec share their trace planes
    (:func:`~repro.hub.scenario.fleet_traces`); other lists are stacked.
    ``occupied`` / ``discount`` / ``outage`` accept either one row per hub
    (``(n_hubs, horizon)``) or a single shared ``(horizon,)`` trace that is
    broadcast to every hub.
    """
    if not scenarios:
        raise FleetError("a fleet needs at least one scenario")
    horizons = {s.n_hours for s in scenarios}
    if len(horizons) != 1:
        raise FleetError(
            f"all scenarios must share one horizon, got {sorted(horizons)}"
        )
    n_hubs, horizon = len(scenarios), horizons.pop()

    def rows(values: np.ndarray, dtype) -> np.ndarray:
        arr = np.asarray(values, dtype=dtype)
        if arr.ndim == 1:
            arr = np.broadcast_to(arr, (n_hubs, horizon)).copy()
        if arr.shape != (n_hubs, horizon):
            raise FleetError(
                f"per-hub trace must have shape ({n_hubs}, {horizon}), "
                f"got {arr.shape}"
            )
        return arr

    traces = fleet_traces(scenarios)
    return FleetInputs(
        load_rate=traces.load_rate,
        rtp_kwh=traces.rtp_kwh,
        pv_power_kw=traces.pv_power_kw,
        wt_power_kw=traces.wt_power_kw,
        occupied=rows(occupied, int),
        discount=rows(discount, float),
        outage=None if outage is None else rows(outage, bool),
    )


def fleet_simulation_from_scenarios(
    scenarios: Sequence[HubScenario],
    occupied: np.ndarray,
    discount: np.ndarray,
    *,
    outage: np.ndarray | None = None,
    initial_soc_fraction: float | np.ndarray = 0.5,
    feeders: FeederGroup | Sequence[FeederGroup] | None = None,
    voll_per_kwh: float | Sequence[float] = 0.0,
    storage: str = "dense",
    n_jobs: int = 1,
) -> FleetSimulation:
    """Convenience: params + inputs + engine in one call.

    ``storage`` selects the cost-book layout (see
    :class:`~repro.fleet.costs.FleetCostBook`): ``"windowed"`` folds
    slots into running aggregates over a bounded ring so book memory
    stops scaling with the horizon. ``n_jobs`` stacks that many jobs over
    the fleet (see :class:`FleetSimulation`).
    """
    return FleetSimulation(
        fleet_params_from_scenarios(scenarios),
        fleet_inputs_from_scenarios(scenarios, occupied, discount, outage=outage),
        initial_soc_fraction=initial_soc_fraction,
        feeders=feeders,
        voll_per_kwh=voll_per_kwh,
        storage=storage,
        n_jobs=n_jobs,
    )


def build_default_fleet(
    n_hubs: int,
    *,
    n_days: int = 30,
    seed: int = 0,
    outage_probability: float = 0.0,
    recovery_time_h: int = 4,
    n_feeders: int = 1,
    feeder_capacity_kw: float | None = None,
    allocation: str = "proportional",
) -> tuple[list[HubScenario], FleetSimulation]:
    """A ready-to-run fleet over ``default_fleet`` sites.

    Generates ``n_hubs`` heterogeneous urban/rural scenarios, realises
    charging occupancy from each hub's latent strata (no discounts — the
    undiscounted baseline used by the scheduler studies), optionally
    samples per-hub blackout windows, and returns both the scenario list
    (for inspection and cross-checks) and the batched engine.

    ``feeder_capacity_kw`` switches on shared-grid coupling: hubs are
    round-robined over ``n_feeders`` feeders of that per-slot import
    capacity, with contention resolved by ``allocation``
    (``"proportional"`` or ``"priority"``). ``None`` keeps the capacity
    unlimited — numerically the uncoupled engine — while still honouring
    the requested feeder topology in the cost book's rollups.

    Since the spec layer landed this is a thin shim over the declarative
    path: the arguments become a :class:`~repro.spec.scenario.ScenarioSpec`
    and the :mod:`repro.spec.compiler` does the assembly (bit-identically
    to the original imperative builder, which the fleet equivalence and
    determinism suites enforce).
    """
    if n_hubs <= 0:
        raise FleetError(f"n_hubs must be positive, got {n_hubs}")
    if n_days <= 0:
        raise FleetError(f"n_days must be positive, got {n_days}")
    # Local import: repro.spec imports repro.fleet submodules at load time.
    from ..spec.compiler import build
    from ..spec.scenario import (
        BlackoutSpec,
        FleetSpec,
        GridSpec,
        RunSpec,
        ScenarioSpec,
    )

    compiled = build(
        ScenarioSpec(
            name="default-fleet",
            fleet=FleetSpec(n_hubs=n_hubs),
            grid=GridSpec(
                n_feeders=n_feeders,
                feeder_capacity_kw=feeder_capacity_kw,
                allocation=allocation,
            ),
            blackout=BlackoutSpec(
                outage_probability_per_hour=outage_probability,
                recovery_time_h=recovery_time_h,
            ),
            run=RunSpec(days=n_days, seed=seed),
        )
    )
    return compiled.scenarios, compiled.simulation
