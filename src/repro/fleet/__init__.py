"""``repro.fleet`` — the simulation engine: batch-step ECT-Hubs at once.

The paper's Fig. 6 vision is a *network* of base-station-centric hubs;
this subsystem simulates that network as struct-of-arrays state instead of
N Python objects, and a single hub as a fleet of one.
:class:`FleetSimulation` advances all hubs per slot with vectorized
power-balance / ledger / blackout arithmetic, and :class:`FleetCostBook`
aggregates Eqs. 8–12 per hub and network-wide. The tests hold it within
atol 1e-9 of a one-hub-at-a-time scalar engine kept under
``tests/scalar_oracle`` as the equivalence oracle.

Layout
------
``params`` / ``inputs``
    Struct-of-arrays equipment parameters and exogenous traces.
``simulation``
    The batched slot-stepping engine (fused per-slot kernel).
``planes``
    Precomputed ``(n_hubs, horizon)`` planes of every action-independent
    slot quantity — the cache the fused kernel and the congestion-aware
    schedulers read instead of rebuilding per-slot state.
``costs``
    Fleet-level cost book (per-hub arrays + network totals).
``schedulers``
    Vectorized idle / random / rule-based / greedy-renewable baselines,
    open-loop block planners (rule-based/greedy additionally back off
    charges under feeder congestion).
``grid``
    Shared-grid coupling: :class:`FeederGroup` assigns hubs to feeders
    with finite per-slot import capacity; contention is resolved by
    proportional or priority-ordered curtailment.
``builder``
    Assembly from :func:`~repro.synth.catalog.default_fleet` scenarios.
"""

from .builder import (
    build_default_fleet,
    fleet_inputs_from_scenarios,
    fleet_params_from_scenarios,
    fleet_simulation_from_scenarios,
)
from .costs import FleetCostBook
from .grid import ALLOCATION_POLICIES, FeederGroup
from .inputs import FleetInputs
from .params import FleetParams
from .planes import SlotPlanes
from .schedulers import (
    FLEET_SCHEDULERS,
    FleetGreedyRenewableScheduler,
    FleetIdleScheduler,
    FleetRandomScheduler,
    FleetRuleBasedScheduler,
    FleetScheduler,
    make_fleet_scheduler,
)
from .simulation import FleetSimulation

__all__ = [
    "ALLOCATION_POLICIES",
    "FLEET_SCHEDULERS",
    "FeederGroup",
    "FleetCostBook",
    "FleetGreedyRenewableScheduler",
    "FleetIdleScheduler",
    "FleetInputs",
    "FleetParams",
    "FleetRandomScheduler",
    "FleetRuleBasedScheduler",
    "FleetScheduler",
    "FleetSimulation",
    "SlotPlanes",
    "build_default_fleet",
    "fleet_inputs_from_scenarios",
    "fleet_params_from_scenarios",
    "fleet_simulation_from_scenarios",
    "make_fleet_scheduler",
]
