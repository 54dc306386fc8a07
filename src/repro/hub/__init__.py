"""``repro.hub`` — one ECT-Hub's configuration and scenario assembly.

Holds the paper's §III hub description: the equipment configuration
(:mod:`.hub`), Eq. 6 reserve sizing (:mod:`.constraints`), and scenario
assembly for the 12-hub fleet with its synthesized exogenous traces
(:mod:`.scenario`). The fleet engine (:mod:`repro.fleet`) steps these
hubs; Eq. 7 and the Eqs. 8–12 accounting live there.
"""

from .constraints import (
    required_reserve_kwh,
    sized_battery_config,
)
from .hub import HubConfig
from .scenario import (
    HubScenario,
    ScenarioConfig,
    build_fleet_scenarios,
    build_scenario,
    fleet_behavior_model,
    resolve_occupancy,
)

__all__ = [
    "HubConfig",
    "HubScenario",
    "ScenarioConfig",
    "build_fleet_scenarios",
    "build_scenario",
    "fleet_behavior_model",
    "required_reserve_kwh",
    "resolve_occupancy",
    "sized_battery_config",
]
