"""``repro.hub`` — the ECT-Hub core: composition, accounting, simulation.

Implements the paper's §III system model end to end: Eq. 7 power balance
(:mod:`.hub`), Eqs. 8–12 cost accounting (:mod:`.costs`), Eq. 6 reserve
sizing (:mod:`.constraints`), the slot-stepping engine
(:mod:`.simulation`), and scenario assembly for the 12-hub fleet
(:mod:`.scenario`).
"""

from .constraints import (
    required_reserve_kwh,
    sized_battery_config,
)
from .costs import CostBook, SlotLedger, compute_slot_ledger
from .hub import EctHub, HubConfig, PowerBalance
from .scenario import (
    HubScenario,
    ScenarioConfig,
    build_fleet_scenarios,
    build_scenario,
    fleet_behavior_model,
    resolve_occupancy,
)
from .simulation import HubInputs, HubSimulation

__all__ = [
    "CostBook",
    "EctHub",
    "HubConfig",
    "HubInputs",
    "HubScenario",
    "HubSimulation",
    "PowerBalance",
    "ScenarioConfig",
    "SlotLedger",
    "build_fleet_scenarios",
    "build_scenario",
    "compute_slot_ledger",
    "fleet_behavior_model",
    "required_reserve_kwh",
    "resolve_occupancy",
    "sized_battery_config",
]
