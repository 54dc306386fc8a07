"""The scalar hub engine, frozen as the fleet engine's test oracle.

A second, one-hub-at-a-time copy of the paper's Eqs. 1–12: stateful
devices (:mod:`.devices`), the Eq. 7 hub (:mod:`.hub`), the Eqs. 8–12
ledger and cost book (:mod:`.costs`), the slot-stepping engine
(:mod:`.simulation`), the ECT-DRL environment over it (:mod:`.env`), the
rule-based baselines (:mod:`.schedulers`) and the one-environment PPO
loops (:mod:`.training`). The program runs the fleet engine only
(:mod:`repro.fleet`, :class:`repro.rl.FleetEnv`); the equivalence suites
hold it to this copy within atol 1e-9.
"""

from .costs import CostBook, SlotLedger, compute_slot_ledger
from .devices import (
    BatteryError,
    BatteryPack,
    BatteryStepResult,
    ChargingStation,
    GridConnection,
)
from .env import EctHubEnv
from .hub import EctHub, PowerBalance
from .scenario import build_hub, inputs_with_occupancy, scenario_simulation
from .schedulers import (
    GreedyRenewableScheduler,
    IdleScheduler,
    RandomScheduler,
    RuleBasedScheduler,
    Scheduler,
)
from .simulation import HubInputs, HubSimulation
from .training import TrainingHistory, evaluate_agent, evaluate_scheduler, train_ppo

__all__ = [
    "BatteryError",
    "BatteryPack",
    "BatteryStepResult",
    "ChargingStation",
    "CostBook",
    "EctHub",
    "EctHubEnv",
    "GreedyRenewableScheduler",
    "GridConnection",
    "HubInputs",
    "HubSimulation",
    "IdleScheduler",
    "PowerBalance",
    "RandomScheduler",
    "RuleBasedScheduler",
    "Scheduler",
    "SlotLedger",
    "TrainingHistory",
    "build_hub",
    "compute_slot_ledger",
    "evaluate_agent",
    "evaluate_scheduler",
    "inputs_with_occupancy",
    "scenario_simulation",
    "train_ppo",
]
