"""``repro.rl`` — ECT-DRL: PPO battery scheduling on the fleet engine.

Implements §IV-B of the paper: the Eq. 24 state and 3-action battery
environment over the vectorized engine (:mod:`.fleet_env`; the paper's
one agent per hub is its one-hub case, and N hubs step per action
batch), the PPO learner with the Eq. 25 clipped surrogate (:mod:`.ppo`)
including hub-axis batch parallelism, the training and evaluation loops
(:mod:`.training`), and a clairvoyant DP oracle used by the ablations
(:mod:`.dp_oracle`). The heuristic baselines are the fleet schedulers
of :mod:`repro.fleet.schedulers`.
"""

from .buffer import FleetRolloutBuffer
from .dp_oracle import OracleResult, optimal_schedule
from .fleet_env import ACTION_TO_SBP, FEEDER_OBS_CLIP, N_ACTIONS, EnvConfig, FleetEnv
from .networks import ActorCritic
from .ppo import PpoAgent, PpoConfig, UpdateStats
from .spaces import Box, Discrete
from .training import (
    FleetTrainingHistory,
    evaluate_fleet_agent,
    train_fleet_ppo,
)

__all__ = [
    "ACTION_TO_SBP",
    "ActorCritic",
    "Box",
    "Discrete",
    "EnvConfig",
    "FEEDER_OBS_CLIP",
    "FleetEnv",
    "FleetRolloutBuffer",
    "FleetTrainingHistory",
    "N_ACTIONS",
    "OracleResult",
    "PpoAgent",
    "PpoConfig",
    "UpdateStats",
    "evaluate_fleet_agent",
    "optimal_schedule",
    "train_fleet_ppo",
]
