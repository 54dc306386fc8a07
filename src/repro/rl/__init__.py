"""``repro.rl`` — ECT-DRL: PPO battery scheduling plus baselines.

Implements §IV-B of the paper: the Eq. 24 state, the 3-action battery
environment (:mod:`.env`) and its batched fleet-scale counterpart
(:mod:`.fleet_env`, stepping N hubs per action batch over the vectorized
engine), the PPO learner with the Eq. 25 clipped surrogate (:mod:`.ppo`)
including hub-axis batch parallelism, rule-based scheduler baselines
(:mod:`.schedulers`), and a clairvoyant DP oracle used by the ablations
(:mod:`.dp_oracle`).
"""

from .buffer import FleetRolloutBuffer
from .dp_oracle import OracleResult, optimal_schedule
from .env import ACTION_TO_SBP, N_ACTIONS, EctHubEnv, EnvConfig
from .fleet_env import FEEDER_OBS_CLIP, FleetEnv
from .networks import ActorCritic
from .ppo import PpoAgent, PpoConfig, UpdateStats
from .schedulers import (
    GreedyRenewableScheduler,
    IdleScheduler,
    RandomScheduler,
    RuleBasedScheduler,
    Scheduler,
)
from .spaces import Box, Discrete
from .training import (
    FleetTrainingHistory,
    TrainingHistory,
    evaluate_agent,
    evaluate_fleet_agent,
    evaluate_scheduler,
    train_fleet_ppo,
    train_ppo,
)

__all__ = [
    "ACTION_TO_SBP",
    "ActorCritic",
    "Box",
    "Discrete",
    "EctHubEnv",
    "EnvConfig",
    "FEEDER_OBS_CLIP",
    "FleetEnv",
    "FleetRolloutBuffer",
    "FleetTrainingHistory",
    "GreedyRenewableScheduler",
    "IdleScheduler",
    "N_ACTIONS",
    "OracleResult",
    "PpoAgent",
    "PpoConfig",
    "RandomScheduler",
    "RuleBasedScheduler",
    "Scheduler",
    "TrainingHistory",
    "UpdateStats",
    "evaluate_agent",
    "evaluate_fleet_agent",
    "evaluate_scheduler",
    "optimal_schedule",
    "train_fleet_ppo",
    "train_ppo",
]
