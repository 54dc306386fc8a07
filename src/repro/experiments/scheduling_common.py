"""Shared scheduling study: PPO per (hub, pricing method).

Fig. 13 and Table III share this pipeline: train the four pricing methods
once (the Table II study), turn each into a per-hub discount schedule, and
train/evaluate one ECT-DRL agent per (hub, method) pair on a one-hub
:class:`~repro.rl.fleet_env.FleetEnv`. All four agents of one hub see
identical traces; only the charging-price input differs — exactly the
paper's §V-C protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..causal.dataset import time_ids_for_slots
from ..causal.policy import DiscountPolicy, discount_schedule_for_hub
from ..hub.scenario import HubScenario, ScenarioConfig, build_fleet_scenarios
from ..rng import RngFactory
from ..rl.fleet_env import EnvConfig, FleetEnv
from ..rl.ppo import PpoConfig
from ..rl.training import evaluate_fleet_agent, train_fleet_ppo
from ..units import HOURS_PER_DAY
from .base import scaled
from .pricing_common import BUDGET_FRACTION, PricingStudy, run_pricing_study

#: Paper training/evaluation schedule (500 train / 100 test episodes).
PAPER_TRAIN_EPISODES = 500
PAPER_TEST_EPISODES = 100

#: Reduced schedule at scale=1 (laptop CPU); see EXPERIMENTS.md.
DEFAULT_TRAIN_EPISODES = 8
DEFAULT_TEST_EPISODES = 3

#: Discount level applied by every pricing method in the DRL stage.
DISCOUNT_LEVEL = 0.2


@dataclass
class HubMethodResult:
    """Evaluation outcome for one (hub, pricing method) pair."""

    hub_id: int
    method: str
    daily_rewards: np.ndarray  # (episodes, days)

    @property
    def average_daily_reward(self) -> float:
        """The Table III cell."""
        return float(self.daily_rewards.mean())

    def reward_series(self) -> np.ndarray:
        """Mean daily-reward curve across evaluation episodes (Fig. 13)."""
        return self.daily_rewards.mean(axis=0)


def run_scheduling_study(
    *,
    hub_ids: list[int],
    seed: int = 0,
    scale: float = 1.0,
    pricing: PricingStudy | None = None,
    scenario_days: int = 120,
) -> list[HubMethodResult]:
    """Train + evaluate ECT-DRL per (hub, pricing method)."""
    factory = RngFactory(seed=seed)
    pricing = pricing or run_pricing_study(seed=seed, scale=scale)

    scenario_config = ScenarioConfig(
        n_hours=scaled(scenario_days, scale, minimum=45) * HOURS_PER_DAY,
        charging=pricing.behavior.config,
    )
    scenarios = build_fleet_scenarios(scenario_config, factory)
    time_ids = time_ids_for_slots(scenario_config.n_hours)

    train_episodes = scaled(DEFAULT_TRAIN_EPISODES, scale, minimum=2)
    test_episodes = scaled(DEFAULT_TEST_EPISODES, scale, minimum=1)

    results: list[HubMethodResult] = []
    for hub_id in hub_ids:
        scenario = scenarios[hub_id]
        for policy in pricing.policies:
            results.append(
                _one_pair(
                    scenario,
                    pricing,
                    policy,
                    time_ids,
                    factory,
                    train_episodes=train_episodes,
                    test_episodes=test_episodes,
                )
            )
    return results


def _one_pair(
    scenario: HubScenario,
    pricing: PricingStudy,
    policy: DiscountPolicy,
    time_ids: np.ndarray,
    factory: RngFactory,
    *,
    train_episodes: int,
    test_episodes: int,
) -> HubMethodResult:
    schedule = discount_schedule_for_hub(
        policy,
        scenario.site.hub_id,
        time_ids,
        discount_level=DISCOUNT_LEVEL,
        budget_fraction=BUDGET_FRACTION,
    )
    stream = f"drl/{scenario.site.hub_id}/{policy.name}"
    env = FleetEnv(
        [scenario],
        pricing.behavior,
        schedule,
        config=EnvConfig(),
        rng=factory.stream(f"{stream}/env"),
    )
    agent, _ = train_fleet_ppo(
        env,
        episodes=train_episodes,
        config=PpoConfig(),
        rng=factory.stream(f"{stream}/ppo"),
    )
    # The evaluation episodes step as one stack: row e of the book is
    # episode e.
    evaluate_fleet_agent(env, agent, episodes=test_episodes)
    return HubMethodResult(
        hub_id=scenario.site.hub_id,
        method=policy.name,
        daily_rewards=env.simulation.books[0].daily_rewards(),
    )
