"""ECT-DRL: train a PPO battery scheduler and compare against heuristics.

Reproduces the paper's §IV-B loop at example scale: a 30-day-episode
environment over one hub with evening discounts, PPO training, and an
evaluation against the rule-based / idle baselines plus the clairvoyant
DP oracle bound.

Run:  python examples/drl_scheduling.py
"""

from __future__ import annotations

import numpy as np

from repro.fleet import (
    FleetIdleScheduler,
    FleetInputs,
    FleetParams,
    FleetRuleBasedScheduler,
    FleetSimulation,
)
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.hub.scenario import resolve_occupancy
from repro.rl import (
    EnvConfig,
    FleetEnv,
    evaluate_fleet_agent,
    optimal_schedule,
    train_fleet_ppo,
)
from repro.rng import RngFactory


def main() -> None:
    factory = RngFactory(seed=3)
    config = ScenarioConfig(n_hours=24 * 90)
    scenario = build_fleet_scenarios(config, factory)[1]  # a rural PV+WT hub
    behavior = fleet_behavior_model(config, factory)

    # Simple evening discount schedule (a trained ECT-Price policy would
    # normally produce this — see examples/pricing_campaign.py).
    hours = np.arange(scenario.n_hours) % 24
    discounts = np.where(hours >= 18, 0.2, 0.0)

    # The paper's one agent per hub: an environment over a fleet of one.
    env = FleetEnv([scenario], behavior, discounts,
                   config=EnvConfig(episode_days=30),
                   rng=factory.stream("env"))

    print("training PPO for 30 episodes …")
    agent, history = train_fleet_ppo(env, episodes=30, rng=factory.stream("ppo"))
    first5 = np.mean(history.mean_episode_returns[:5])
    last5 = np.mean(history.mean_episode_returns[-5:])
    print(f"episode return: first-5 avg {first5:.0f} -> last-5 avg {last5:.0f}")

    # Five evaluation episodes step as one stack: book row e is episode e.
    evaluate_fleet_agent(env, agent, episodes=5)
    ppo_daily = env.simulation.books[0].daily_rewards().mean()

    def heuristic_daily(scheduler) -> float:
        env.reset(5)
        (book,) = env.simulation.run_jobs([scheduler])
        return book.daily_rewards().mean()

    rule_daily = heuristic_daily(FleetRuleBasedScheduler())
    idle_daily = heuristic_daily(FleetIdleScheduler())

    # Clairvoyant upper bound on one fixed 30-day window.
    rng = factory.stream("oracle")
    window = 30 * 24
    strata = behavior.sample_strata(scenario.site.hub_id, np.arange(window), rng)
    occupied = resolve_occupancy(strata, discounts[:window] > 0)
    inputs = FleetInputs(
        load_rate=scenario.load_rate[None, :window],
        rtp_kwh=scenario.rtp_kwh[None, :window],
        pv_power_kw=scenario.pv_power_kw[None, :window],
        wt_power_kw=scenario.wt_power_kw[None, :window],
        occupied=occupied[None],
        discount=discounts[None, :window],
    )
    sim = FleetSimulation(FleetParams.from_hub_configs([scenario.hub_config]), inputs)
    oracle = optimal_schedule(sim, 0)

    print("\navg daily reward (Eq. 12):")
    print(f"  dp-oracle bound : {oracle.total_reward / 30:8.1f}")
    print(f"  ppo (ECT-DRL)   : {ppo_daily:8.1f}")
    print(f"  rule-based      : {rule_daily:8.1f}")
    print(f"  idle            : {idle_daily:8.1f}")


if __name__ == "__main__":
    main()
