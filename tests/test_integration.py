"""End-to-end integration tests: the full pipeline at miniature scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.causal import (
    EctPriceConfig,
    EctPriceModel,
    EctPricePolicy,
    score_decision,
    train_test_split_by_day,
)
from repro.causal.policy import discount_schedule_for_hub
from repro.experiments.pricing_common import run_pricing_study
from repro.causal.dataset import time_ids_for_slots
from repro.fleet import FleetIdleScheduler, fleet_simulation_from_scenarios
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.rl import EnvConfig, FleetEnv, evaluate_fleet_agent, train_fleet_ppo
from repro.rng import RngFactory
from repro.synth.charging import ChargingBehaviorModel, ChargingConfig


class TestPricingPipeline:
    def test_pricing_study_miniature(self):
        study = run_pricing_study(seed=1, scale=0.1)
        assert len(study.policies) == 4
        names = [p.name for p in study.policies]
        assert names == ["Ours", "OR", "IPS", "DR"]
        # every policy produces a bounded decision
        for policy in study.policies:
            decision = policy.decide(
                study.test.station_ids,
                study.test.time_ids,
                discount_level=0.2,
                budget=study.budget,
            )
            assert decision.n_discounted <= study.budget
            outcome = score_decision(
                decision, study.test.stratum, method=policy.name, discount_level=0.2
            )
            assert outcome.n_discounted == decision.n_discounted

    def test_trained_model_beats_random_selection(self, factory):
        """ECT-Price's selection must beat a random same-size selection."""
        behavior = ChargingBehaviorModel(ChargingConfig(), factory)
        log = behavior.simulate_log(80)
        train, test = train_test_split_by_day(log, n_stations=12, boundary_day=40)
        model = EctPriceModel(
            12, 48, EctPriceConfig(epochs=6, batch_size=256), factory.stream("m")
        )
        model.fit(train)
        budget = int(0.195 * len(test))
        decision = EctPricePolicy(model).decide(
            test.station_ids, test.time_ids, discount_level=0.1, budget=budget
        )
        ours = score_decision(
            decision, test.stratum, method="Ours", discount_level=0.1
        )
        rng = factory.stream("rand")
        random_mask = np.zeros(len(test), dtype=bool)
        random_mask[rng.choice(len(test), size=budget, replace=False)] = True
        random_inc = (test.stratum[random_mask] == 1).sum()
        assert ours.n_incentive > 1.5 * random_inc


class TestFullLoop:
    def test_pricing_to_scheduling_loop(self):
        """Discount schedule from a trained policy drives the DRL env."""
        seed = 11
        factory = RngFactory(seed=seed)
        study = run_pricing_study(seed=seed, scale=0.1)
        config = ScenarioConfig(n_hours=24 * 40, charging=study.behavior.config)
        scenario = build_fleet_scenarios(config, factory)[0]
        time_ids = time_ids_for_slots(config.n_hours)
        schedule = discount_schedule_for_hub(
            study.policies[0],
            scenario.site.hub_id,
            time_ids,
            discount_level=0.2,
            budget_fraction=0.195,
        )
        assert schedule.shape == (config.n_hours,)
        assert set(np.unique(schedule)) <= {0.0, 0.2}

        env = FleetEnv(
            [scenario],
            study.behavior,
            schedule,
            config=EnvConfig(episode_days=5),
            rng=factory.stream("loop/env"),
        )
        agent, history = train_fleet_ppo(
            env, episodes=2, rng=factory.stream("loop/ppo")
        )
        evaluate_fleet_agent(env, agent, episodes=1)
        daily = env.simulation.book.daily_rewards()
        assert daily.shape == (1, 5)
        assert np.all(np.isfinite(daily))
        assert daily.mean() > 0  # the hub is profitable

    def test_blackout_resilience_end_to_end(self, factory):
        """With the Eq. 6 reserve, a blackout causes zero unserved BS energy."""
        config = ScenarioConfig(n_hours=24 * 3)
        scenario = build_fleet_scenarios(config, factory)[0]
        behavior = fleet_behavior_model(config, factory)
        n = scenario.n_hours
        outage = np.zeros(n, dtype=bool)
        outage[30 : 30 + config.recovery_time_h] = True
        strata = behavior.sample_strata(0, np.arange(n), factory.stream("bk"))
        from repro.hub.scenario import resolve_occupancy

        occupied = resolve_occupancy(strata, np.zeros(n, dtype=int))
        sim = fleet_simulation_from_scenarios(
            [scenario], occupied, np.zeros(n), initial_soc_fraction=0.15, outage=outage
        )
        book = sim.run(FleetIdleScheduler())
        assert book.total_unserved_kwh == pytest.approx(0.0)
        assert int(book.blackout.sum()) == config.recovery_time_h
