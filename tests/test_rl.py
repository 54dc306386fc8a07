"""Tests for the ECT-DRL stack: env, buffer, PPO, schedulers, oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, EnvError, ModelError
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.hub.scenario import resolve_occupancy
from repro.rl import (
    ActorCritic,
    Box,
    Discrete,
    EctHubEnv,
    EnvConfig,
    GreedyRenewableScheduler,
    IdleScheduler,
    PpoAgent,
    PpoConfig,
    RandomScheduler,
    RolloutBuffer,
    RuleBasedScheduler,
    evaluate_agent,
    evaluate_scheduler,
    optimal_schedule,
    train_ppo,
)
from repro.rng import RngFactory


@pytest.fixture(scope="module")
def env_setup():
    factory = RngFactory(seed=21)
    config = ScenarioConfig(n_hours=24 * 40)
    scenario = build_fleet_scenarios(config, factory)[0]
    behavior = fleet_behavior_model(config, factory)
    return factory, scenario, behavior


@pytest.fixture()
def env(env_setup):
    factory, scenario, behavior = env_setup
    return EctHubEnv(
        scenario,
        behavior,
        np.zeros(scenario.n_hours),
        config=EnvConfig(episode_days=5),
        rng=factory.stream("env-test"),
    )


class TestSpaces:
    def test_discrete(self, rng):
        space = Discrete(3)
        assert space.contains(2) and not space.contains(3)
        assert space.sample(rng) in (0, 1, 2)

    def test_discrete_invalid(self):
        with pytest.raises(EnvError):
            Discrete(0)

    def test_box(self):
        box = Box(low=-1.0, high=1.0, shape=(3,))
        assert box.contains(np.zeros(3))
        assert not box.contains(np.full(3, 2.0))

    def test_box_invalid_bounds(self):
        with pytest.raises(EnvError):
            Box(low=1.0, high=0.0, shape=(2,))


class TestEnv:
    def test_reset_returns_state(self, env):
        state = env.reset()
        assert state.shape == (env.state_dim(),)
        assert env.state_dim() == 5 * 24 + 1

    def test_step_before_reset_raises(self, env):
        with pytest.raises(EnvError):
            env.step(0)

    def test_episode_runs_to_done(self, env):
        env.reset()
        steps = 0
        done = False
        while not done:
            _, reward, done, info = env.step(0)
            assert np.isfinite(reward)
            assert "reward_raw" in info
            steps += 1
        assert steps == env.episode_length == 5 * 24

    def test_invalid_action_rejected(self, env):
        env.reset()
        with pytest.raises(EnvError):
            env.step(7)

    def test_reward_scaling(self, env):
        env.reset()
        _, scaled_reward, _, info = env.step(0)
        assert scaled_reward == pytest.approx(
            info["reward_raw"] / env.config.reward_scale
        )

    def test_soc_in_state_tracks_battery(self, env):
        state = env.reset()
        assert state[-1] == pytest.approx(env.simulation.hub.battery.soc_fraction)

    def test_schedule_length_validated(self, env_setup):
        factory, scenario, behavior = env_setup
        with pytest.raises(EnvError):
            EctHubEnv(scenario, behavior, np.zeros(10))

    def test_outage_mask_reaches_simulation(self, env_setup):
        """Regression: reset() must not silently drop the blackout mask.

        The episode inputs are rebuilt after slicing; the old field-by-field
        reconstruction discarded ``outage``, so the RL env never trained on
        blackouts even when given a mask.
        """
        factory, scenario, behavior = env_setup
        outage = np.ones(scenario.n_hours, dtype=bool)
        env = EctHubEnv(
            scenario,
            behavior,
            np.zeros(scenario.n_hours),
            config=EnvConfig(episode_days=2),
            rng=factory.stream("outage-test"),
            outage=outage,
        )
        env.reset()
        sim_outage = env.simulation.inputs.outage
        assert sim_outage is not None
        assert sim_outage.shape == (env.episode_length,)
        assert sim_outage.all()
        _, _, _, info = env.step(1)
        ledger = info["ledger"]
        assert ledger.blackout
        assert ledger.p_grid_kw == 0.0 and ledger.revenue == 0.0

    def test_outage_mask_length_validated(self, env_setup):
        factory, scenario, behavior = env_setup
        with pytest.raises(EnvError):
            EctHubEnv(
                scenario,
                behavior,
                np.zeros(scenario.n_hours),
                outage=np.ones(10, dtype=bool),
            )

    def test_windows_edge_padded_for_both_trace_lengths(self, env):
        """Regression: _window must clamp against the trace it is given.

        The SRTP window reads the episode-length trace; clamping against
        the scenario horizon only worked through numpy slice truncation.
        Both trace lengths must yield exactly ``window_h`` values with
        edge padding past the end.
        """
        env.reset()
        w = env.config.window_h
        episode_trace = env._episode_srtp
        assert len(episode_trace) == env.episode_length
        near_end = env._window(episode_trace, env.episode_length - 1)
        assert near_end.shape == (w,)
        assert np.all(near_end == episode_trace[-1])

        scenario_trace = env.scenario.rtp_kwh
        at_horizon = env._window(scenario_trace, env.scenario.n_hours - 1)
        assert at_horizon.shape == (w,)
        assert np.all(at_horizon == scenario_trace[-1])
        # Interior windows are untouched slices of the trace.
        interior = env._window(episode_trace, 0)
        assert np.array_equal(interior, episode_trace[:w])

    def test_reset_at_max_start_flushes_against_horizon(self, env_setup):
        """An episode as long as the scenario forces start == max_start == 0."""
        factory, scenario, behavior = env_setup
        env = EctHubEnv(
            scenario,
            behavior,
            np.zeros(scenario.n_hours),
            config=EnvConfig(episode_days=scenario.n_hours // 24),
            rng=factory.stream("flush-test"),
        )
        state = env.reset()
        assert env._start == 0
        assert state.shape == (env.state_dim(),)
        steps = 0
        done = False
        while not done:
            state, _, done, _ = env.step(0)
            steps += 1
        assert steps == env.episode_length == scenario.n_hours

    def test_discounts_increase_occupancy(self, env_setup):
        """Evening discounts attract Incentive cells => more occupied slots."""
        factory, scenario, behavior = env_setup
        hours = np.arange(scenario.n_hours) % 24
        evening = np.where(hours >= 18, 0.2, 0.0)
        occupancies = {}
        for name, schedule in (("none", np.zeros(scenario.n_hours)), ("evening", evening)):
            env = EctHubEnv(
                scenario, behavior, schedule,
                config=EnvConfig(episode_days=20, random_initial_soc=False),
                rng=factory.stream("occ-test"),
            )
            env.reset()
            done = False
            total = 0
            while not done:
                _, _, done, info = env.step(0)
                total += info["ledger"].p_cs_kw > 0
            occupancies[name] = total
        assert occupancies["evening"] > occupancies["none"]


class TestBuffer:
    def test_add_and_capacity(self):
        buffer = RolloutBuffer(2, 3)
        buffer.add(np.zeros(3), 0, 0.0, 0.0, 1.0, False)
        buffer.add(np.zeros(3), 1, 0.0, 0.0, 1.0, True)
        assert buffer.full
        with pytest.raises(ModelError):
            buffer.add(np.zeros(3), 0, 0.0, 0.0, 1.0, False)

    def test_gae_matches_hand_computation(self):
        buffer = RolloutBuffer(3, 1)
        rewards = [1.0, 0.0, 2.0]
        values = [0.5, 0.4, 0.3]
        for r, v in zip(rewards, values):
            buffer.add(np.zeros(1), 0, 0.0, v, r, False)
        gamma, lam = 0.9, 0.8
        buffer.compute_advantages(
            last_value=0.2, gamma=gamma, gae_lambda=lam, normalize=False
        )
        deltas = [
            rewards[0] + gamma * values[1] - values[0],
            rewards[1] + gamma * values[2] - values[1],
            rewards[2] + gamma * 0.2 - values[2],
        ]
        a2 = deltas[2]
        a1 = deltas[1] + gamma * lam * a2
        a0 = deltas[0] + gamma * lam * a1
        assert buffer.advantages[:3] == pytest.approx([a0, a1, a2])
        assert buffer.returns[:3] == pytest.approx(
            [a0 + values[0], a1 + values[1], a2 + values[2]]
        )

    def test_done_cuts_bootstrap(self):
        buffer = RolloutBuffer(2, 1)
        buffer.add(np.zeros(1), 0, 0.0, 0.0, 1.0, True)
        buffer.add(np.zeros(1), 0, 0.0, 0.0, 1.0, True)
        buffer.compute_advantages(last_value=100.0, normalize=False)
        assert buffer.advantages[0] == pytest.approx(1.0)

    def test_minibatches_require_finalize(self, rng):
        buffer = RolloutBuffer(4, 1)
        buffer.add(np.zeros(1), 0, 0.0, 0.0, 1.0, False)
        with pytest.raises(ModelError):
            list(buffer.minibatches(2, rng))

    def test_normalized_advantages(self, rng):
        buffer = RolloutBuffer(8, 1)
        for i in range(8):
            buffer.add(np.zeros(1), 0, 0.0, 0.0, float(i), i == 7)
        buffer.compute_advantages(0.0)
        adv = buffer.advantages[:8]
        assert abs(adv.mean()) < 1e-9
        assert adv.std() == pytest.approx(1.0, abs=1e-6)


class TestActorCriticAndPpo:
    def test_forward_shapes(self, rng):
        net = ActorCritic(6, 3, rng)
        logits, values = net.forward(np.zeros((4, 6)))
        assert logits.shape == (4, 3) and values.shape == (4, 1)

    def test_act_returns_valid(self, rng):
        net = ActorCritic(6, 3, rng)
        action, log_prob, value = net.act(np.zeros(6), rng)
        assert action in (0, 1, 2)
        assert log_prob <= 0.0
        assert np.isfinite(value)

    def test_ppo_learns_bandit(self, rng):
        """PPO should learn to pick the rewarded action in a trivial bandit."""
        agent = PpoAgent(2, 3, PpoConfig(learning_rate=0.01), rng)
        buffer = RolloutBuffer(64, 2)
        state = np.ones(2)
        for _ in range(30):
            for _ in range(64):
                action, log_prob, value = agent.act(state)
                reward = 1.0 if action == 2 else 0.0
                buffer.add(state, action, log_prob, value, reward, True)
            agent.update(buffer)
        counts = np.bincount(
            [agent.act(state)[0] for _ in range(100)], minlength=3
        )
        assert counts[2] > 60

    def test_update_stats_fields(self, rng):
        agent = PpoAgent(2, 3, PpoConfig(), rng)
        buffer = RolloutBuffer(8, 2)
        for i in range(8):
            action, lp, v = agent.act(np.zeros(2))
            buffer.add(np.zeros(2), action, lp, v, 1.0, i == 7)
        stats = agent.update(buffer)
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.entropy > 0
        assert len(buffer) == 0  # cleared after update

    def test_invalid_ppo_config(self):
        with pytest.raises(ModelError):
            PpoConfig(clip_epsilon=1.5)
        with pytest.raises(ModelError, match="weight_decay"):
            PpoConfig(weight_decay=-1e-4)


class TestSchedulersAndTraining:
    def test_schedulers_return_valid_actions(self, env, factory):
        env.reset()
        for scheduler in (
            IdleScheduler(),
            RandomScheduler(factory.stream("rs")),
            RuleBasedScheduler(),
            GreedyRenewableScheduler(),
        ):
            scheduler.reset()
            action = scheduler(env.simulation)
            assert action in (-1, 0, 1)

    def test_rule_based_charges_cheap_discharges_expensive(self, env):
        env.reset()
        scheduler = RuleBasedScheduler()
        scheduler.reset()
        sim = env.simulation
        prices = sim.inputs.rtp_kwh
        cheap_slot = int(np.argmin(prices))
        expensive_slot = int(np.argmax(prices))
        sim._t = cheap_slot
        assert scheduler(sim) == 1
        sim._t = expensive_slot
        assert scheduler(sim) == -1
        sim._t = 0

    def test_train_and_evaluate_smoke(self, env, factory):
        agent, history = train_ppo(env, episodes=2, rng=factory.stream("t"))
        assert len(history.episode_returns) == 2
        daily = evaluate_agent(env, agent, episodes=1)
        assert daily.shape == (1, 5)
        assert np.all(np.isfinite(daily))

    def test_evaluate_scheduler_smoke(self, env):
        daily = evaluate_scheduler(env, IdleScheduler(), episodes=1)
        assert daily.shape == (1, 5)

    def test_invalid_episode_counts(self, env, factory):
        with pytest.raises(ModelError):
            train_ppo(env, episodes=0)
        agent = PpoAgent(env.state_dim(), 3, rng=factory.stream("a"))
        with pytest.raises(ModelError):
            evaluate_agent(env, agent, episodes=0)


class TestDpOracle:
    def _inputs(self, env_setup, n=48):
        factory, scenario, behavior = env_setup
        strata = behavior.sample_strata(0, np.arange(n), factory.stream("or"))
        occupied = resolve_occupancy(strata, np.zeros(n, dtype=int))
        full_occ = np.concatenate(
            [occupied, np.zeros(scenario.n_hours - n, dtype=int)]
        )
        return scenario, scenario.inputs_with_occupancy(
            full_occ, np.zeros(scenario.n_hours)
        ).slice(0, n)

    def test_oracle_beats_every_heuristic(self, env_setup):
        scenario, inputs = self._inputs(env_setup)
        oracle = optimal_schedule(scenario.build_hub(), inputs, n_soc_levels=21)
        from repro.hub.simulation import HubSimulation

        for policy in (lambda s: 0, lambda s: 1, lambda s: -1, lambda s: [1, -1][s.t % 2]):
            sim = HubSimulation(scenario.build_hub(), inputs, initial_soc_fraction=0.5)
            book = sim.run(policy)
            assert oracle.total_reward >= book.profit - 1e-6

    def test_oracle_schedule_is_feasible(self, env_setup):
        scenario, inputs = self._inputs(env_setup)
        oracle = optimal_schedule(scenario.build_hub(), inputs, n_soc_levels=21)
        from repro.hub.simulation import HubSimulation

        sim = HubSimulation(scenario.build_hub(), inputs, initial_soc_fraction=0.5)
        book = sim.run(lambda s: int(oracle.actions[s.t]))
        # Executing the oracle schedule in the real engine lands close to
        # the oracle value (exact up to SoC-grid snapping).
        assert book.profit == pytest.approx(oracle.total_reward, rel=0.05, abs=5.0)

    def test_oracle_rejects_outages(self, env_setup):
        scenario, inputs = self._inputs(env_setup, n=24)
        bad = type(inputs)(
            load_rate=inputs.load_rate,
            rtp_kwh=inputs.rtp_kwh,
            pv_power_kw=inputs.pv_power_kw,
            wt_power_kw=inputs.wt_power_kw,
            occupied=inputs.occupied,
            discount=inputs.discount,
            outage=np.ones(24, dtype=bool),
        )
        with pytest.raises(ConfigError):
            optimal_schedule(scenario.build_hub(), bad)
