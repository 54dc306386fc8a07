"""Tests for the ECT-DRL stack: env, buffer, PPO, schedulers, oracle.

The env, scheduler and training tests pin the scalar copies frozen in
``tests/scalar_oracle``; the DP oracle's schedules replay through a
one-hub :class:`~repro.fleet.simulation.FleetSimulation`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, EnvError, ModelError
from repro.fleet import FleetInputs, FleetParams, FleetSimulation
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.hub.scenario import resolve_occupancy
from repro.rl import (
    ActorCritic,
    Box,
    Discrete,
    EnvConfig,
    FleetRolloutBuffer,
    PpoAgent,
    PpoConfig,
    optimal_schedule,
)
from repro.rl.dp_oracle import _nearest_level
from repro.rng import RngFactory
from scalar_oracle import (
    EctHubEnv,
    GreedyRenewableScheduler,
    IdleScheduler,
    RandomScheduler,
    RuleBasedScheduler,
    evaluate_agent,
    evaluate_scheduler,
    train_ppo,
)


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
    def test_discrete(self):
        space = Discrete(3)
        assert space.contains(2) and not space.contains(3)

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


def add_row(buffer, state, action, log_prob, value, reward, done):
    """One transition as the one-environment ``(1, ·)`` row ``train_ppo`` adds."""
    buffer.add(
        np.reshape(state, (1, -1)),
        np.array([action]),
        np.array([log_prob]),
        np.array([value]),
        np.array([reward]),
        done,
    )


class TestBuffer:
    def test_add_and_capacity(self):
        buffer = FleetRolloutBuffer(2, 1, 3)
        add_row(buffer, np.zeros(3), 0, 0.0, 0.0, 1.0, False)
        add_row(buffer, np.zeros(3), 1, 0.0, 0.0, 1.0, True)
        assert buffer.full
        with pytest.raises(ModelError):
            add_row(buffer, np.zeros(3), 0, 0.0, 0.0, 1.0, False)

    def test_gae_matches_hand_computation(self):
        buffer = FleetRolloutBuffer(3, 1, 1)
        rewards = [1.0, 0.0, 2.0]
        values = [0.5, 0.4, 0.3]
        for r, v in zip(rewards, values):
            add_row(buffer, np.zeros(1), 0, 0.0, v, r, False)
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
        buffer = FleetRolloutBuffer(2, 1, 1)
        add_row(buffer, np.zeros(1), 0, 0.0, 0.0, 1.0, True)
        add_row(buffer, np.zeros(1), 0, 0.0, 0.0, 1.0, True)
        buffer.compute_advantages(last_value=100.0, normalize=False)
        assert buffer.advantages[0] == pytest.approx(1.0)

    def test_normalized_advantages(self, rng):
        buffer = FleetRolloutBuffer(8, 1, 1)
        for i in range(8):
            add_row(buffer, np.zeros(1), 0, 0.0, 0.0, float(i), i == 7)
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
        buffer = FleetRolloutBuffer(64, 1, 2)
        state = np.ones(2)
        for _ in range(30):
            for _ in range(64):
                action, log_prob, value = agent.act(state)
                reward = 1.0 if action == 2 else 0.0
                add_row(buffer, state, action, log_prob, value, reward, True)
            agent.update(buffer)
        counts = np.bincount(
            [agent.act(state)[0] for _ in range(100)], minlength=3
        )
        assert counts[2] > 60

    def test_update_stats_fields(self, rng):
        agent = PpoAgent(2, 3, PpoConfig(), rng)
        buffer = FleetRolloutBuffer(8, 1, 2)
        for i in range(8):
            action, lp, v = agent.act(np.zeros(2))
            add_row(buffer, np.zeros(2), action, lp, v, 1.0, i == 7)
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


def replay(simulation: FleetSimulation, plan: np.ndarray):
    """Book a fixed ``(1, horizon)`` S_BP plan from slot 0."""
    simulation.reset()
    return simulation.run(lambda view, start, stop: plan[:, start:stop])


class TestDpOracle:
    def _simulation(self, env_setup, n=48, outage=None):
        """One hub's first ``n`` slots as a one-hub fleet engine."""
        factory, scenario, behavior = env_setup
        strata = behavior.sample_strata(0, np.arange(n), factory.stream("or"))
        occupied = resolve_occupancy(strata, np.zeros(n, dtype=int))
        inputs = FleetInputs(
            load_rate=scenario.load_rate[None, :n],
            rtp_kwh=scenario.rtp_kwh[None, :n],
            pv_power_kw=scenario.pv_power_kw[None, :n],
            wt_power_kw=scenario.wt_power_kw[None, :n],
            occupied=occupied[None],
            discount=np.zeros((1, n)),
            outage=outage,
        )
        return FleetSimulation(
            FleetParams.from_hub_configs([scenario.hub_config]), inputs
        )

    def test_oracle_beats_every_heuristic(self, env_setup):
        sim = self._simulation(env_setup)
        oracle = optimal_schedule(sim, 0, n_soc_levels=21)
        alternating = np.where(np.arange(sim.horizon) % 2 == 0, 1, -1)
        for plan in (0, 1, -1, alternating):
            book = replay(sim, np.broadcast_to(plan, (1, sim.horizon)))
            assert oracle.total_reward >= book.profit - 1e-6

    def test_oracle_schedule_is_feasible(self, env_setup):
        sim = self._simulation(env_setup)
        oracle = optimal_schedule(sim, 0, n_soc_levels=21)
        book = replay(sim, oracle.actions[None])
        # Executing the oracle schedule in the real engine lands close to
        # the oracle value (exact up to SoC-grid snapping).
        assert book.profit == pytest.approx(oracle.total_reward, rel=0.05, abs=5.0)

    @pytest.mark.parametrize(
        "soc_min, soc_max, n_levels",
        [(20.0, 190.0, 41), (0.1, 0.95, 21), (37.5, 38.125, 2), (12.3, 456.7, 101)],
    )
    def test_nearest_level_is_argmin(self, soc_min, soc_max, n_levels):
        grid = np.linspace(soc_min, soc_max, n_levels)
        step = (soc_max - soc_min) / (n_levels - 1)
        levels = grid.tolist()
        rng = np.random.default_rng(n_levels)
        span = soc_max - soc_min
        values = [
            *rng.uniform(soc_min, soc_max, 2000),
            *levels,
            *((grid[:-1] + grid[1:]) / 2),
            *np.nextafter(grid, np.inf),
            *np.nextafter(grid, -np.inf),
            soc_min - 1e-12,
            soc_min - span,
            soc_max + 1e-12,
            soc_max + span,
            *rng.uniform(soc_min - span, soc_max + span, 500),
        ]
        for value in values:
            value = float(value)
            expected = int(np.argmin(np.abs(grid - value)))
            assert _nearest_level(levels, step, value) == expected, value

    def test_nearest_level_breaks_ties_low_like_argmin(self):
        # Levels 0, 1, 2, 3: 0.5, 1.5 and 2.5 are exact midpoints.
        levels = np.linspace(0.0, 3.0, 4).tolist()
        for value, expected in ((0.5, 0), (1.5, 1), (2.5, 2)):
            assert int(np.argmin(np.abs(np.array(levels) - value))) == expected
            assert _nearest_level(levels, 1.0, value) == expected

    def test_oracle_rejects_outages(self, env_setup):
        sim = self._simulation(env_setup, n=24, outage=np.ones((1, 24), dtype=bool))
        with pytest.raises(ConfigError):
            optimal_schedule(sim, 0)
