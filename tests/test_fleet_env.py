"""Tests for the batched fleet RL stack: FleetEnv, fleet buffer, fleet PPO.

The anchor is the equivalence chain: a ``FleetEnv`` at ``n_hubs=1`` must
reproduce episodes of the frozen scalar ``EctHubEnv`` (observations
bit-for-bit, rewards within the engines' atol-1e-9 bound), per-hub fleet
rewards must match the ``FleetCostBook`` slot for slot, and the paper
artifacts' fleet path (one agent per (hub, method), stacked evaluation,
baselines through ``run_jobs``) must match the scalar loops it replaced. On top sit episode-sampling edges
(max-start flush, seeded determinism, invalid actions), the feeder-aware
observation block, per-hub GAE, and the train-fleet schedule.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.causal import EveningHeuristicPolicy
from repro.causal.dataset import time_ids_for_slots
from repro.causal.policy import discount_schedule_for_hub
from repro.errors import EnvError, ModelError
from repro.experiments import scheduling_common
from repro.experiments.pricing_common import BUDGET_FRACTION
from repro.fleet import (
    FleetGreedyRenewableScheduler,
    FleetIdleScheduler,
    FleetRandomScheduler,
    FleetRuleBasedScheduler,
)
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.hub.scenario import fleet_traces
from repro.rng import RngFactory
from repro.rl import (
    FEEDER_OBS_CLIP,
    EnvConfig,
    FleetEnv,
    FleetRolloutBuffer,
    PpoAgent,
    PpoConfig,
    evaluate_fleet_agent,
    train_fleet_ppo,
)
from repro.spec import (
    FleetSpec,
    GridSpec,
    RlSpec,
    RunSpec,
    ScenarioSpec,
    get_preset,
    spec_from_train_fleet_flags,
)
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

N_HOURS = 24 * 12
EPISODE_DAYS = 3


@pytest.fixture(scope="module")
def fleet_setup():
    factory = RngFactory(seed=11)
    config = ScenarioConfig(n_hours=N_HOURS)
    scenarios = build_fleet_scenarios(config, factory, n_hubs=3)
    behavior = fleet_behavior_model(config, factory)
    return scenarios, behavior


# --------------------------------------------------------------------- #
# Frozen oracle: the per-episode evaluation loop and its per-slot         #
# observation assembly, as they ran before episodes were stacked          #
# --------------------------------------------------------------------- #


def oracle_windows(traces: np.ndarray, t: int, w: int) -> np.ndarray:
    """Next ``w`` columns of a trace block, edge-padded."""
    stop = min(t + w, traces.shape[1])
    values = traces[:, t:stop]
    if values.shape[1] < w:
        pad = np.repeat(values[:, -1:], w - values.shape[1], axis=1)
        values = np.concatenate([values, pad], axis=1)
    return values


def oracle_blocks(env: FleetEnv) -> list[np.ndarray]:
    """The RTP, irradiance, wind and traffic observation blocks."""
    traces = fleet_traces(env.scenarios)
    return [
        traces.rtp_kwh / 0.1,
        traces.irradiance_w_m2 / 1000.0,
        traces.wind_speed_m_s / 25.0,
        traces.load_rate,
    ]


def oracle_observe(env: FleetEnv, blocks: list[np.ndarray]) -> np.ndarray:
    """The Eq. 24 state of a one-episode env, assembled window by window."""
    sim = env.simulation
    (start,) = env._starts
    t_abs = start + sim.t
    w = env.config.window_h
    obs = np.empty((env.n_hubs, env.state_dim()))
    for k, block in enumerate(blocks):
        obs[:, k * w : (k + 1) * w] = oracle_windows(block, t_abs, w)
    obs[:, 4 * w : 5 * w] = oracle_windows(sim.planes.srtp_kwh / 0.5, sim.t, w)
    obs[:, 5 * w] = sim.soc_fraction
    if env.feeder_aware:
        obs[:, 5 * w + 1] = np.minimum(
            sim.available_import_kw() / env.params.charge_rate_kw, FEEDER_OBS_CLIP
        )
    return obs


def oracle_evaluate(env, agent, *, episodes, greedy, record=None):
    """Raw returns ``(episodes, n_hubs)``, one episode after another.

    Every state is the oracle's assembly, checked against the env's own.
    ``record`` (a list) collects one ``(states, actions, rewards,
    columns)`` list per episode.
    """
    blocks = oracle_blocks(env)
    returns = np.zeros((episodes, env.n_hubs))
    for e in range(episodes):
        got = env.reset()
        trajectory = []
        done = False
        while not done:
            states = oracle_observe(env, blocks)
            assert got.tobytes() == states.tobytes()
            actions = (
                agent.greedy_actions(states)
                if greedy
                else agent.act_batch(states)[0]
            )
            got, _, done, info = env.step(actions)
            returns[e] += info["reward_raw"]
            trajectory.append((states, actions, info["reward_raw"], info["columns"]))
        if record is not None:
            record.append(trajectory)
    return returns


def make_fleet_env(
    scenarios, behavior, *, seed=5, n_hubs=None, discount=None, **kwargs
):
    subset = scenarios if n_hubs is None else scenarios[:n_hubs]
    kwargs.setdefault("config", EnvConfig(episode_days=EPISODE_DAYS))
    return FleetEnv(
        subset,
        behavior,
        np.zeros(N_HOURS) if discount is None else discount,
        rng=RngFactory(seed=seed).stream("env"),
        **kwargs,
    )


class TestScalarEquivalence:
    """FleetEnv(n_hubs=1) episodes == EctHubEnv episodes."""

    def _pair(self, fleet_setup, *, outage=None, seed=5):
        scenarios, behavior = fleet_setup
        scalar = EctHubEnv(
            scenarios[0],
            behavior,
            np.zeros(N_HOURS),
            config=EnvConfig(episode_days=EPISODE_DAYS),
            rng=RngFactory(seed=seed).stream("env"),
            outage=outage,
        )
        fleet = make_fleet_env(
            scenarios, behavior, seed=seed, n_hubs=1, outage=outage
        )
        return scalar, fleet

    def test_episode_rewards_and_observations_match(self, fleet_setup):
        scalar, fleet = self._pair(fleet_setup)
        s1, sN = scalar.reset(), fleet.reset()
        assert fleet._starts == (scalar._start,)
        assert np.array_equal(s1, sN[0])
        action_rng = np.random.default_rng(2)
        done = False
        while not done:
            action = int(action_rng.integers(0, 3))
            s1, r1, done, _ = scalar.step(action)
            sN, rN, fleet_done, _ = fleet.step(np.array([action]))
            assert done == fleet_done
            assert rN[0] == pytest.approx(r1, abs=1e-9)
            if not done:
                assert np.allclose(s1, sN[0], atol=1e-9)

    def test_equivalence_holds_under_blackouts(self, fleet_setup):
        outage = np.zeros(N_HOURS, dtype=bool)
        outage[::7] = True  # outages scattered through every episode window
        scalar, fleet = self._pair(fleet_setup, outage=outage)
        scalar.reset()
        fleet.reset()
        total_scalar, total_fleet = 0.0, 0.0
        done = False
        while not done:
            _, r1, done, i1 = scalar.step(1)
            _, rN, _, iN = fleet.step(np.array([1]))
            total_scalar += i1["reward_raw"]
            total_fleet += float(iN["reward_raw"][0])
        assert fleet.simulation.book.blackout[:, : fleet.episode_length].any()
        assert total_fleet == pytest.approx(total_scalar, abs=1e-9)

    def test_rewards_match_cost_book_slot_for_slot(self, fleet_setup):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior, voll_per_kwh=2.0)
        env.reset()
        rng = np.random.default_rng(0)
        collected = []
        done = False
        while not done:
            _, _, done, info = env.step(rng.integers(0, 3, size=env.n_hubs))
            collected.append(info["reward_raw"])
        rewards = np.stack(collected, axis=1)
        book = env.simulation.book
        n = len(book)
        expected = (
            book.revenue[:, :n]
            - book.grid_cost[:, :n]
            - book.bp_cost[:, :n]
            - 2.0 * book.unserved_kwh[:, :n]
        )
        assert rewards.shape == expected.shape
        assert np.array_equal(rewards, expected)
        # And the per-hub episode totals equal the book's daily rollup.
        assert np.allclose(
            rewards.sum(axis=1), book.daily_rewards().sum(axis=1), atol=1e-9
        )


class TestExperimentPath:
    """The paper artifacts' fleet path == the frozen scalar loops."""

    def test_one_pair_matches_scalar_loop(self):
        """One (hub, pricing method) pair of the Fig. 13 / Table III study:
        ``scheduling_common._one_pair`` (one-hub FleetEnv, fleet PPO,
        stacked evaluation) against EctHubEnv + train_ppo +
        evaluate_agent on the same streams."""
        factory = RngFactory(seed=3)
        config = ScenarioConfig(n_hours=24 * 32)
        scenario = build_fleet_scenarios(config, factory, n_hubs=2)[1]
        behavior = fleet_behavior_model(config, factory)
        policy = EveningHeuristicPolicy()
        time_ids = time_ids_for_slots(config.n_hours)
        result = scheduling_common._one_pair(
            scenario,
            SimpleNamespace(behavior=behavior),
            policy,
            time_ids,
            factory,
            train_episodes=2,
            test_episodes=2,
        )

        schedule = discount_schedule_for_hub(
            policy,
            scenario.site.hub_id,
            time_ids,
            discount_level=scheduling_common.DISCOUNT_LEVEL,
            budget_fraction=BUDGET_FRACTION,
        )
        assert (schedule > 0).any()
        stream = f"drl/{scenario.site.hub_id}/{policy.name}"
        env = EctHubEnv(
            scenario,
            behavior,
            schedule,
            config=EnvConfig(),
            rng=factory.stream(f"{stream}/env"),
        )
        agent, _ = train_ppo(
            env, episodes=2, config=PpoConfig(), rng=factory.stream(f"{stream}/ppo")
        )
        expected = evaluate_agent(env, agent, episodes=2)
        assert result.daily_rewards.shape == expected.shape == (2, 30)
        np.testing.assert_allclose(
            result.daily_rewards, expected, rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize(
        "scalar, fleet",
        [
            (RuleBasedScheduler, FleetRuleBasedScheduler),
            (GreedyRenewableScheduler, FleetGreedyRenewableScheduler),
            (IdleScheduler, FleetIdleScheduler),
            ("random", "random"),
        ],
        ids=["rule-based", "greedy-renewable", "idle", "random"],
    )
    def test_baseline_matches_evaluate_scheduler(self, fleet_setup, scalar, fleet):
        """A heuristic over stacked episodes (one ``run_jobs`` call) books
        what ``evaluate_scheduler`` books episode after episode; random
        shares one stream over the episode rows."""
        scenarios, behavior = fleet_setup
        episodes = 3
        discount = np.where(np.arange(N_HOURS) % 24 >= 18, 0.2, 0.0)
        outage = np.zeros(N_HOURS, dtype=bool)
        outage[5::29] = True
        scalar_env = EctHubEnv(
            scenarios[0],
            behavior,
            discount,
            config=EnvConfig(episode_days=EPISODE_DAYS),
            rng=RngFactory(seed=5).stream("env"),
            outage=outage,
        )
        fleet_env = make_fleet_env(
            scenarios, behavior, n_hubs=1, discount=discount, outage=outage
        )
        if scalar == "random":
            scalar = RandomScheduler(RngFactory(seed=9).stream("rand"))
            fleet = FleetRandomScheduler([RngFactory(seed=9).stream("rand")] * episodes)
        else:
            scalar, fleet = scalar(), fleet()
        expected = evaluate_scheduler(scalar_env, scalar, episodes=episodes)

        fleet_env.reset(episodes)
        (book,) = fleet_env.simulation.run_jobs([fleet])
        assert book.blackout.any()
        np.testing.assert_allclose(book.daily_rewards(), expected, rtol=0, atol=1e-9)


class TestEpisodeSampling:
    def test_seeded_determinism(self, fleet_setup):
        """Same seed => byte-identical episode traces, obs, and rewards."""
        scenarios, behavior = fleet_setup
        envs = [make_fleet_env(scenarios, behavior, seed=9) for _ in range(2)]
        states = [env.reset() for env in envs]
        assert np.array_equal(states[0], states[1])
        inputs = [env.simulation.inputs for env in envs]
        for name in ("load_rate", "rtp_kwh", "occupied", "discount"):
            assert np.array_equal(
                getattr(inputs[0], name), getattr(inputs[1], name)
            )
        action_rng = np.random.default_rng(4)
        done = False
        while not done:
            actions = action_rng.integers(0, 3, size=envs[0].n_hubs)
            s0, r0, done, _ = envs[0].step(actions)
            s1, r1, _, _ = envs[1].step(actions.copy())
            assert np.array_equal(r0, r1)
            assert np.array_equal(s0, s1)

    def test_different_seeds_differ(self, fleet_setup):
        scenarios, behavior = fleet_setup
        starts = set()
        for seed in range(8):
            env = make_fleet_env(scenarios, behavior, seed=seed)
            env.reset()
            starts.update(env._starts)
        assert len(starts) > 1

    def test_reset_at_max_start_flushes_against_horizon(self, fleet_setup):
        """Episode == scenario horizon forces start == max_start == 0."""
        scenarios, behavior = fleet_setup
        env = make_fleet_env(
            scenarios,
            behavior,
            config=EnvConfig(episode_days=N_HOURS // 24),
        )
        state = env.reset()
        assert env._starts == (0,)
        assert state.shape == (env.n_hubs, env.state_dim())
        blocks = oracle_blocks(env)
        steps = 0
        done = False
        while not done:
            last = state
            assert np.array_equal(state, oracle_observe(env, blocks))
            state, _, done, _ = env.step(np.zeros(env.n_hubs, dtype=int))
            steps += 1
        assert steps == env.episode_length == N_HOURS
        # The last observed RTP window was edge-padded to exactly
        # window_h: every entry repeats the horizon's last slot.
        w = env.config.window_h
        assert np.all(last[:, :w] == blocks[0][:, -1:])

    def test_episode_longer_than_scenario_rejected(self, fleet_setup):
        scenarios, behavior = fleet_setup
        with pytest.raises(EnvError):
            make_fleet_env(
                scenarios,
                behavior,
                config=EnvConfig(episode_days=N_HOURS // 24 + 1),
            )

    def test_step_before_reset_raises(self, fleet_setup):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior)
        with pytest.raises(EnvError):
            env.step(np.zeros(env.n_hubs, dtype=int))


class TestActionValidation:
    @pytest.fixture()
    def env(self, fleet_setup):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior)
        env.reset()
        return env

    def test_wrong_shape_rejected(self, env):
        with pytest.raises(EnvError):
            env.step(np.zeros(env.n_hubs + 1, dtype=int))
        with pytest.raises(EnvError):
            env.step(np.zeros((env.n_hubs, 1), dtype=int))

    def test_out_of_range_rejected(self, env):
        bad = np.zeros(env.n_hubs, dtype=int)
        bad[0] = 3
        with pytest.raises(EnvError):
            env.step(bad)
        bad[0] = -1
        with pytest.raises(EnvError):
            env.step(bad)

    def test_float_actions_rejected(self, env):
        with pytest.raises(EnvError):
            env.step(np.zeros(env.n_hubs))

    def test_bool_actions_rejected(self, env):
        # A bool vector would mask-index the S_BP lookup, not map codes.
        with pytest.raises(EnvError):
            env.step(np.ones(env.n_hubs, dtype=bool))


class TestFeederAwareObservations:
    def _coupled_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="rl-coupled",
            fleet=FleetSpec(n_hubs=4),
            grid=GridSpec(n_feeders=2, feeder_capacity_kw=150.0),
            run=RunSpec(days=6, seed=3),
            rl=RlSpec(episode_days=3),
        )

    def test_uncoupled_fleet_has_no_feeder_feature(self, fleet_setup):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior)
        assert not env.feeder_aware
        assert env.state_dim() == 5 * env.config.window_h + 1

    def test_coupled_spec_appends_normalized_headroom(self):
        compiled, env = api.build_fleet_env(self._coupled_spec())
        assert env.feeder_aware
        assert env.state_dim() == 5 * env.config.window_h + 2
        state = env.reset()
        headroom = state[:, -1]
        assert np.all(np.isfinite(headroom))
        assert np.all(headroom <= FEEDER_OBS_CLIP)
        assert np.all(headroom >= 0.0)
        # The feature tracks the engine's congestion signal exactly.
        sim = env.simulation
        expected = np.minimum(
            sim.available_import_kw() / env.params.charge_rate_kw,
            FEEDER_OBS_CLIP,
        )
        assert np.array_equal(headroom, expected)

    def test_feeder_aware_off_by_spec(self):
        spec = self._coupled_spec().with_overrides({"rl.feeder_aware": False})
        _, env = api.build_fleet_env(spec)
        assert not env.feeder_aware
        assert env.state_dim() == 5 * env.config.window_h + 1

    def test_feeder_aware_without_feeders_rejected(self, fleet_setup):
        scenarios, behavior = fleet_setup
        with pytest.raises(EnvError):
            make_fleet_env(scenarios, behavior, feeder_aware=True)

    def test_episode_slices_per_slot_feeder_capacity(self):
        spec = self._coupled_spec().with_overrides(
            {"grid.capacity_profile": [1.0] * 18 + [0.5] * 6}
        )
        _, env = api.build_fleet_env(spec)
        env.reset()
        capacity = env.simulation.feeders.import_capacity_kw
        assert capacity.shape == (2, env.episode_length)


class TestFleetRolloutBuffer:
    def test_per_hub_gae_matches_scalar_buffer(self, rng):
        n_steps, n_envs = 6, 3
        fleet = FleetRolloutBuffer(n_steps, n_envs, 2)
        scalars = [FleetRolloutBuffer(n_steps, 1, 2) for _ in range(n_envs)]
        data_rng = np.random.default_rng(0)
        for t in range(n_steps):
            rewards = data_rng.normal(size=n_envs)
            values = data_rng.normal(size=n_envs)
            dones = np.zeros(n_envs, dtype=bool)
            if t == n_steps - 1:
                dones[:] = True
            fleet.add(np.zeros((n_envs, 2)), np.zeros(n_envs, dtype=int),
                      np.zeros(n_envs), values, rewards, dones)
            for i, buf in enumerate(scalars):
                buf.add(np.zeros((1, 2)), np.zeros(1, dtype=int), np.zeros(1),
                        values[i : i + 1], rewards[i : i + 1], dones[i])
        fleet.compute_advantages(0.0, gamma=0.9, gae_lambda=0.8, normalize=False)
        for i, buf in enumerate(scalars):
            buf.compute_advantages(0.0, gamma=0.9, gae_lambda=0.8, normalize=False)
            assert fleet._advantages[:, i] == pytest.approx(
                buf.advantages[:n_steps]
            )
            assert fleet._returns[:, i] == pytest.approx(buf.returns[:n_steps])

    def test_per_hub_bootstrap_values(self):
        fleet = FleetRolloutBuffer(1, 2, 1)
        fleet.add(np.zeros((2, 1)), np.zeros(2, dtype=int), np.zeros(2),
                  np.zeros(2), np.array([1.0, 1.0]), np.array([False, True]))
        fleet.compute_advantages(
            np.array([10.0, 10.0]), gamma=0.5, gae_lambda=1.0, normalize=False
        )
        # Hub 0 bootstraps its last value; hub 1 terminated.
        assert fleet._advantages[0] == pytest.approx([6.0, 1.0])

    def test_flat_views_are_time_major(self):
        fleet = FleetRolloutBuffer(2, 2, 1)
        for t in range(2):
            fleet.add(
                np.full((2, 1), t), np.array([t, t]), np.zeros(2),
                np.zeros(2), np.array([10.0 * t, 10.0 * t + 1]),
                t == 1,
            )
        assert len(fleet) == 4
        fleet.compute_advantages(0.0, normalize=False)
        assert fleet.states[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert fleet.actions.tolist() == [0, 0, 1, 1]

    def test_add_rejects_malformed_batches(self):
        fleet = FleetRolloutBuffer(2, 2, 3)
        good = dict(
            states=np.zeros((2, 3)), actions=np.zeros(2, dtype=int),
            log_probs=np.zeros(2), values=np.zeros(2), rewards=np.zeros(2),
        )
        with pytest.raises(ModelError):  # missing hub axis
            fleet.add(**{**good, "states": np.zeros(3)}, dones=False)
        with pytest.raises(ModelError):  # scalar column would broadcast
            fleet.add(**{**good, "rewards": 0.0}, dones=False)
        with pytest.raises(ModelError):  # wrong hub count
            fleet.add(**{**good, "actions": np.zeros(3, dtype=int)}, dones=False)
        with pytest.raises(ModelError):  # mis-shaped dones
            fleet.add(**good, dones=np.zeros(3, dtype=bool))
        fleet.add(**good, dones=False)
        fleet.add(**good, dones=np.array([True, False]))
        assert len(fleet) == 4

    def test_capacity_and_validation(self, rng):
        fleet = FleetRolloutBuffer(1, 2, 1)
        with pytest.raises(ModelError):
            fleet.compute_advantages(0.0)
        fleet.add(np.zeros((2, 1)), np.zeros(2, dtype=int), np.zeros(2),
                  np.zeros(2), np.zeros(2), True)
        assert fleet.full
        with pytest.raises(ModelError):
            fleet.add(np.zeros((2, 1)), np.zeros(2, dtype=int), np.zeros(2),
                      np.zeros(2), np.zeros(2), True)
        fleet.compute_advantages(0.0)
        assert len(fleet.advantages) == len(fleet.returns) == 2
        fleet.clear()
        assert len(fleet) == 0


class TestBatchedActing:
    def test_act_batch_shapes_and_ranges(self, factory):
        agent = PpoAgent(4, 3, PpoConfig(), factory.stream("a"))
        states = np.zeros((5, 4))
        actions, log_probs, values = agent.act_batch(states)
        assert actions.shape == log_probs.shape == values.shape == (5,)
        assert set(actions.tolist()) <= {0, 1, 2}
        assert np.all(log_probs <= 0.0)
        greedy = agent.greedy_actions(states)
        assert greedy.shape == (5,)
        # Identical rows => identical greedy actions.
        assert len(set(greedy.tolist())) == 1


class TestFleetTraining:
    def test_train_and_evaluate_smoke(self, fleet_setup, factory):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior)
        agent, history = train_fleet_ppo(
            env, episodes=2, rng=factory.stream("t")
        )
        assert len(history.episode_returns) == 2
        assert history.episode_returns[0].shape == (env.n_hubs,)
        assert len(history.mean_episode_returns) == 2
        returns = evaluate_fleet_agent(env, agent, episodes=2)
        assert returns.shape == (2, env.n_hubs)
        assert np.all(np.isfinite(returns))

    def test_invalid_episode_counts(self, fleet_setup, factory):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior)
        with pytest.raises(ModelError):
            train_fleet_ppo(env, episodes=0)
        agent = PpoAgent(env.state_dim(), 3, rng=factory.stream("a"))
        with pytest.raises(ModelError):
            evaluate_fleet_agent(env, agent, episodes=0)


def congested_spec() -> ScenarioSpec:
    """Coupled per-slot feeder capacity that binds, feeder-aware
    observations and 20%/h blackouts, on a fleet small enough to train."""
    return get_preset("congested-city").with_overrides(
        {
            "fleet.n_hubs": 8,
            "grid.feeder_capacity_kw": 120.0,
            "blackout.outage_probability_per_hour": 0.2,
            "run.days": 5,
            "rl.episode_days": 2,
        }
    )


def stream_states(agent, env) -> tuple:
    return (agent._rng.bit_generator.state, env._rng.bit_generator.state)


class TestStackedEvaluation:
    """Stacked evaluation episodes == the frozen one-at-a-time loop."""

    @pytest.fixture(scope="class")
    def trained(self):
        _, env = api.build_fleet_env(congested_spec())
        assert env.feeder_aware
        assert env.feeders.import_capacity_kw.ndim == 2
        env.reseed(RngFactory(seed=1).stream("train"))
        agent, _ = train_fleet_ppo(
            env,
            episodes=2,
            config=PpoConfig(batch_size=32, update_epochs=2),
            rng=RngFactory(seed=1).stream("agent"),
        )
        return env, agent

    def _paired(self, env, agent, *, episodes, greedy, record=None):
        """(stacked returns, streams after) and the oracle's, from one
        agent/env stream state."""
        start = agent._rng.bit_generator.state
        env.reseed(RngFactory(seed=4).stream("eval"))
        stacked = evaluate_fleet_agent(env, agent, episodes=episodes, greedy=greedy)
        stacked_streams = stream_states(agent, env)
        agent._rng.bit_generator.state = start
        env.reseed(RngFactory(seed=4).stream("eval"))
        looped = oracle_evaluate(
            env, agent, episodes=episodes, greedy=greedy, record=record
        )
        return (stacked, stacked_streams), (looped, stream_states(agent, env))

    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "stochastic"])
    @pytest.mark.parametrize("episodes", [1, 3, 5])
    def test_returns_and_streams_match_the_episode_loop(
        self, trained, episodes, greedy
    ):
        env, agent = trained
        record = []
        (stacked, streams), (looped, oracle_streams) = self._paired(
            env, agent, episodes=episodes, greedy=greedy, record=record
        )
        assert stacked.shape == (episodes, env.n_hubs)
        assert stacked.tobytes() == looped.tobytes()
        assert streams == oracle_streams
        # The episodes really exercise the coupled and blackout branches.
        columns = [step[3] for trajectory in record for step in trajectory]
        assert any(c["import_shortfall_kw"].any() for c in columns)
        assert any(c["blackout"].any() for c in columns)

    def test_stacked_states_match_the_loop_at_every_slot(self, trained):
        env, agent = trained
        episodes = 3
        record = []
        agent_start = agent._rng.bit_generator.state
        env.reseed(RngFactory(seed=6).stream("eval"))
        oracle_evaluate(env, agent, episodes=episodes, greedy=False, record=record)
        agent._rng.bit_generator.state = agent_start
        assert_stack_replays(env, record, RngFactory(seed=6).stream("eval"))

    def test_episode_at_max_start_matches_the_loop(self, fleet_setup):
        """Episode == horizon: every episode starts at max_start (0) and
        its windows pad against the scenario end. A discount ramp makes
        every SRTP window distinct, padding included."""
        scenarios, behavior = fleet_setup
        env = make_fleet_env(
            scenarios,
            behavior,
            discount=np.linspace(0.0, 0.5, N_HOURS, endpoint=False),
            config=EnvConfig(episode_days=N_HOURS // 24),
        )
        agent = PpoAgent(env.state_dim(), 3, rng=RngFactory(seed=2).stream("a"))
        record = []
        env.reseed(RngFactory(seed=3).stream("eval"))
        oracle_evaluate(env, agent, episodes=2, greedy=False, record=record)
        env.reset(2)
        assert env._starts == (0, 0)
        assert_stack_replays(env, record, RngFactory(seed=3).stream("eval"))

    def test_invalid_stack_rejected(self, fleet_setup):
        scenarios, behavior = fleet_setup
        env = make_fleet_env(scenarios, behavior)
        with pytest.raises(EnvError):
            env.reset(0)
        env.reset(2)
        with pytest.raises(EnvError):
            env.step(np.zeros(env.n_hubs, dtype=int))


def assert_stack_replays(env, record, rng):
    """Replay the oracle's recorded actions through one stacked reset:
    every slot's states and rewards equal the oracle's, episode by
    episode."""
    episodes, n = len(record), env.n_hubs
    env.reseed(rng)
    states = env.reset(episodes)
    for t in range(env.episode_length):
        blocks = states.reshape(episodes, n, -1)
        for e, trajectory in enumerate(record):
            assert blocks[e].tobytes() == trajectory[t][0].tobytes(), (e, t)
        actions = np.concatenate([trajectory[t][1] for trajectory in record])
        states, _, done, info = env.step(actions)
        rewards = info["reward_raw"].reshape(episodes, n)
        for e, trajectory in enumerate(record):
            assert rewards[e].tobytes() == trajectory[t][2].tobytes(), (e, t)
    assert done


class TestTrainFleetExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        # The seeded smoke run of the acceptance criterion: scale-1
        # defaults, seed 0 — fully deterministic end to end.
        return api.train_fleet(spec_from_train_fleet_flags())

    def test_smoke_run_improves_over_untrained_policy(self, result):
        assert result.data["improvement"] > 0.0
        assert (
            result.data["trained_mean_reward"]
            > result.data["untrained_mean_reward"]
        )

    def test_report_shape(self, result):
        data = result.data
        assert data["n_hubs"] == 6
        assert data["train_episodes"] == 40
        assert len(data["training_curve"]) == 40
        assert data["state_dim"] == 121 and not data["feeder_aware"]
        assert data["spec"]["rl"]["gamma"] == 0.95
        assert "train-fleet" in result.rendered()

    def test_spec_round_trips_through_rl_section(self):
        spec = spec_from_train_fleet_flags(scale=0.5, seed=3)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.rl.train_episodes == 20
        override = spec.with_overrides({"rl.train_episodes": 7})
        assert override.rl.train_episodes == 7

    def test_scaled_run_clamps_episode_to_horizon(self):
        spec = spec_from_train_fleet_flags(scale=0.25)
        _, env = api.build_fleet_env(spec)
        # 3-day horizon < the 5-day episode default => clamped.
        assert env.episode_length == 3 * 24

    def test_run_scale_shrinks_declarative_schedule(self):
        """--scale on a preset/spec must shrink the PPO schedule too,
        matching what the flag shim resolves at build time."""
        spec = spec_from_train_fleet_flags().with_overrides({"run.scale": 0.1})
        result = api.train_fleet(spec)
        assert result.data["train_episodes"] == 4  # 40 x 0.1
        assert result.data["eval_episodes"] == 1
        assert len(result.data["training_curve"]) == 4

    def test_cli_flag_run_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "tf.json"
        code = main(
            ["train-fleet", "--n-hubs", "2", "--days", "3",
             "--episodes", "2", "--eval-episodes", "1", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "train-fleet" in printed and "hub-slots/sec" in printed
        import json

        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "train-fleet"
        assert payload["data"]["n_hubs"] == 2
        assert payload["data"]["train_episodes"] == 2
        # The embedded spec replays the run.
        assert payload["data"]["spec"]["rl"]["train_episodes"] == 2

    def test_cli_flags_rejected_with_preset(self, capsys):
        from repro.cli import main

        code = main(
            ["train-fleet", "--preset", "fleet-default", "--episodes", "5"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--episodes" in err and "--set" in err

    def test_cli_spec_and_preset_mutually_exclusive(self, capsys):
        from repro.cli import main

        assert main(["train-fleet", "--spec", "x.json", "--preset", "y"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cli_set_overrides_and_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_from_train_fleet_flags(
            n_hubs=2, days=3, train_episodes=2, eval_episodes=1
        ).save(spec_path)
        code = main(
            ["train-fleet", "--spec", str(spec_path),
             "--set", "rl.train_episodes=3", "--seed", "2"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "3 training episodes" in printed

    def test_cli_unknown_rl_key_rejected(self, capsys):
        from repro.cli import main

        assert main(["train-fleet", "--set", "rl.bogus=1"]) == 1
        assert "unknown key 'bogus'" in capsys.readouterr().err

    def test_rl_spec_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            RlSpec(train_episodes=0)
        with pytest.raises(ConfigError):
            RlSpec(clip_epsilon=1.5)
        with pytest.raises(ConfigError):
            RlSpec(gamma=0.0)
        with pytest.raises(ConfigError):
            RlSpec(hidden_sizes=())
        with pytest.raises(ConfigError):
            RlSpec(hidden_sizes=(64, -1))
        # Lists from JSON payloads normalise to tuples.
        assert RlSpec(hidden_sizes=[32, 32]).hidden_sizes == (32, 32)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "name",
        [
            "learning_rate",
            "reward_scale",
            "max_grad_norm",
            "weight_decay",
            "value_coef",
            "entropy_coef",
        ],
    )
    def test_non_finite_hyperparameters_rejected(self, name, value):
        """NaN passes every ``<= 0`` check and would train to NaN weights."""
        from repro.causal.ect_price import EctPriceConfig
        from repro.causal.ncf import NcfConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=name):
            RlSpec(**{name: value})
        with pytest.raises(ConfigError, match=name):
            ScenarioSpec().with_overrides({f"rl.{name}": value})
        if name != "reward_scale":  # an environment knob, not a PPO one
            with pytest.raises(ModelError, match=name):
                PpoConfig(**{name: value})
        if name in ("learning_rate", "weight_decay"):
            for config in (NcfConfig, EctPriceConfig):
                with pytest.raises(ConfigError, match=name):
                    config(**{name: value})
