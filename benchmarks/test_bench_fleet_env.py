"""Benchmark: batched FleetEnv stepping vs a loop of scalar RL envs.

Steps the same action stream through one :class:`repro.rl.FleetEnv`
episode (one fused-kernel step + one observation per slot for all hubs)
and through N independent instances of the scalar :class:`EctHubEnv`
frozen in ``tests/scalar_oracle``,
reporting hub-slots/sec; a second section times the full PPO training
loop (batched acting + per-hub GAE + minibatch updates) over the fleet
environment, and a third times evaluation with its episodes stacked on
the hub axis (one ``evaluate_fleet_agent`` call) against the same
episodes evaluated one call each. The report also carries, with no
floor, the PPO update's microseconds per minibatch and ``act_batch``'s
per call. Reports persist as ``fleet-env.{txt,json}`` so the
fleet-RL throughput and per-call trajectories are tracked across PRs.
Guard: the batched environment is at least 3x
the scalar loop, as the median over alternating batched/looped pairs
(so load on a shared host slows both sides of a pair instead of one
side's whole timing); skipped under ``ECT_PERF_RELAXED`` / scaled runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from conftest import bench_scale, perf_relaxed, timed_pairs, write_perf_report
from repro.config import replace
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.rl import (
    EnvConfig,
    FleetEnv,
    FleetRolloutBuffer,
    PpoAgent,
    evaluate_fleet_agent,
    train_fleet_ppo,
)
from repro.rng import RngFactory
from repro.synth.charging import ChargingConfig
from scalar_oracle import EctHubEnv

#: Fleet size pinned like the engine bench; the horizon scales instead.
N_HUBS = 24

#: Alternating pairs each speedup is the median of.
N_PAIRS = 11

#: Same-hardware floor of the batched env over the scalar-env loop.
MIN_SPEEDUP = 3.0

#: Episodes per evaluation pass (the ``train`` workload's count).
EVAL_EPISODES = 5

#: Timings each report-only per-call figure is the median of.
PER_CALL_REPEATS = 5

#: ``act_batch`` calls per timing.
ACT_CALLS = 100


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _per_call_us(agent: PpoAgent, env: FleetEnv) -> tuple[float, float]:
    """Median microseconds of one PPO minibatch step and of one
    ``act_batch`` call, each over :data:`PER_CALL_REPEATS` timings.

    Each update trains on a fresh rollout of one episode; the rollouts
    stay outside the timed region.
    """
    config = agent.config
    buffer = FleetRolloutBuffer(env.episode_length, env.n_hubs, env.state_dim())
    n = env.episode_length * env.n_hubs
    minibatches = config.update_epochs * -(-n // config.batch_size)
    update_us, act_us = [], []
    for _ in range(PER_CALL_REPEATS):
        states, done = env.reset(), False
        while not done:
            actions, log_probs, values = agent.act_batch(states)
            next_states, rewards, done, _ = env.step(actions)
            buffer.add(states, actions, log_probs, values, rewards, done)
            states = next_states
        update_us.append(_timed(lambda: agent.update(buffer)) / minibatches * 1e6)
        act_s = _timed(lambda: [agent.act_batch(states) for _ in range(ACT_CALLS)])
        act_us.append(act_s / ACT_CALLS * 1e6)
    return statistics.median(update_us), statistics.median(act_us)


def test_bench_fleet_env_throughput():
    scale = bench_scale(1.0)
    scenario_days = max(int(round(20 * scale)), 4)
    episode_days = max(int(round(5 * scale)), 2)
    n_hours = scenario_days * 24
    episode_h = episode_days * 24

    factory = RngFactory(seed=0)
    scenario_config = ScenarioConfig(
        n_hours=n_hours,
        charging=replace(ChargingConfig(), n_stations=N_HUBS),
    )
    scenarios = build_fleet_scenarios(scenario_config, factory, n_hubs=N_HUBS)
    behavior = fleet_behavior_model(scenario_config, factory)
    env_config = EnvConfig(episode_days=episode_days)
    schedule = np.zeros(n_hours)

    actions = np.random.default_rng(7).integers(
        0, 3, size=(episode_h, N_HUBS)
    )

    fleet_env = FleetEnv(
        scenarios,
        behavior,
        schedule,
        config=env_config,
        rng=RngFactory(seed=1).stream("bench/fleet"),
    )
    scalar_envs = [
        EctHubEnv(
            scenario,
            behavior,
            schedule,
            config=env_config,
            rng=RngFactory(seed=1).stream(f"bench/scalar/{i}"),
        )
        for i, scenario in enumerate(scenarios)
    ]

    # Resets stay outside the timed regions: only stepping is compared.
    def batched_episode():
        fleet_env.reset()

        def steps():
            for t in range(episode_h):
                fleet_env.step(actions[t])

        return _timed(steps)

    def looped_episode():
        for env in scalar_envs:
            env.reset()

        def steps():
            for t in range(episode_h):
                for i, env in enumerate(scalar_envs):
                    env.step(int(actions[t, i]))

        return _timed(steps)

    batched_times, looped_times, speedups = timed_pairs(
        batched_episode, looped_episode, N_PAIRS
    )
    batched_s = statistics.median(batched_times)
    looped_s = statistics.median(looped_times)
    hub_slots = N_HUBS * episode_h
    batched_rate = hub_slots / batched_s
    looped_rate = hub_slots / looped_s
    speedup = statistics.median(speedups)

    # Full training loop: batched acting, env stepping, and PPO updates.
    train_env = FleetEnv(
        scenarios,
        behavior,
        schedule,
        config=env_config,
        rng=RngFactory(seed=2).stream("bench/train"),
    )
    train_episodes = 3
    start = time.perf_counter()
    trained, _ = train_fleet_ppo(
        train_env, episodes=train_episodes, rng=RngFactory(seed=2).stream("a")
    )
    train_s = time.perf_counter() - start
    train_rate = train_episodes * hub_slots / train_s
    update_us, act_us = _per_call_us(trained, train_env)

    # Evaluation: the episodes stacked on the hub axis in one call, vs
    # the same episodes one call each (same stream, same returns).
    agent = PpoAgent(
        fleet_env.state_dim(),
        fleet_env.action_space.n,
        rng=RngFactory(seed=3).stream("bench/agent"),
    )
    eval_returns = {}

    def stacked_eval():
        fleet_env.reseed(RngFactory(seed=4).stream("bench/eval"))

        def run():
            eval_returns["stacked"] = evaluate_fleet_agent(
                fleet_env, agent, episodes=EVAL_EPISODES
            )

        seconds = _timed(run)
        eval_returns["stacked_columns"] = fleet_env.simulation.n_hubs
        return seconds

    def looped_eval():
        fleet_env.reseed(RngFactory(seed=4).stream("bench/eval"))

        def run():
            eval_returns["looped"] = np.concatenate(
                [
                    evaluate_fleet_agent(fleet_env, agent, episodes=1)
                    for _ in range(EVAL_EPISODES)
                ]
            )

        return _timed(run)

    stacked_times, looped_eval_times, eval_speedups = timed_pairs(
        stacked_eval, looped_eval, N_PAIRS
    )
    eval_hub_slots = EVAL_EPISODES * hub_slots
    stacked_eval_rate = eval_hub_slots / statistics.median(stacked_times)
    looped_eval_rate = eval_hub_slots / statistics.median(looped_eval_times)
    eval_speedup = statistics.median(eval_speedups)

    relaxed = perf_relaxed()
    report = "\n".join(
        [
            "== fleet-env: batched RL environment throughput ==",
            f"workload: {N_HUBS} hubs x {episode_h}-slot episodes "
            f"({hub_slots} hub-slots/episode), random actions",
            f"batched env  {batched_rate:>12,.0f} hub-slots/sec  ({batched_s:.3f}s)",
            f"scalar loop  {looped_rate:>12,.0f} hub-slots/sec  ({looped_s:.3f}s)",
            f"speedup      {speedup:>12.1f}x  median of {N_PAIRS} pairs, range "
            f"{min(speedups):.1f}-{max(speedups):.1f}x  (guard: >= "
            f"{MIN_SPEEDUP:.0f}x{', skipped: relaxed' if relaxed else ''})",
            f"PPO training {train_rate:>12,.0f} hub-slots/sec  "
            f"({train_episodes} episodes incl. updates in {train_s:.3f}s)",
            f"greedy evaluation, {EVAL_EPISODES} episodes: stacked "
            f"{stacked_eval_rate:,.0f} vs one call each "
            f"{looped_eval_rate:,.0f} hub-slots/sec "
            f"({eval_speedup:.1f}x, median of {N_PAIRS} pairs)",
            f"per call (report only): PPO update {update_us:,.0f} us per "
            f"minibatch, act_batch {act_us:,.1f} us ({N_HUBS} hubs), "
            f"medians of {PER_CALL_REPEATS}",
        ]
    )
    write_perf_report(
        "fleet-env",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "episode_slots": episode_h,
                "hub_slots_per_episode": hub_slots,
                "train_episodes": train_episodes,
                "eval_episodes": EVAL_EPISODES,
                "pairs": N_PAIRS,
            },
            "batched_hub_slots_per_sec": batched_rate,
            "looped_hub_slots_per_sec": looped_rate,
            "speedup": speedup,
            "training_hub_slots_per_sec": train_rate,
            "stacked_eval_hub_slots_per_sec": stacked_eval_rate,
            "looped_eval_hub_slots_per_sec": looped_eval_rate,
            "eval_speedup": eval_speedup,
            "ppo_update_us_per_minibatch": update_us,
            "act_batch_us_per_call": act_us,
        },
    )
    print("\n" + report)

    # The batched env must actually batch: one kernel step per slot, and
    # a stacked evaluation steps all its episodes at once.
    assert len(fleet_env.simulation.book) == episode_h
    assert eval_returns["stacked_columns"] == EVAL_EPISODES * N_HUBS
    assert eval_returns["stacked"].tobytes() == eval_returns["looped"].tobytes()
    if not relaxed:
        assert speedup >= MIN_SPEEDUP, report
