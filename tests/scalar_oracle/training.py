"""Training and evaluation loops over one scalar :class:`EctHubEnv`.

:func:`train_ppo` acts one slot at a time through ``PpoAgent.act`` and
fills a one-hub :class:`~repro.rl.buffer.FleetRolloutBuffer`;
:func:`evaluate_agent` and :func:`evaluate_scheduler` run the evaluation
episodes one after another and read each episode's daily rewards off the
scalar cost book.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.rl.buffer import FleetRolloutBuffer
from repro.rl.ppo import PpoAgent, PpoConfig, UpdateStats

from .env import EctHubEnv
from .schedulers import Scheduler


@dataclass
class TrainingHistory:
    """Per-episode returns and update diagnostics."""

    episode_returns: list[float] = field(default_factory=list)
    update_stats: list[UpdateStats] = field(default_factory=list)


def train_ppo(
    env: EctHubEnv,
    *,
    episodes: int,
    config: PpoConfig | None = None,
    rng: np.random.Generator | None = None,
    agent: PpoAgent | None = None,
) -> tuple[PpoAgent, TrainingHistory]:
    """Train a PPO agent on one hub environment.

    One PPO update per episode (the 720-slot episode is the rollout).
    Returns the trained agent and the training history (raw Eq. 12
    returns, not reward-scaled).
    """
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    agent = agent or PpoAgent(
        env.state_dim(), env.action_space.n, config, rng
    )
    # One environment is the one-hub fleet buffer, filled with (1, ·) rows.
    buffer = FleetRolloutBuffer(env.episode_length, 1, env.state_dim())
    history = TrainingHistory()

    for _ in range(episodes):
        state = env.reset()
        episode_return = 0.0
        done = False
        while not done:
            action, log_prob, value = agent.act(state)
            next_state, reward, done, info = env.step(action)
            buffer.add(
                state.reshape(1, -1),
                np.array([action]),
                np.array([log_prob]),
                np.array([value]),
                np.array([reward]),
                done,
            )
            episode_return += info["reward_raw"]
            state = next_state
        stats = agent.update(buffer, last_value=0.0)
        history.episode_returns.append(episode_return)
        history.update_stats.append(stats)
    return agent, history


def evaluate_agent(
    env: EctHubEnv,
    agent: PpoAgent,
    *,
    episodes: int,
    greedy: bool = True,
) -> np.ndarray:
    """Daily Eq. 12 rewards over evaluation episodes, shape (episodes, days)."""
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    days = env.config.episode_days
    rewards = np.zeros((episodes, days))
    for e in range(episodes):
        state = env.reset()
        done = False
        while not done:
            action = (
                agent.greedy_action(state) if greedy else agent.act(state)[0]
            )
            state, _, done, _ = env.step(action)
        daily = env.simulation.book.daily_rewards()
        rewards[e, : len(daily)] = daily
    return rewards


def evaluate_scheduler(
    env: EctHubEnv,
    scheduler: Scheduler,
    *,
    episodes: int,
) -> np.ndarray:
    """Daily rewards for a rule-based scheduler on the same environment."""
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    days = env.config.episode_days
    rewards = np.zeros((episodes, days))
    action_map = {0: 0, 1: 1, -1: 2}
    for e in range(episodes):
        env.reset()
        scheduler.reset()
        done = False
        while not done:
            sbp = scheduler(env.simulation)
            _, _, done, _ = env.step(action_map[int(sbp)])
        daily = env.simulation.book.daily_rewards()
        rewards[e, : len(daily)] = daily
    return rewards
