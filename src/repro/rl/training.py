"""Training and evaluation loops for ECT-DRL.

The paper trains for 500 episodes and tests for 100 (§V-C); these loops
take the episode counts as parameters so benches can run a reduced
schedule (documented in EXPERIMENTS.md) while paper-scale remains one
config away. The paper's one agent per hub is the one-hub
:class:`~repro.rl.fleet_env.FleetEnv`.

Fleet evaluation episodes are independent given the policy, so
:func:`evaluate_fleet_agent` steps them together: one stacked
:meth:`~repro.rl.fleet_env.FleetEnv.reset` puts every episode's hubs on
the hub axis, and one network forward over ``(episodes, n_hubs,
state_dim)`` blocks acts for all of them. Training acts on the one-block
case of the same path, ``(n_hubs, state_dim)``. The returns and the
agent's and env's streams end bitwise where an episode-by-episode loop
leaves them (``tests/test_fleet_env.py`` keeps that loop as the oracle).
Both loops draw an episode's acting uniforms in one call, the numbers a
draw per slot would take, in the same order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from .buffer import FleetRolloutBuffer
from .fleet_env import FleetEnv
from .ppo import PpoAgent, PpoConfig, UpdateStats


@dataclass
class FleetTrainingHistory:
    """Per-episode fleet returns and update diagnostics."""

    episode_returns: list[np.ndarray] = field(default_factory=list)
    update_stats: list[UpdateStats] = field(default_factory=list)

    @property
    def mean_episode_returns(self) -> list[float]:
        """Hub-averaged raw Eq. 12 return per training episode."""
        if not self.episode_returns:
            raise ModelError("no episodes recorded")
        return [float(returns.mean()) for returns in self.episode_returns]


def train_fleet_ppo(
    env: FleetEnv,
    *,
    episodes: int,
    config: PpoConfig | None = None,
    rng: np.random.Generator | None = None,
    agent: PpoAgent | None = None,
    telemetry=None,
) -> tuple[PpoAgent, FleetTrainingHistory]:
    """Train one parameter-shared PPO agent over a batched fleet env.

    Every slot contributes ``n_hubs`` transitions through a single
    forward pass; one PPO update runs per episode over the whole
    ``episode_length x n_hubs`` rollout, with GAE computed per hub.
    Returns the agent and the history of per-hub raw episode returns.

    ``telemetry`` (a :class:`~repro.telemetry.session.Telemetry`, or
    ``None``) records per-episode rollout time, a ``ppo-update`` span per
    update, and the update diagnostics (reward mean/std, losses, KL,
    entropy) — the training half of the RunTelemetry record.
    """
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    agent = agent or PpoAgent(env.state_dim(), env.action_space.n, config, rng)
    buffer = FleetRolloutBuffer(env.episode_length, env.n_hubs, env.state_dim())
    history = FleetTrainingHistory()

    for episode in range(episodes):
        rollout_start = time.perf_counter() if telemetry is not None else 0.0
        states = env.reset()
        # The episode's uniforms in one draw: the stream fills in C order,
        # so slot t's rows get the numbers a draw per slot would take.
        draws = agent.uniforms((env.episode_length, env.n_hubs, 1))
        episode_returns = np.zeros(env.n_hubs)
        for slot_draws in draws:
            actions, log_probs, values = agent.act_batch(states, draws=slot_draws)
            next_states, rewards, done, info = env.step(actions)
            buffer.add(states, actions, log_probs, values, rewards, done)
            episode_returns += info["reward_raw"]
            states = next_states
        if telemetry is not None:
            telemetry.metrics.add_time(
                "rl.rollout", time.perf_counter() - rollout_start
            )
            with telemetry.span("ppo-update", episode=episode):
                stats = agent.update(buffer, last_value=0.0)
            telemetry.record_rl_update(
                reward_mean=float(episode_returns.mean()),
                reward_std=float(episode_returns.std()),
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                approx_kl=stats.approx_kl,
                clip_fraction=stats.clip_fraction,
            )
        else:
            stats = agent.update(buffer, last_value=0.0)
        history.episode_returns.append(episode_returns)
        history.update_stats.append(stats)
    return agent, history


def evaluate_fleet_agent(
    env: FleetEnv,
    agent: PpoAgent,
    *,
    episodes: int,
    greedy: bool = True,
) -> np.ndarray:
    """Raw Eq. 12 episode returns per hub, shape ``(episodes, n_hubs)``.

    The episodes step together: one stacked :meth:`FleetEnv.reset` holds
    them on the hub axis, so each slot is one engine step and one network
    forward over ``(episodes, n_hubs, state_dim)`` blocks, each of which
    acts bitwise as it would alone. Stochastic evaluation pre-draws every
    episode's uniforms in one episode-major call: the same draws, in the
    same order, that acting episode after episode would take, leaving the
    agent's stream in the same state. The returns are bitwise those of
    running the episodes one at a time.
    """
    if episodes <= 0:
        raise ModelError(f"episodes must be positive, got {episodes}")
    n_hubs, length = env.n_hubs, env.episode_length
    states = env.reset(episodes)
    if not greedy:
        # Row t holds every episode's draws for slot t.
        draws = (
            agent.uniforms((episodes, length, n_hubs, 1))
            .transpose(1, 0, 2, 3)
            .reshape(length, episodes * n_hubs, 1)
        )
    returns = np.zeros((episodes, n_hubs))
    for t in range(length):
        blocks = states.reshape(episodes, n_hubs, -1)
        actions = (
            agent.greedy_actions(blocks)
            if greedy
            else agent.act_batch(blocks, draws=draws[t])[0]
        )
        states, _, _, info = env.step(actions)
        returns += info["reward_raw"].reshape(episodes, n_hubs)
    return returns
