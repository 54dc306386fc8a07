"""Proximal Policy Optimization — the ECT-DRL learner (Eqs. 25–28).

Implements the clipped surrogate objective

``L_clip = Ê[ min(r_t Â_t, clip(r_t, 1−ε, 1+ε) Â_t) ]``           (Eq. 25)

with ``r_t`` the new/old policy probability ratio (Eq. 26), plus the value
MSE term with coefficient ``c`` (Eq. 27). Parameters follow the paper's
§V-A training setup (Adam, lr 1e-3, weight decay 1e-4, batch 64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import nn
from ..errors import ModelError
from .buffer import RolloutBuffer
from .networks import ActorCritic


@dataclass(frozen=True)
class PpoConfig:
    """PPO hyperparameters.

    ``clip_epsilon`` is Eq. 25's ε; ``value_coef`` is Eq. 27's ``c``;
    ``entropy_coef`` adds the standard exploration bonus (0 disables it).
    """

    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    update_epochs: int = 4
    batch_size: int = 64
    max_grad_norm: float = 0.5
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        for name in ("learning_rate", "max_grad_norm"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ModelError(f"{name} must be positive and finite, got {value}")
        for name in ("weight_decay", "value_coef", "entropy_coef"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ModelError(f"{name} must be non-negative and finite, got {value}")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ModelError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}")
        if not 0.0 < self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ModelError("invalid gamma / gae_lambda")
        if self.update_epochs <= 0 or self.batch_size <= 0:
            raise ModelError("update_epochs and batch_size must be positive")


@dataclass
class UpdateStats:
    """Diagnostics from one PPO update.

    ``approx_kl`` is the standard first-order estimator
    ``E[log π_old − log π_new]`` averaged over minibatches — the drift
    diagnostic telemetry reports per update (≈0 means the clipped
    objective barely moved the policy).
    """

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float = 0.0


class PpoLoss(NamedTuple):
    """The Eq. 25–27 objective on one minibatch, its terms and its gradients."""

    loss: float
    policy_loss: float
    value_loss: float
    entropy: float
    #: New/old policy probability ratios (Eq. 26), shape ``(n,)``.
    ratio: np.ndarray
    clip_fraction: float
    approx_kl: float
    d_logits: np.ndarray
    d_values: np.ndarray


def ppo_loss(
    logits: np.ndarray,
    values: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: PpoConfig,
) -> PpoLoss:
    """Clipped surrogate (Eqs. 25–26) plus value MSE (Eq. 27) and entropy.

    ``logits`` ``(n, n_actions)`` and ``values`` ``(n, 1)`` are the
    actor-critic's outputs. A numpy head (see :mod:`repro.nn.heads`):
    the loss terms come back as floats with d(logits) and d(values) for
    the fused backward. The log-probabilities feed three consumers; their
    gradients are summed in tape order: the taken-action select, the
    entropy product, then the ``exp`` to probabilities.
    """
    batch = logits.shape[0]
    rows = np.arange(batch)
    actions = np.asarray(actions, dtype=int)
    advantages = np.asarray(advantages, dtype=float)
    log_probs = nn.kernels.log_softmax(logits)
    probs = np.exp(np.clip(log_probs, -nn.kernels.EXP_CLIP, nn.kernels.EXP_CLIP))
    entropy = -((probs * log_probs).sum(axis=-1).sum() * (1.0 / batch))
    ratio = np.exp(
        np.clip(
            log_probs[rows, actions] - old_log_probs,
            -nn.kernels.EXP_CLIP,
            nn.kernels.EXP_CLIP,
        )
    )
    low, high = 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon
    unclipped = ratio * advantages
    clipped = np.clip(ratio, low, high) * advantages
    take_unclipped = unclipped <= clipped
    surrogate = np.where(take_unclipped, unclipped, clipped)
    policy_loss = -(surrogate.sum() * (1.0 / batch))
    diff = values.reshape(batch) - returns
    value_loss = (diff * diff).sum() * (1.0 / batch)
    loss = (policy_loss + value_loss * config.value_coef) + -(
        entropy * config.entropy_coef
    )

    # Each mean's backward is a full array of ``scale * (1 / batch)``; the
    # scalar broadcasts to the same bits.
    half = (config.value_coef * (1.0 / batch)) * diff
    d_values = (half + half).reshape(batch, 1)
    d_surrogate = -1.0 * (1.0 / batch)
    inside = (ratio > low) & (ratio < high)
    d_ratio = (d_surrogate * take_unclipped) * advantages
    d_ratio += ((d_surrogate * ~take_unclipped) * advantages) * inside
    d_log_probs = np.zeros_like(log_probs)
    d_log_probs[rows, actions] += d_ratio * ratio
    d_entropy_terms = config.entropy_coef * (1.0 / batch)
    d_log_probs += d_entropy_terms * probs
    d_log_probs += (d_entropy_terms * log_probs) * probs
    d_logits = d_log_probs - np.exp(log_probs) * d_log_probs.sum(axis=-1, keepdims=True)
    return PpoLoss(
        loss=float(loss),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        entropy=float(entropy),
        ratio=ratio,
        clip_fraction=float((np.abs(ratio - 1.0) > config.clip_epsilon).mean()),
        # E[log π_old − log π_new] = E[−log r]; ratios are exp(new − old)
        # so positive by construction.
        approx_kl=float(-np.log(ratio).mean()),
        d_logits=d_logits,
        d_values=d_values,
    )


class PpoAgent:
    """The ECT-DRL agent: an actor-critic trained with PPO."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        config: PpoConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or PpoConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.network = ActorCritic(
            state_dim, n_actions, self._rng, hidden_sizes=self.config.hidden_sizes
        )
        self._optimizer = nn.Adam(
            self.network.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )

    # ------------------------------------------------------------------ #
    # Acting                                                               #
    # ------------------------------------------------------------------ #

    def act(self, state: np.ndarray) -> tuple[int, float, float]:
        """Sample (action, log_prob, value) from the current policy."""
        return self.network.act(state, self._rng)

    def greedy_action(self, state: np.ndarray) -> int:
        """Deterministic action for evaluation."""
        return self.network.greedy_action(state)

    def act_batch(
        self, states: np.ndarray, *, draws: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``(actions, log_probs, values)`` for a batch of states.

        One forward pass serves the whole fleet — the hub axis is batch
        parallelism through the shared policy. ``states`` may be a stack
        of blocks and ``draws`` the rows' pre-drawn uniforms (see
        :meth:`ActorCritic.act_batch` and :meth:`uniforms`).
        """
        return self.network.act_batch(states, self._rng, draws=draws)

    def uniforms(self, shape: tuple[int, ...]) -> np.ndarray:
        """Draw ``shape`` uniforms off the acting stream in one call.

        The stream fills in C order, so this equals the successive
        ``act_batch`` draws it replaces and leaves the same stream state.
        """
        return self._rng.random(shape)

    def greedy_actions(self, states: np.ndarray) -> np.ndarray:
        """Deterministic actions for a batch of states (evaluation)."""
        return self.network.greedy_actions(states)

    def value(self, state: np.ndarray) -> float:
        """Critic value of a state (for bootstrap at rollout truncation)."""
        _, value = self.network.forward(state)
        return float(value[0, 0])

    # ------------------------------------------------------------------ #
    # Learning (Eqs. 25–28)                                                #
    # ------------------------------------------------------------------ #

    def update(
        self,
        buffer: RolloutBuffer,
        *,
        last_value: float | np.ndarray = 0.0,
    ) -> UpdateStats:
        """One PPO update over a filled rollout buffer.

        ``buffer`` is a :class:`RolloutBuffer` or a
        :class:`~repro.rl.buffer.FleetRolloutBuffer` — both expose the
        same advantage/minibatch interface; for the fleet buffer
        ``last_value`` may be an ``(n_envs,)`` per-hub bootstrap array.
        """
        cfg = self.config
        buffer.compute_advantages(
            last_value, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda
        )
        total_policy, total_value, total_entropy, total_clipped = 0.0, 0.0, 0.0, 0.0
        total_kl = 0.0
        n_batches = 0

        for _ in range(cfg.update_epochs):
            for idx in buffer.minibatches(cfg.batch_size, self._rng):
                logits, values, trace = self.network.forward_cached(buffer.states[idx])
                terms = ppo_loss(
                    logits,
                    values,
                    buffer.actions[idx],
                    buffer.log_probs[idx],
                    buffer.advantages[idx],
                    buffer.returns[idx],
                    cfg,
                )
                self.network.backward(trace, terms.d_logits, terms.d_values)
                nn.clip_grad_norm(self._optimizer.parameters, cfg.max_grad_norm)
                self._optimizer.step()

                total_clipped += terms.clip_fraction
                total_kl += terms.approx_kl
                total_policy += terms.policy_loss
                total_value += terms.value_loss
                total_entropy += terms.entropy
                n_batches += 1

        buffer.clear()
        denom = max(n_batches, 1)
        return UpdateStats(
            policy_loss=total_policy / denom,
            value_loss=total_value / denom,
            entropy=total_entropy / denom,
            clip_fraction=total_clipped / denom,
            approx_kl=total_kl / denom,
        )
