"""Proximal Policy Optimization — the ECT-DRL learner (Eqs. 25–28).

Implements the clipped surrogate objective

``L_clip = Ê[ min(r_t Â_t, clip(r_t, 1−ε, 1+ε) Â_t) ]``           (Eq. 25)

with ``r_t`` the new/old policy probability ratio (Eq. 26), plus the value
MSE term with coefficient ``c`` (Eq. 27). Parameters follow the paper's
§V-A training setup (Adam, lr 1e-3, weight decay 1e-4, batch 64).

Every minibatch of an update is one fused
:meth:`~repro.rl.networks.ActorCritic.train_step`: the forward, the numpy
loss head :func:`ppo_loss`, the backward into Adam's flat gradient
buffer, and one Adam step with the gradient-norm clip. The step's cost is
numpy's per-call overhead far more than arithmetic, so each piece is
written for few calls; each keeps the bits of the per-layer, per-view
loop it replaced (kept in ``tests/ppo_oracle.py`` as the oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import nn
from ..errors import ModelError
from .buffer import FleetRolloutBuffer
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
    the fused backward, bitwise those of the tape expression for finite
    advantages (the update normalises them). The log-probabilities feed
    three consumers; their gradients are summed in tape order: the
    taken-action select, the entropy product, then the ``exp`` to
    probabilities. Each is formed with as few numpy calls as keep the
    tape's bits (the comments say why a shorter form is exact).
    """
    batch = logits.shape[0]
    scale = 1.0 / batch
    clip, bound = nn.kernels.clip, nn.kernels.EXP_CLIP
    rows = np.arange(batch)
    actions = np.asarray(actions, dtype=int)
    advantages = np.asarray(advantages, dtype=float)
    log_probs = nn.kernels.log_softmax(logits)
    probs = np.exp(clip(log_probs, -bound, bound))
    plogp = nn.kernels.row_sum(probs * log_probs)
    entropy = -(float(np.add.reduce(plogp)) * scale)
    ratio = np.exp(clip(log_probs[rows, actions] - old_log_probs, -bound, bound))
    low, high = 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon
    unclipped = ratio * advantages
    clipped = clip(ratio, low, high) * advantages
    take_unclipped = unclipped <= clipped
    surrogate = np.where(take_unclipped, unclipped, clipped)
    policy_loss = -(float(np.add.reduce(surrogate)) * scale)
    diff = values.reshape(batch) - returns
    value_loss = float(np.add.reduce(diff * diff)) * scale
    loss = (policy_loss + value_loss * config.value_coef) + -(
        entropy * config.entropy_coef
    )

    # Each mean's backward is a full array of ``scale * (1 / batch)``; the
    # scalar broadcasts to the same bits.
    half = (config.value_coef * scale) * diff
    d_values = (half + half).reshape(batch, 1)
    # The tape sums d(ratio) over the two branches of the min:
    # ``(d * take) * A + ((d * ~take) * A) * inside``. Where the clip is
    # inactive both branches are equal, so ``take`` holds; the clipped
    # branch therefore only ever adds a zero of the sign the unclipped
    # branch's term already has, and the sum is ``(d * A) * take`` bit
    # for bit (finite A).
    d_surrogate = -1.0 * scale
    d_ratio = (d_surrogate * advantages) * take_unclipped
    d_entropy_terms = config.entropy_coef * scale
    # ``0.0 + select`` then ``+ c * p``, reordered: c * p is never -0.0,
    # so adding the select onto it gives the same bits.
    d_log_probs = d_entropy_terms * probs
    d_log_probs[rows, actions] += d_ratio * ratio
    d_log_probs += (d_entropy_terms * log_probs) * probs
    d_sum = nn.kernels.row_sum(d_log_probs)
    d_logits = d_log_probs - np.exp(log_probs) * d_sum[:, None]
    return PpoLoss(
        loss=loss,
        policy_loss=policy_loss,
        value_loss=value_loss,
        entropy=entropy,
        ratio=ratio,
        # The means of a bool mask and of the log-ratios, as count / n and
        # sum / n: the quotients numpy's ``mean`` forms.
        clip_fraction=np.count_nonzero(np.abs(ratio - 1.0) > config.clip_epsilon)
        / batch,
        # E[log π_old − log π_new] = E[−log r]; ratios are exp(new − old)
        # so positive by construction.
        approx_kl=-(float(np.add.reduce(np.log(ratio))) / batch),
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
        #: The update's per-epoch shuffled columns, kept for the rollout size.
        self._shuffled: tuple[np.ndarray, ...] | None = None

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
        buffer: FleetRolloutBuffer,
        *,
        last_value: float | np.ndarray = 0.0,
    ) -> UpdateStats:
        """One PPO update over a filled rollout buffer.

        ``last_value`` bootstraps beyond the final stored slot: a scalar,
        or an ``(n_envs,)`` per-hub array.

        Each epoch draws one permutation of the transitions, gathers the
        five columns in that order into arrays kept for the rollout size,
        and trains on consecutive slices of them, one fused
        :meth:`ActorCritic.train_step` per minibatch.
        """
        cfg = self.config
        buffer.compute_advantages(
            last_value, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda
        )
        columns = (
            buffer.states,
            buffer.actions,
            buffer.log_probs,
            buffer.advantages,
            buffer.returns,
        )
        n = len(columns[1])
        shuffled = self._shuffled
        if shuffled is None or shuffled[0].shape != columns[0].shape:
            shuffled = self._shuffled = tuple(np.empty_like(c) for c in columns)
        states, actions, log_probs, advantages, returns = shuffled
        total_policy, total_value, total_entropy, total_clipped = 0.0, 0.0, 0.0, 0.0
        total_kl = 0.0
        n_batches = 0

        for _ in range(cfg.update_epochs):
            order = self._rng.permutation(n)
            for column, out in zip(columns, shuffled):
                # Every index is in range; "clip" skips the bounds-checked
                # copy through a temporary that "raise" makes with ``out``.
                column.take(order, axis=0, out=out, mode="clip")
            for start in range(0, n, cfg.batch_size):
                stop = start + cfg.batch_size
                terms = self.network.train_step(
                    self._optimizer,
                    states[start:stop],
                    ppo_loss,
                    (
                        actions[start:stop],
                        log_probs[start:stop],
                        advantages[start:stop],
                        returns[start:stop],
                        cfg,
                    ),
                    max_grad_norm=cfg.max_grad_norm,
                )
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
