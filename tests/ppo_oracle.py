"""The PPO update as it ran before the fused minibatch step: the oracle.

:meth:`repro.rl.ppo.PpoAgent.update` trains on one fused
:meth:`~repro.rl.networks.ActorCritic.train_step` per minibatch, with
every column gathered once per epoch, a shortened loss head, the norm
clip folded into the Adam step and a vectorised GAE. This module keeps
the loop it replaced, frozen: per-hub GAE slot by slot, one index array
per minibatch, the layers' own forward and backward passes, the loss head
written op for op as the tape writes it, and the per-parameter norm clip.
The tests hold the fused update to it bitwise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import nn
from repro.errors import ModelError
from repro.rl.buffer import FleetRolloutBuffer
from repro.rl.ppo import PpoAgent, PpoConfig, UpdateStats


def clip_grad_norm(parameters: Sequence[nn.Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``;
    return the pre-clip norm."""
    if not math.isfinite(max_norm) or max_norm <= 0:
        raise ModelError(f"max_norm must be positive and finite, got {max_norm}")
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float((grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


def compute_advantages(
    buffer: FleetRolloutBuffer,
    last_value: float | np.ndarray,
    *,
    gamma: float,
    gae_lambda: float,
) -> None:
    """Per-hub GAE(λ), one slot at a time, then the pool normalised."""
    n = buffer._size
    last = np.broadcast_to(np.asarray(last_value, dtype=float), (buffer.n_envs,))
    gae = np.zeros(buffer.n_envs)
    for t in reversed(range(n)):
        live = ~buffer._dones[t]
        next_value = (
            np.where(live, last, 0.0)
            if t == n - 1
            else np.where(live, buffer._values[t + 1], 0.0)
        )
        delta = buffer._rewards[t] + gamma * next_value - buffer._values[t]
        gae = delta + gamma * gae_lambda * np.where(live, gae, 0.0)
        buffer._advantages[t] = gae
    buffer._returns[:n] = buffer._advantages[:n] + buffer._values[:n]
    if n * buffer.n_envs > 1:
        adv = buffer._advantages[:n]
        buffer._advantages[:n] = (adv - adv.mean()) / (adv.std() + 1e-8)


def ppo_loss(logits, values, actions, old_log_probs, advantages, returns, config):
    """``(policy_loss, value_loss, entropy, ratio, d_logits, d_values)``."""
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
    return (
        float(policy_loss),
        float(value_loss),
        float(entropy),
        ratio,
        d_logits,
        d_values,
    )


def update(
    agent: PpoAgent,
    buffer: FleetRolloutBuffer,
    *,
    last_value: float | np.ndarray = 0.0,
) -> tuple[UpdateStats, list[float]]:
    """The pre-fused ``PpoAgent.update``; also returns every minibatch's
    pre-clip gradient norm."""
    cfg: PpoConfig = agent.config
    compute_advantages(buffer, last_value, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda)
    network, optimizer = agent.network, agent._optimizer
    steps = network.trunk.body.steps
    totals = [0.0] * 5
    norms = []
    n_batches = 0
    for _ in range(cfg.update_epochs):
        order = agent._rng.permutation(len(buffer))
        for start in range(0, len(buffer), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            features, trace = network.trunk.forward_array(buffer.states[idx])
            logits = network.actor_head.forward_array(features)
            values = network.critic_head.forward_array(features)
            policy, value, entropy, ratio, d_logits, d_values = ppo_loss(
                logits,
                values,
                buffer.actions[idx],
                buffer.log_probs[idx],
                buffer.advantages[idx],
                buffer.returns[idx],
                cfg,
            )
            grad = network.actor_head.backward_array(features, None, d_logits)
            grad += network.critic_head.backward_array(features, None, d_values)
            for i in range(len(steps) - 1, 0, -1):
                grad = steps[i].backward_array(trace[i], trace[i + 1], grad)
            steps[0].backward_params(trace[0], grad)
            norms.append(clip_grad_norm(optimizer.parameters, cfg.max_grad_norm))
            optimizer.step()

            clip_fraction = float((np.abs(ratio - 1.0) > cfg.clip_epsilon).mean())
            approx_kl = float(-np.log(ratio).mean())
            for k, term in enumerate((policy, value, entropy, clip_fraction, approx_kl)):
                totals[k] += term
            n_batches += 1
    buffer.clear()
    denom = max(n_batches, 1)
    return UpdateStats(*(total / denom for total in totals)), norms
