"""Actor-critic network for ECT-DRL (paper Fig. 10).

All state inputs are concatenated and fed into a shared fully-connected
layer, which then feeds both the actor (3-way softmax over the battery
actions) and the critic (scalar value) — exactly the topology of Fig. 10.

The network runs on fused numpy passes (:meth:`ActorCritic.forward_cached`
and :meth:`ActorCritic.backward`), seeded by the numpy PPO loss head
(:func:`repro.rl.ppo.ppo_loss`, Eqs. 25–27); training runs no autograd
tape. The tests keep one, as the gradient oracle.

Acting is block-stable: states may come as one ``(n, state_dim)`` batch
or as a stack ``(E, n, state_dim)`` of E blocks, and a stack runs every
matmul blockwise, one BLAS call per block. Each block's logits and
values are then bitwise those of the block acting alone, which is what
lets evaluation step E episodes together (one block per episode). A flat
``(E·n, ...)`` batch would not be: the narrow heads' results depend on
the number of rows, and a one-row block takes BLAS's vector path.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..errors import ModelError


class ActorCritic(nn.Module):
    """Shared-trunk actor-critic on :mod:`repro.nn`."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        rng: np.random.Generator,
        *,
        hidden_sizes: tuple[int, ...] = (64, 64),
    ) -> None:
        if state_dim <= 0 or n_actions <= 1:
            raise ModelError(
                f"state_dim must be positive and n_actions > 1, got "
                f"({state_dim}, {n_actions})"
            )
        if not hidden_sizes:
            raise ModelError("hidden_sizes must be non-empty")
        self.trunk = nn.MLP((state_dim, *hidden_sizes), rng, output_activation=nn.Tanh)
        self.actor_head = nn.Linear(hidden_sizes[-1], n_actions, rng)
        self.critic_head = nn.Linear(hidden_sizes[-1], 1, rng)
        # Small policy-head init keeps the initial policy near uniform.
        self.actor_head.weight.data *= 0.01
        self.n_actions = n_actions

    def forward(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(policy logits, value estimates) for a batch of states."""
        logits, values, _ = self.forward_cached(states)
        return logits, values

    def forward_cached(
        self, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Logits ``(..., n, n_actions)``, values ``(..., n, 1)`` and the
        cache :meth:`backward` consumes (fused numpy pass); a stack of
        blocks runs blockwise (see the module docstring)."""
        x = np.atleast_2d(np.asarray(states, dtype=float))
        features, trace = self.trunk.forward_array(x)
        logits = self.actor_head.forward_array(features)
        return logits, self.critic_head.forward_array(features), trace

    def backward(
        self, trace: list[np.ndarray], d_logits: np.ndarray, d_values: np.ndarray
    ) -> None:
        """Write every parameter's gradient from d(logits) and d(values) of
        a 2-D batch. The states are data, so no d(states) is formed."""
        features = trace[-1]
        d_features = self.actor_head.backward_array(features, None, d_logits)
        d_features += self.critic_head.backward_array(features, None, d_values)
        self.trunk.backward_array(trace, d_features, input_grad=False)

    # ------------------------------------------------------------------ #
    # Acting                                                               #
    # ------------------------------------------------------------------ #

    def act(
        self, state: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, float]:
        """Sample an action; returns (action, log_prob, value)."""
        logits, value = self.forward(state)
        log_probs = nn.kernels.log_softmax(logits)[0]
        probs = np.exp(log_probs)
        probs = probs / probs.sum()
        action = int(rng.choice(self.n_actions, p=probs))
        return action, float(log_probs[action]), float(value[0, 0])

    def greedy_action(self, state: np.ndarray) -> int:
        """Deterministic argmax action (evaluation mode)."""
        logits, _ = self.forward(state)
        return int(np.argmax(logits[0]))

    def act_batch(
        self,
        states: np.ndarray,
        rng: np.random.Generator,
        *,
        draws: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one action per state row in a single forward pass.

        ``states`` is ``(n, state_dim)`` or a stack ``(E, n, state_dim)``;
        returns ``(actions, log_probs, values)``, each flat over the rows.
        Sampling is inverse-CDF over the row-wise softmax (one uniform
        draw per row, from ``rng`` unless ``draws`` of shape ``(rows, 1)``
        are given), so the whole fleet acts on one network evaluation.
        """
        logits, values = self.forward(states)
        log_probs = nn.kernels.log_softmax(logits.reshape(-1, self.n_actions))
        probs = np.exp(log_probs)
        if draws is None:
            draws = rng.random((probs.shape[0], 1))
        # Softmax rows sum to 1 up to float error; the clamp covers a
        # cumsum landing fractionally below a draw at the top edge.
        actions = np.minimum(
            (probs.cumsum(axis=1) < draws).sum(axis=1), self.n_actions - 1
        ).astype(int)
        taken = log_probs[np.arange(len(actions)), actions]
        return actions, taken, values.reshape(-1)

    def greedy_actions(self, states: np.ndarray) -> np.ndarray:
        """Row-wise argmax actions, flat over the rows (batched evaluation)."""
        logits, _ = self.forward(states)
        return np.argmax(logits.reshape(-1, self.n_actions), axis=1).astype(int)
