"""Actor-critic network for ECT-DRL (paper Fig. 10).

All state inputs are concatenated and fed into a shared fully-connected
layer, which then feeds both the actor (3-way softmax over the battery
actions) and the critic (scalar value) — exactly the topology of Fig. 10.

Training runs one fused step per minibatch (:meth:`ActorCritic.train_step`,
the :meth:`~repro.causal.ncf.NcfNetwork.train_step` pattern): the forward
and backward run into scratch arrays kept per batch size, seeded by the
numpy PPO loss head (:func:`repro.rl.ppo.ppo_loss`, Eqs. 25–27), write
every gradient into the optimizer's flat buffer, and end in one clipped
Adam step. Every array the step forms is bitwise the one the layers' own
passes form. No autograd tape runs; the tests keep one, as the gradient
oracle.

Acting is block-stable: states may come as one ``(n, state_dim)`` batch
or as a stack ``(E, n, state_dim)`` of E blocks, and a stack runs every
matmul blockwise, one BLAS call per block. Each block's logits and
values are then bitwise those of the block acting alone, which is what
lets evaluation step E episodes together (one block per episode). A flat
``(E·n, ...)`` batch would not be: the narrow heads' results depend on
the number of rows, and a one-row block takes BLAS's vector path.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from .. import nn
from ..errors import ModelError

Record = TypeVar("Record")


class _Scratch:
    """The arrays of one training step at one batch size.

    ``hidden[i]`` holds trunk layer ``i``'s output (its pre-activation,
    activated in place), ``active[i]`` the ReLU mask the backward reuses,
    and ``d_hidden[i]`` d(output of layer ``i``).
    """

    __slots__ = ("hidden", "active", "d_hidden", "logits", "values")

    def __init__(self, batch: int, widths: list[int], n_actions: int) -> None:
        self.hidden = [np.empty((batch, width)) for width in widths]
        self.active = [np.empty((batch, width), dtype=bool) for width in widths[:-1]]
        self.d_hidden = [np.empty((batch, width)) for width in widths]
        self.logits = np.empty((batch, n_actions))
        self.values = np.empty((batch, 1))


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
        # The trunk is Linear, ReLU, ..., Linear, Tanh.
        self._layers = [
            step for step in self.trunk.body.steps if isinstance(step, nn.Linear)
        ]
        self._tanh = self.trunk.body.steps[-1]
        self._parameters = self.parameters()
        self._scratch: dict[int, _Scratch] = {}

    def forward(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Logits ``(..., n, n_actions)`` and values ``(..., n, 1)`` for a
        batch of states; a stack of blocks runs blockwise (see the module
        docstring)."""
        x = np.asarray(states, dtype=float)
        if x.ndim < 2:
            x = x.reshape(1, -1)
        features, _ = self.trunk.forward_array(x)
        return (
            self.actor_head.forward_array(features),
            self.critic_head.forward_array(features),
        )

    def train_step(
        self,
        optimizer: nn.Adam,
        states: np.ndarray,
        loss: Callable[..., Record],
        targets: Sequence = (),
        *,
        max_grad_norm: float | None = None,
    ) -> Record:
        """One optimizer step on a 2-D minibatch of states; returns the
        loss head's record.

        ``optimizer`` is the :class:`~repro.nn.Adam` over this network's
        parameters, in order. ``loss(logits, values, *targets)`` is a
        numpy head whose record carries ``d_logits`` and ``d_values`` (see
        :func:`repro.rl.ppo.ppo_loss`); they seed the fused backward,
        which writes every gradient into the optimizer's flat buffer
        before one Adam step, clipped to ``max_grad_norm`` if given. The
        states are data, so no d(states) is formed.
        """
        if optimizer.parameters != self._parameters:
            raise ModelError(
                "the optimizer must hold this network's parameters, in order"
            )
        batch = len(states)
        scratch = self._scratch.get(batch)
        if scratch is None:
            widths = [layer.out_features for layer in self._layers]
            scratch = self._scratch[batch] = _Scratch(batch, widths, self.n_actions)
        logits, values = self._forward(scratch, states)
        record = loss(logits, values, *targets)
        self._backward(scratch, states, record.d_logits, record.d_values)
        optimizer.step(max_grad_norm=max_grad_norm)
        return record

    def _forward(
        self, scratch: _Scratch, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` of a 2-D batch, into ``scratch``."""
        x = states
        last = len(self._layers) - 1
        for i, layer in enumerate(self._layers):
            hidden = np.matmul(x, layer.weight.data, out=scratch.hidden[i])
            hidden += layer.bias.data
            if i < last:
                # kernels.relu, keeping its mask for the backward.
                active = np.greater(hidden, 0, out=scratch.active[i])
                hidden *= active
            else:
                np.tanh(hidden, out=hidden)
            x = hidden
        logits = np.matmul(x, self.actor_head.weight.data, out=scratch.logits)
        logits += self.actor_head.bias.data
        values = np.matmul(x, self.critic_head.weight.data, out=scratch.values)
        values += self.critic_head.bias.data
        return logits, values

    def _backward(
        self,
        scratch: _Scratch,
        states: np.ndarray,
        d_logits: np.ndarray,
        d_values: np.ndarray,
    ) -> None:
        """Write every parameter's gradient from d(logits) and d(values)."""
        features = scratch.hidden[-1]
        self.actor_head.backward_params(features, d_logits)
        self.critic_head.backward_params(features, d_values)
        grad = np.matmul(
            d_logits, self.actor_head.weight.data.T, out=scratch.d_hidden[-1]
        )
        # The critic head has one output: its d(features) is a K=1 matmul.
        grad += nn.kernels.matmul_k1(d_values, self.critic_head.weight.data.T)
        grad = self._tanh.backward_array(None, features, grad)
        layers = self._layers
        for i in range(len(layers) - 1, 0, -1):
            layers[i].backward_params(scratch.hidden[i - 1], grad)
            d_input = np.matmul(
                grad, layers[i].weight.data.T, out=scratch.d_hidden[i - 1]
            )
            d_input *= scratch.active[i - 1]  # the ReLU's backward
            grad = d_input
        layers[0].backward_params(states, grad)

    # ------------------------------------------------------------------ #
    # Acting                                                               #
    # ------------------------------------------------------------------ #

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
        rows = len(probs)
        if draws is None:
            draws = rng.random((rows, 1))
        # The action is the number of CDF entries below the draw. Softmax
        # rows sum to 1 up to float error, and the CDF never decreases, so
        # counting only the first n_actions - 1 entries clamps a draw above
        # a sum that rounded below 1 to the last action.
        below = probs.cumsum(axis=1)[:, :-1] < draws
        actions = np.add.reduce(below, axis=1)
        return actions, log_probs[np.arange(rows), actions], values.reshape(-1)

    def greedy_actions(self, states: np.ndarray) -> np.ndarray:
        """Row-wise argmax actions, flat over the rows (batched evaluation)."""
        logits, _ = self.forward(states)
        return np.argmax(logits.reshape(-1, self.n_actions), axis=1)
