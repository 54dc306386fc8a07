"""Rollout storage and Generalised Advantage Estimation for PPO.

:class:`FleetRolloutBuffer` stores ``(T, n_envs)`` batches from the
batched fleet environment, runs GAE(λ) **per hub** (vectorized over the
hub axis), and exposes the flattened ``(T·n_envs, …)`` views the PPO
update consumes — so one parameter-shared policy trains on every hub's
transitions with a single optimiser. One environment is the
``n_envs=1`` case, filled with ``(1, …)`` rows.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


class FleetRolloutBuffer:
    """On-policy storage for ``n_envs`` hubs stepped in lockstep.

    One :meth:`add` call appends a whole ``(n_envs,)`` transition batch
    (the fleet environment's per-slot output). GAE(λ) runs per hub —
    every hub's advantage stream is computed exactly as an ``n_envs=1``
    buffer would, just vectorized across the hub axis — and
    normalisation spans the full ``T·n_envs`` pool, which is also the
    pool the PPO update shuffles over. The flat column properties
    (``states``, ``actions``, …) order transitions time-major
    (slot 0's hubs first), matching the ``(T, n_envs)`` storage reshape.
    """

    def __init__(self, capacity: int, n_envs: int, state_dim: int) -> None:
        if capacity <= 0 or n_envs <= 0 or state_dim <= 0:
            raise ModelError("capacity, n_envs, and state_dim must be positive")
        self.capacity = capacity
        self.n_envs = n_envs
        self._states = np.zeros((capacity, n_envs, state_dim))
        self._actions = np.zeros((capacity, n_envs), dtype=int)
        self._log_probs = np.zeros((capacity, n_envs))
        self._values = np.zeros((capacity, n_envs))
        self._rewards = np.zeros((capacity, n_envs))
        self._dones = np.zeros((capacity, n_envs), dtype=bool)
        self._advantages = np.zeros((capacity, n_envs))
        self._returns = np.zeros((capacity, n_envs))
        #: The expected shapes of one :meth:`add`'s columns.
        self._shapes = ((n_envs, state_dim),) + ((n_envs,),) * 4
        self._size = 0

    def __len__(self) -> int:
        """Number of stored transitions across all hubs."""
        return self._size * self.n_envs

    @property
    def full(self) -> bool:
        """Whether the buffer has reached its slot capacity."""
        return self._size >= self.capacity

    def add(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        log_probs: np.ndarray,
        values: np.ndarray,
        rewards: np.ndarray,
        dones: bool | np.ndarray,
    ) -> None:
        """Append one slot's ``(n_envs,)`` transition batch."""
        if self.full:
            raise ModelError(
                f"fleet rollout buffer capacity {self.capacity} exceeded"
            )
        columns = (states, actions, log_probs, values, rewards)
        try:
            shapes = (
                states.shape,
                actions.shape,
                log_probs.shape,
                values.shape,
                rewards.shape,
            )
        except AttributeError:  # a sequence, not an array
            shapes = tuple(map(np.shape, columns))
        if shapes != self._shapes:
            names = ("states", "actions", "log_probs", "values", "rewards")
            for name, shape, expected in zip(names, shapes, self._shapes):
                if shape != expected:
                    raise ModelError(
                        f"{name} must have shape {expected}, got {shape}"
                    )
        if np.shape(dones) not in ((), (self.n_envs,)):
            raise ModelError(
                f"dones must be a scalar or have shape ({self.n_envs},), "
                f"got {np.shape(dones)}"
            )
        i = self._size
        self._states[i] = states
        self._actions[i] = actions
        self._log_probs[i] = log_probs
        self._values[i] = values
        self._rewards[i] = rewards
        self._dones[i] = dones
        self._size += 1

    def compute_advantages(
        self,
        last_value: float | np.ndarray,
        *,
        gamma: float = 0.99,
        gae_lambda: float = 0.95,
        normalize: bool = True,
    ) -> None:
        """Per-hub GAE(λ) over the stored slots.

        ``last_value`` bootstraps beyond the final stored slot — a scalar
        (shared) or an ``(n_envs,)`` array of per-hub critic values; hubs
        whose final slot terminated bootstrap zero regardless.
        """
        if not 0.0 < gamma <= 1.0 or not 0.0 <= gae_lambda <= 1.0:
            raise ModelError(f"invalid gamma/lambda: {gamma}, {gae_lambda}")
        n = self._size
        if n == 0:
            raise ModelError("compute_advantages on an empty buffer")
        values = self._values[:n]
        live = ~self._dones[:n]
        # Every slot's TD residual at once (elementwise, so bitwise the
        # per-slot expression); only the recursion runs slot by slot.
        next_values = np.empty_like(values)
        next_values[:-1] = values[1:]
        next_values[-1] = last_value
        next_values = np.where(live, next_values, 0.0)
        delta = self._rewards[:n] + gamma * next_values - values
        coef = gamma * gae_lambda
        gae = np.zeros(self.n_envs)
        for delta_t, live_t, out in zip(
            delta[::-1], live[::-1], self._advantages[n - 1 :: -1]
        ):
            gae = np.add(delta_t, coef * np.where(live_t, gae, 0.0), out=out)
        self._returns[:n] = self._advantages[:n] + values

        if normalize and n * self.n_envs > 1:
            adv = self._advantages[:n]
            self._advantages[:n] = (adv - adv.mean()) / (adv.std() + 1e-8)

    # Flat (T·n_envs, …) views consumed by the PPO minibatch update.
    @property
    def states(self) -> np.ndarray:
        """Stored states, flattened time-major."""
        return self._states[: self._size].reshape(len(self), -1)

    @property
    def actions(self) -> np.ndarray:
        """Stored actions, flattened time-major."""
        return self._actions[: self._size].reshape(-1)

    @property
    def log_probs(self) -> np.ndarray:
        """Stored behaviour log-probs, flattened time-major."""
        return self._log_probs[: self._size].reshape(-1)

    @property
    def advantages(self) -> np.ndarray:
        """GAE advantages, flattened time-major."""
        return self._advantages[: self._size].reshape(-1)

    @property
    def returns(self) -> np.ndarray:
        """Discounted returns, flattened time-major."""
        return self._returns[: self._size].reshape(-1)

    @property
    def values(self) -> np.ndarray:
        """Stored critic values, flattened time-major."""
        return self._values[: self._size].reshape(-1)

    @property
    def rewards(self) -> np.ndarray:
        """Stored rewards, flattened time-major."""
        return self._rewards[: self._size].reshape(-1)

    @property
    def dones(self) -> np.ndarray:
        """Stored done flags, flattened time-major."""
        return self._dones[: self._size].reshape(-1)

    def clear(self) -> None:
        """Reset for the next rollout."""
        self._size = 0
