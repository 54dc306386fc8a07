"""Neural Collaborative Filtering (He et al., WWW'17) base model.

The paper uses NCF in two roles (§V-A): as the *labeler* that pre-trains on
charging records to split charged items into Always/Incentive strata, and as
the base model of every pricing method ("All the baselines and the two tasks
in ECT-Price use NCF as base models").

The architecture follows NeuMF: a GMF path (element-wise product of station
and time embeddings) in parallel with an MLP path (concatenated embeddings
through hidden layers), fused into one logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .. import nn
from ..errors import ConfigError, NotFittedError
from .dataset import PricingDataset


@dataclass(frozen=True)
class NcfConfig:
    """Hyperparameters of an NCF tower.

    Defaults follow the paper's training setup (§V-A: Adam, lr 0.01, weight
    decay 1e-4, batch 64) at CPU-friendly widths.
    """

    embedding_dim: int = 8
    hidden_sizes: tuple[int, ...] = (32, 16)
    learning_rate: float = 0.01
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 5

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ConfigError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigError("hidden sizes must be positive")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive and finite")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative and finite")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigError("batch_size and epochs must be positive")


class NcfNetwork(nn.Module):
    """The NeuMF network: GMF ⊕ MLP over (station, time) embeddings."""

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig,
        rng: np.random.Generator,
        *,
        n_outputs: int = 1,
    ) -> None:
        dim = config.embedding_dim
        self.station_gmf = nn.Embedding(n_stations, dim, rng)
        self.time_gmf = nn.Embedding(n_time_ids, dim, rng)
        self.station_mlp = nn.Embedding(n_stations, dim, rng)
        self.time_mlp = nn.Embedding(n_time_ids, dim, rng)
        self.mlp = nn.MLP((2 * dim, *config.hidden_sizes), rng)
        fused = dim + config.hidden_sizes[-1]
        self.head = nn.Linear(fused, n_outputs, rng)

    def forward(self, station_ids: np.ndarray, time_ids: np.ndarray) -> np.ndarray:
        """Raw logits of shape (batch, n_outputs)."""
        return self.forward_cached(station_ids, time_ids)[0]

    def forward_cached(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> tuple[np.ndarray, tuple]:
        """Logits plus the cache :meth:`backward` consumes (fused numpy pass).

        Each id array is range-checked once: the GMF and MLP tables of a
        key have the same number of rows.
        """
        station_ids = self.station_gmf.check_ids(station_ids)
        time_ids = self.time_gmf.check_ids(time_ids)
        station_gmf = self.station_gmf.forward_array(station_ids)
        time_gmf = self.time_gmf.forward_array(time_ids)
        station_mlp = self.station_mlp.forward_array(station_ids)
        time_mlp = self.time_mlp.forward_array(time_ids)
        hidden, trace = self.mlp.forward_array(
            np.concatenate([station_mlp, time_mlp], axis=1)
        )
        fused = np.concatenate(
            [station_gmf * time_gmf, nn.kernels.relu(hidden)], axis=1
        )
        cache = (station_ids, time_ids, station_gmf, time_gmf, trace, fused)
        return self.head.forward_array(fused), cache

    def backward(self, cache: tuple, d_logits: np.ndarray) -> None:
        """Add every parameter's gradient from d(logits).

        The flat scatter positions of each id array are built once and
        shared by its GMF and MLP tables (both ``embedding_dim`` wide).
        """
        station_ids, time_ids, station_gmf, time_gmf, trace, fused = cache
        dim = station_gmf.shape[1]
        station_positions = nn.kernels.scatter_positions(station_ids, dim)
        time_positions = nn.kernels.scatter_positions(time_ids, dim)
        d_fused = self.head.backward_array(fused, None, d_logits)
        d_gmf = d_fused[:, :dim]
        self.station_gmf.backward_array(
            station_ids, d_gmf * time_gmf, station_positions
        )
        self.time_gmf.backward_array(time_ids, d_gmf * station_gmf, time_positions)
        d_hidden = d_fused[:, dim:] * (trace[-1] > 0)
        d_mlp_in = self.mlp.backward_array(trace, d_hidden)
        self.station_mlp.backward_array(
            station_ids, d_mlp_in[:, :dim], station_positions
        )
        self.time_mlp.backward_array(time_ids, d_mlp_in[:, dim:], time_positions)

    def fit_batch(
        self,
        optimizer: nn.Adam,
        station_ids: np.ndarray,
        time_ids: np.ndarray,
        loss_head: Callable[[np.ndarray], tuple[float, np.ndarray]],
    ) -> float:
        """One optimizer step on one batch; returns the batch loss.

        ``loss_head(logits)`` returns ``(loss, d_logits)`` (see
        :mod:`repro.nn.heads`); ``d_logits`` seeds the fused
        :meth:`backward`, so the step runs no autograd tape.
        """
        logits, cache = self.forward_cached(station_ids, time_ids)
        loss, d_logits = loss_head(logits)
        optimizer.zero_grad()
        self.backward(cache, d_logits)
        optimizer.step()
        return loss


class NcfRegressor:
    """An NCF tower trained on an arbitrary per-item target.

    Serves as the shared base learner for the OR / IPS / DR baselines:
    classification targets use a sigmoid + BCE head, continuous pseudo-
    outcomes (IPS / DR transformed outcomes) use a linear + MSE head.
    """

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig,
        rng: np.random.Generator,
        *,
        binary: bool = True,
    ) -> None:
        self.config = config
        self.binary = binary
        self.network = NcfNetwork(n_stations, n_time_ids, config, rng)
        self._optimizer = nn.Adam(
            self.network.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self._rng = rng
        self._fitted = False

    def fit(
        self, station_ids: np.ndarray, time_ids: np.ndarray, targets: np.ndarray
    ) -> list[float]:
        """Train; returns the per-epoch mean loss trajectory."""
        station_ids = np.asarray(station_ids, dtype=int)
        time_ids = np.asarray(time_ids, dtype=int)
        targets = np.asarray(targets, dtype=float).reshape(-1, 1)
        head = nn.heads.bce_with_logits if self.binary else nn.heads.mse

        history: list[float] = []
        n = len(station_ids)
        for _ in range(self.config.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, self.config.batch_size):
                idx = order[start : start + self.config.batch_size]
                epoch_loss += self.network.fit_batch(
                    self._optimizer,
                    station_ids[idx],
                    time_ids[idx],
                    partial(head, targets=targets[idx]),
                )
                n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        self._fitted = True
        return history

    def predict(self, station_ids: np.ndarray, time_ids: np.ndarray) -> np.ndarray:
        """Predicted probability (binary) or value (regression), shape (n,)."""
        if not self._fitted:
            raise NotFittedError("NcfRegressor.predict called before fit")
        logits = self.network(station_ids, time_ids)
        values = nn.kernels.sigmoid(logits) if self.binary else logits
        return values.reshape(-1)


def pretrain_rating_model(
    dataset: PricingDataset,
    config: NcfConfig,
    rng: np.random.Generator,
) -> NcfRegressor:
    """Pre-train an NCF on charged/not-charged — the paper's labeler (§V-A)."""
    model = NcfRegressor(
        dataset.n_stations, dataset.n_time_ids, config, rng, binary=True
    )
    model.fit(dataset.station_ids, dataset.time_ids, dataset.charged)
    return model
