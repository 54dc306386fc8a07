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
from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..errors import ConfigError, ModelError, NotFittedError
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


def _checked_ids(ids: np.ndarray, n_rows: int) -> np.ndarray:
    """``ids`` as a 1-D integer array; raises unless each is a row of a
    table of ``n_rows`` rows."""
    ids = np.asarray(ids, dtype=int)
    if ids.ndim != 1:
        raise ModelError(f"embedding ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ModelError(
            f"embedding ids out of range [0, {n_rows}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return ids


class NcfNetwork(nn.Module):
    """The NeuMF network: GMF ⊕ MLP over (station, time) embeddings.

    The four embedding tables are the network's first four parameters and
    all ``embedding_dim`` wide, so in parameter order they stack into one
    table, which :class:`~repro.nn.Adam` lays out at the head of its flat
    buffer. A batch reads its items' four rows each
    (:meth:`embedding_rows`) with one gather from that stack and, in
    :meth:`train_step`, returns their gradient with one scatter.
    """

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
        self._dim = dim
        self._tables = [
            self.station_gmf.weight,
            self.time_gmf.weight,
            self.station_mlp.weight,
            self.time_mlp.weight,
        ]
        self._table_size = sum(table.size for table in self._tables)
        #: Each table's first row in the stack.
        self._first_rows = np.array(
            [0, n_stations, n_stations + n_time_ids, 2 * n_stations + n_time_ids]
        )
        self._columns = np.arange(dim)

    def embedding_rows(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        """``(n, 4)``: each item's station-GMF, time-GMF, station-MLP and
        time-MLP row in the stacked tables.

        Raises :class:`ModelError` unless every id is a row of its table.
        """
        station_ids = _checked_ids(station_ids, self.station_gmf.num_embeddings)
        time_ids = _checked_ids(time_ids, self.time_gmf.num_embeddings)
        if station_ids.shape != time_ids.shape:
            raise ModelError(
                f"{len(station_ids)} station ids but {len(time_ids)} time ids"
            )
        rows = np.stack([station_ids, time_ids, station_ids, time_ids], axis=1)
        return rows + self._first_rows

    def forward(self, station_ids: np.ndarray, time_ids: np.ndarray) -> np.ndarray:
        """Raw logits of shape (batch, n_outputs)."""
        tables = np.concatenate([table.data for table in self._tables])
        rows = self.embedding_rows(station_ids, time_ids)
        return self._forward(self._gather(tables, rows))[0]

    def train_step(
        self,
        optimizer: nn.Adam,
        rows: np.ndarray,
        loss: Callable[..., tuple[float, np.ndarray]],
        targets: Sequence[np.ndarray] = (),
    ) -> float:
        """One optimizer step on a batch of items; returns the batch loss.

        ``rows`` are the items' rows of :meth:`embedding_rows`, ``optimizer``
        the :class:`~repro.nn.Adam` over this network's parameters, in
        order. ``loss(logits, *targets)`` is a numpy head returning
        ``(loss, d_logits)`` (see :mod:`repro.nn.heads`); ``d_logits``
        seeds the fused backward, which writes every gradient into the
        optimizer's flat gradient buffer, so the step runs no autograd tape.
        """
        if optimizer.parameters[:4] != self._tables:
            raise ModelError(
                "the optimizer must hold this network's embedding tables as "
                "its first four parameters"
            )
        size = self._table_size
        tables = optimizer.flat[:size].reshape(-1, self._dim)
        logits, cache = self._forward(self._gather(tables, rows))
        value, d_logits = loss(logits, *targets)
        # The flat positions of the gathered rows, in gather order.
        positions = rows[:, :, None] * self._dim + self._columns
        optimizer.flat_grad[:size] = nn.kernels.scatter_add(
            positions, self._backward(cache, d_logits), size
        )
        optimizer.step()
        return value

    def fit(
        self,
        optimizer: nn.Adam,
        rng: np.random.Generator,
        station_ids: np.ndarray,
        time_ids: np.ndarray,
        targets: Sequence[np.ndarray],
        loss: Callable[..., tuple[float, np.ndarray]],
        *,
        batch_size: int,
        epochs: int,
    ) -> list[float]:
        """Train for ``epochs``; returns the per-epoch mean batch loss.

        The ids are checked once. Each epoch draws one
        ``rng.permutation`` of the items and reorders their table rows and
        the ``targets`` columns by it, so each batch of :meth:`train_step`
        is a slice of consecutive items.
        """
        rows = self.embedding_rows(station_ids, time_ids)
        history: list[float] = []
        n = len(rows)
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_rows = rows[order]
            epoch_targets = [column[order] for column in targets]
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, batch_size):
                stop = start + batch_size
                epoch_loss += self.train_step(
                    optimizer,
                    epoch_rows[start:stop],
                    loss,
                    [column[start:stop] for column in epoch_targets],
                )
                n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        return history

    @staticmethod
    def _gather(tables: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``(batch, 4 * dim)``: each item's four table rows, side by side."""
        return tables.take(rows, axis=0).reshape(len(rows), -1)

    def _forward(self, packed: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Logits from the ``(batch, 4 * dim)`` gathered rows, plus the
        cache :meth:`_backward` consumes."""
        dim = self._dim
        hidden, trace = self.mlp.forward_array(packed[:, 2 * dim :])
        fused = np.empty((len(packed), dim + hidden.shape[1]))
        np.multiply(packed[:, :dim], packed[:, dim : 2 * dim], out=fused[:, :dim])
        active = hidden > 0
        np.multiply(hidden, active, out=fused[:, dim:])  # kernels.relu
        return self.head.forward_array(fused), (packed, trace, active, fused)

    def _backward(self, cache: tuple, d_logits: np.ndarray) -> np.ndarray:
        """Write the trunk's gradients from d(logits); return d(gathered rows)."""
        packed, trace, active, fused = cache
        dim = self._dim
        d_fused = self.head.backward_array(fused, None, d_logits)
        d_packed = np.empty_like(packed)
        # d(station GMF row) = d(gmf) * time row and vice versa: one
        # multiply against the two GMF rows in swapped order.
        gmf_rows = packed[:, : 2 * dim].reshape(-1, 2, dim)
        np.multiply(
            d_fused[:, None, :dim],
            gmf_rows[:, ::-1],
            out=d_packed[:, : 2 * dim].reshape(-1, 2, dim),
        )
        d_hidden = d_fused[:, dim:] * active
        d_packed[:, 2 * dim :] = self.mlp.backward_array(trace, d_hidden)
        return d_packed


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
        history = self.network.fit(
            self._optimizer,
            self._rng,
            station_ids,
            time_ids,
            [np.asarray(targets, dtype=float).reshape(-1, 1)],
            nn.heads.bce_with_logits if self.binary else nn.heads.mse,
            batch_size=self.config.batch_size,
            epochs=self.config.epochs,
        )
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
