"""ECT-Price: the CF-MTL counterfactual stratification model (§IV-A).

Two NCF-style towers trained jointly on observational (X, T, Y) data:

* a **stratification task** predicting the strata probabilities
  ``(f00, f01, f11)`` = P(No Charge), P(Incentive Charge), P(Always Charge)
  as a 3-way softmax head (Fig. 9's three outputs);
* a **propensity task** predicting ``g(X) = P(T=1 | X)``.

Counterfactual identification (Eqs. 13–16) ties products of the two tasks'
outputs to observable cell indicators. Two loss forms are provided:

* ``loss_form="nll"`` (default) — the maximum-likelihood form: the four
  observation cells partition the outcome space, so we minimise the
  categorical negative log-likelihood of the realised cell, with the three
  strata as a softmax head. Statistically efficient (it is the MLE of the
  same identification).
* ``loss_form="mse"`` — the paper's Eq. 23 as printed: a sum of MSE terms
  between probability products and cell indicators. Kept for paper-exact
  comparison; converges noticeably slower (see EXPERIMENTS.md).

The identification table both forms encode:

====  ==========================  =====================
loss  prediction                  observation indicator
====  ==========================  =====================
L1    ``f00 · g``                 ``Y=0 & T=1``
L2    ``f11 · (1−g)``             ``Y=1 & T=0``
L3    ``(f01 + f11) · g``         ``Y=1 & T=1``
L4    ``(f00 + f01) · (1−g)``     ``Y=0 & T=0``
Lp    ``g``                       ``T=1``
====  ==========================  =====================

Note on L4: the paper's Eq. 16/21 prints ``f00 + f11`` for the
``(Y=0, T=0)`` cell, but an untreated *Always* item charges (Y=1) while an
untreated *Incentive* item does not — the cell is reached by None and
Incentive, i.e. ``f00 + f01`` (equivalently ``1 − f11``, the complement of
Eq. 14). We default to the corrected identity; ``paper_eq16_compat=True``
reproduces the printed loss (``loss_form="mse"``) for comparison. The NLL
form always uses the corrected cell: only then do the four cells
partition the outcomes.

Architecture: one shared NCF (NeuMF) trunk with four heads — three strata
plus the propensity. The paper states "the two tasks in ECT-Price use NCF
as base models" (§V-A) and stresses "the multi-task learning approach";
sharing the embeddings/trunk is what gives CF-MTL its efficiency edge over
the OR baseline, whose μ₁/μ₀ models each see only their own treatment arm
(roughly half the data per parameter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..errors import ConfigError, NotFittedError
from ..synth.charging import Stratum
from .dataset import PricingDataset
from .ncf import NcfConfig, NcfNetwork


@dataclass(frozen=True)
class EctPriceConfig:
    """Hyperparameters of the CF-MTL model.

    Adam at the paper's §V-A learning rate (0.01), at CPU-friendly sizes.
    The defaults depart from §V-A's weight decay 1e-4 and batch 64: no
    weight decay, and batch 128.
    """

    embedding_dim: int = 8
    hidden_sizes: tuple[int, ...] = (32, 16)
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    batch_size: int = 128
    epochs: int = 30
    loss_form: str = "nll"
    paper_eq16_compat: bool = False

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ConfigError("embedding_dim must be positive")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigError("hidden sizes must be positive")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive and finite")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative and finite")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigError("batch_size and epochs must be positive")
        if self.loss_form not in ("nll", "mse"):
            raise ConfigError(
                f"loss_form must be 'nll' or 'mse', got {self.loss_form!r}"
            )


def _shared_network(
    n_stations: int,
    n_time_ids: int,
    config: EctPriceConfig,
    rng: np.random.Generator,
) -> NcfNetwork:
    """The shared multi-task NCF: heads [f00, f01, f11, g]."""
    ncf_config = NcfConfig(
        embedding_dim=config.embedding_dim,
        hidden_sizes=config.hidden_sizes,
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
        batch_size=config.batch_size,
        epochs=config.epochs,
    )
    return NcfNetwork(n_stations, n_time_ids, ncf_config, rng, n_outputs=4)


#: The (charged, treated) values of the identification cells L1..L4.
_CELL_CHARGED = np.array([0.0, 1.0, 1.0, 0.0])
_CELL_TREATED = np.array([1.0, 0.0, 1.0, 0.0])


def _cells(treated: np.ndarray, charged: np.ndarray) -> np.ndarray:
    """``(n, 4)`` float indicators of each item's cell among L1..L4."""
    charged = np.asarray(charged, dtype=float)
    return (
        (charged[:, None] == _CELL_CHARGED) & (treated[:, None] == _CELL_TREATED)
    ).astype(float)


class EctPriceModel:
    """The jointly-trained stratification + propensity model."""

    #: Softmax column order, aligned with the :class:`Stratum` enum.
    STRATA_ORDER = (Stratum.NONE, Stratum.INCENTIVE, Stratum.ALWAYS)

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: EctPriceConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or EctPriceConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.network = _shared_network(n_stations, n_time_ids, self.config, self._rng)
        self._optimizer = nn.Adam(
            self.network.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self._fitted = False

    # ------------------------------------------------------------------ #
    # Loss (Eq. 23)                                                        #
    # ------------------------------------------------------------------ #

    def loss(
        self,
        logits: np.ndarray,
        treated: np.ndarray,
        charged: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """The joint objective on one batch's ``(batch, 4)`` logits (Eq. 23
        or its MLE form) and its d(logits), as a numpy head (see
        :mod:`repro.nn.heads` for the rules that keep it bitwise the
        tape's).

        Columns 0–2 are the strata logits (a softmax gives f00, f01, f11),
        column 3 the propensity logit (a sigmoid gives g). The four
        identification cells L1..L4 are the columns of ``(batch, 4)``
        blocks: each cell's strata factor, its propensity factor (g or
        1 − g), their product (the prediction) and the cell's indicator.
        Cross-cell sums keep the tape's order: L1, L2, L3, L4 (and Lp).
        """
        treated = np.asarray(treated, dtype=float)
        return self._cell_loss(logits, treated, _cells(treated, charged))

    def _cell_loss(
        self, logits: np.ndarray, treated: np.ndarray, cells: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """:meth:`loss` from float ``treated`` and the ``(batch, 4)`` cell
        indicators of :func:`_cells`."""
        batch = logits.shape[0]
        log_strata = nn.kernels.log_softmax(logits[:, :3])
        strata = np.exp(np.clip(log_strata, -nn.kernels.EXP_CLIP, nn.kernels.EXP_CLIP))
        g = nn.kernels.sigmoid(logits[:, 3])
        # The printed L4 applies to the printed Eq. 23 only: the NLL form
        # needs cells that partition the outcomes.
        compat = self.config.paper_eq16_compat and self.config.loss_form == "mse"
        # Strata factors f00, f11, f01 + f11 and f00 + f01 (f00 + f11 as
        # printed), propensity factors g, 1 - g, g, 1 - g.
        factors = np.empty((batch, 4))
        factors[:, :2] = strata[:, ::2]
        np.add(strata[:, 1], strata[:, 2], out=factors[:, 2])
        np.add(strata[:, 0], strata[:, 2 if compat else 1], out=factors[:, 3])
        gates = np.empty((batch, 4))
        gates[:, 0] = g
        np.subtract(1.0, g, out=gates[:, 1])
        gates[:, 2:] = gates[:, :2]
        not_g = gates[:, 1]
        preds = factors * gates
        # Every entry of the mean's gradient (a full array of 1 / batch).
        w = 1.0 / batch

        if self.config.loss_form == "nll":
            safe = np.maximum(np.clip(preds, 1e-9, 1.0), 1e-12)
            terms = cells * np.log(safe)
            nll = -(((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3])
            loss = float(nll.sum() * (1.0 / batch))
            inside = (preds > 1e-9) & (preds < 1.0)
            d_preds = ((-w * cells) / safe) * inside
            d_propensity = None
        else:
            diff = preds - cells
            squares = diff * diff
            l1, l2, l3, l4 = (squares[:, k].sum() * (1.0 / batch) for k in range(4))
            diff_propensity = g - treated
            lp = (diff_propensity * diff_propensity).sum() * (1.0 / batch)
            loss = float((((l1 + l2) + l3) + l4) + lp)
            half = w * diff
            d_preds = half + half
            half_propensity = w * diff_propensity
            d_propensity = half_propensity + half_propensity

        # d(g): L1 and L3 enter through g, L2 and L4 through 1 - g.
        via_g = d_preds * factors
        d_g = ((via_g[:, 0] - via_g[:, 1]) + via_g[:, 2]) - via_g[:, 3]
        if d_propensity is not None:
            d_g += d_propensity
        # d(strata factor) per cell: d1·g, d2·(1-g), d(f01+f11), d(sum4).
        via_f = d_preds * gates
        d_strata = np.empty((batch, 3))
        np.add(via_f[:, 0], via_f[:, 3], out=d_strata[:, 0])
        if compat:
            d_strata[:, 1] = via_f[:, 2]
            np.add(via_f[:, 1], via_f[:, 2], out=d_strata[:, 2])
            d_strata[:, 2] += via_f[:, 3]
        else:
            np.add(via_f[:, 2], via_f[:, 3], out=d_strata[:, 1])
            np.add(via_f[:, 1], via_f[:, 2], out=d_strata[:, 2])
        d_log_strata = d_strata * strata
        d_logits = np.empty((batch, 4))
        d_logits[:, :3] = d_log_strata - np.exp(log_strata) * (
            nn.kernels.row_sum(d_log_strata)[:, None]
        )
        d_logits[:, 3] = d_g * g * not_g
        d_logits += 0.0
        return loss, d_logits

    # ------------------------------------------------------------------ #
    # Training                                                             #
    # ------------------------------------------------------------------ #

    def fit(self, dataset: PricingDataset) -> list[float]:
        """Joint minimisation of Eq. 23; returns per-epoch mean losses."""
        treated = np.asarray(dataset.treated, dtype=float)
        history = self.network.fit(
            self._optimizer,
            self._rng,
            dataset.station_ids,
            dataset.time_ids,
            [treated, _cells(treated, dataset.charged)],
            self._cell_loss,
            batch_size=self.config.batch_size,
            epochs=self.config.epochs,
        )
        self._fitted = True
        return history

    # ------------------------------------------------------------------ #
    # Inference                                                            #
    # ------------------------------------------------------------------ #

    def predict_strata(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        """(n, 3) strata probabilities ordered [None, Incentive, Always]."""
        if not self._fitted:
            raise NotFittedError("EctPriceModel.predict_strata called before fit")
        strata = self.network(station_ids, time_ids)[:, :3]
        shifted = np.exp(strata - strata.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)
