"""Uplift-modeling baselines: OR, IPS, and DR estimators (§V-A).

The paper compares ECT-Price against three traditional uplift approaches,
all built on NCF base models:

* **OR** (outcome regression, "two-model"): fit ``μ₁(X) ≈ E[Y | T=1, X]``
  on treated items and ``μ₀(X) ≈ E[Y | T=0, X]`` on controls; the uplift is
  ``μ₁ − μ₀``.
* **IPS** (inverse propensity scoring): fit a propensity model ``e(X)``,
  form the transformed outcome ``Z = Y·T/e − Y·(1−T)/(1−e)`` (whose
  conditional expectation is the uplift under unconfoundedness), and
  regress ``Z`` on ``X``.
* **DR** (doubly robust): combine both — the pseudo-outcome
  ``Z = μ₁ − μ₀ + T(Y−μ₁)/e − (1−T)(Y−μ₀)/(1−e)`` is regressed on ``X``.

All three estimate only the *treatment effect* and cannot separate the
"Always Buyer" stratum (the paper's core criticism): an always-charging
item has near-zero uplift but high outcome levels, and under the
generator's confounding its estimated uplift is biased upward, so these
baselines waste discounts on Always items — visible in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NotFittedError
from .dataset import PricingDataset
from .ncf import NcfConfig, NcfRegressor

#: Propensity estimates are clipped into this band before inverting.
PROPENSITY_CLIP = (0.02, 0.98)

#: NCF models per baseline under the equal-total-compute protocol: each of
#: a method's models trains for ``epochs // MODELS_PER_METHOD[name]``
#: epochs. IPS counts 3 though it fits 2 towers (propensity and effect);
#: the count stays, as every pricing export depends on it.
MODELS_PER_METHOD = {"OR": 2, "IPS": 3, "DR": 4}


@dataclass(frozen=True)
class UpliftPrediction:
    """Per-item outputs every baseline exposes for the discount policy.

    ``uplift`` estimates ``P(Y=1|do(T=1),X) − P(Y=1|do(T=0),X)``;
    ``baseline_outcome`` estimates ``P(Y=1|do(T=0),X)`` (the "always"
    signal, available only for OR and DR which model outcomes directly).
    """

    uplift: np.ndarray
    baseline_outcome: np.ndarray | None


class UpliftModel:
    """Interface shared by the OR / IPS / DR estimators."""

    name: str = "uplift"

    def fit(self, dataset: PricingDataset) -> None:
        """Train on observational data."""
        raise NotImplementedError

    def predict(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> UpliftPrediction:
        """Per-item uplift estimates."""
        raise NotImplementedError


class OutcomeRegression(UpliftModel):
    """The two-model OR estimator."""

    name = "OR"

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or NcfConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self._mu1 = NcfRegressor(n_stations, n_time_ids, self.config, rng, binary=True)
        self._mu0 = NcfRegressor(n_stations, n_time_ids, self.config, rng, binary=True)
        self._fitted = False

    def fit(self, dataset: PricingDataset) -> None:
        treated = dataset.treated == 1
        if not treated.any() or treated.all():
            raise ConfigError("OR requires both treated and control items")
        t_set = dataset.subset(treated)
        c_set = dataset.subset(~treated)
        self._mu1.fit(t_set.station_ids, t_set.time_ids, t_set.charged)
        self._mu0.fit(c_set.station_ids, c_set.time_ids, c_set.charged)
        self._fitted = True

    def predict(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> UpliftPrediction:
        if not self._fitted:
            raise NotFittedError("OutcomeRegression.predict called before fit")
        mu1 = self._mu1.predict(station_ids, time_ids)
        mu0 = self._mu0.predict(station_ids, time_ids)
        return UpliftPrediction(uplift=mu1 - mu0, baseline_outcome=mu0)


class InversePropensityScoring(UpliftModel):
    """The transformed-outcome IPS estimator."""

    name = "IPS"

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or NcfConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self._propensity = NcfRegressor(
            n_stations, n_time_ids, self.config, rng, binary=True
        )
        self._effect = NcfRegressor(
            n_stations, n_time_ids, self.config, rng, binary=False
        )
        self._fitted = False

    def fit(self, dataset: PricingDataset) -> None:
        self._propensity.fit(dataset.station_ids, dataset.time_ids, dataset.treated)
        e = np.clip(
            self._propensity.predict(dataset.station_ids, dataset.time_ids),
            *PROPENSITY_CLIP,
        )
        y = dataset.charged.astype(float)
        t = dataset.treated.astype(float)
        transformed = y * t / e - y * (1.0 - t) / (1.0 - e)
        self._effect.fit(dataset.station_ids, dataset.time_ids, transformed)
        self._fitted = True

    def predict(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> UpliftPrediction:
        if not self._fitted:
            raise NotFittedError("InversePropensityScoring.predict called before fit")
        return UpliftPrediction(
            uplift=self._effect.predict(station_ids, time_ids),
            baseline_outcome=None,
        )


class DoublyRobust(UpliftModel):
    """The AIPW / doubly-robust estimator."""

    name = "DR"

    def __init__(
        self,
        n_stations: int,
        n_time_ids: int,
        config: NcfConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or NcfConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self._mu1 = NcfRegressor(n_stations, n_time_ids, self.config, rng, binary=True)
        self._mu0 = NcfRegressor(n_stations, n_time_ids, self.config, rng, binary=True)
        self._propensity = NcfRegressor(
            n_stations, n_time_ids, self.config, rng, binary=True
        )
        self._effect = NcfRegressor(
            n_stations, n_time_ids, self.config, rng, binary=False
        )
        self._fitted = False

    def fit(self, dataset: PricingDataset) -> None:
        treated = dataset.treated == 1
        if not treated.any() or treated.all():
            raise ConfigError("DR requires both treated and control items")
        t_set = dataset.subset(treated)
        c_set = dataset.subset(~treated)
        self._mu1.fit(t_set.station_ids, t_set.time_ids, t_set.charged)
        self._mu0.fit(c_set.station_ids, c_set.time_ids, c_set.charged)
        self._propensity.fit(dataset.station_ids, dataset.time_ids, dataset.treated)

        e = np.clip(
            self._propensity.predict(dataset.station_ids, dataset.time_ids),
            *PROPENSITY_CLIP,
        )
        mu1 = self._mu1.predict(dataset.station_ids, dataset.time_ids)
        mu0 = self._mu0.predict(dataset.station_ids, dataset.time_ids)
        y = dataset.charged.astype(float)
        t = dataset.treated.astype(float)
        pseudo = (
            mu1
            - mu0
            + t * (y - mu1) / e
            - (1.0 - t) * (y - mu0) / (1.0 - e)
        )
        self._effect.fit(dataset.station_ids, dataset.time_ids, pseudo)
        self._fitted = True

    def predict(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> UpliftPrediction:
        if not self._fitted:
            raise NotFittedError("DoublyRobust.predict called before fit")
        mu0 = self._mu0.predict(station_ids, time_ids)
        return UpliftPrediction(
            uplift=self._effect.predict(station_ids, time_ids),
            baseline_outcome=mu0,
        )


def make_baseline(
    name: str,
    n_stations: int,
    n_time_ids: int,
    config: NcfConfig | None = None,
    rng: np.random.Generator | None = None,
) -> UpliftModel:
    """Factory keyed by the paper's method names (OR / IPS / DR)."""
    classes = {
        "OR": OutcomeRegression,
        "IPS": InversePropensityScoring,
        "DR": DoublyRobust,
    }
    if name not in classes:
        raise ConfigError(f"unknown baseline {name!r}; expected one of {sorted(classes)}")
    return classes[name](n_stations, n_time_ids, config, rng)
