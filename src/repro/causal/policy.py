"""Discount policies: turning model outputs into per-item decisions.

Protocol (reverse-engineered from Table II — see DESIGN.md §5): every
method ranks the test items by its own *expected discount reward* score and
discounts the top items under a **fixed shared budget** (all Table II rows
sum to the same 8,426 items), excluding items whose score is non-positive
(which is why OR's selection shrinks at 50–60 % discounts: its expected
reward ``û − c·(1 − û)`` goes negative for more items as ``c`` grows).

Scores
------
For an item with estimated probability ``p`` of being *Incentive Charge*
(ECT-Price) or estimated uplift ``u`` (baselines, clipped to [0, 1]), the
expected reward of discounting at level ``c`` under the Table II metric is

``score = p − c · (1 − p)``

— a correct incentive costs nothing and earns 1; anything else wastes ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..synth.charging import Stratum
from .baselines import UpliftModel
from .ect_price import EctPriceModel


@dataclass(frozen=True)
class DiscountDecision:
    """Per-item boolean decisions plus the scores behind them."""

    discounted: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        if self.discounted.shape != self.score.shape:
            raise ConfigError("discounted and score must share a shape")

    @property
    def n_discounted(self) -> int:
        """How many items receive a discount."""
        return int(self.discounted.sum())


def expected_discount_reward(
    incentive_probability: np.ndarray, discount_level: float
) -> np.ndarray:
    """Table II expected reward of discounting: ``p − c·(1 − p)``."""
    if not 0.0 <= discount_level < 1.0:
        raise ConfigError(f"discount_level must be in [0, 1), got {discount_level}")
    p = np.clip(np.asarray(incentive_probability, dtype=float), 0.0, 1.0)
    return p - discount_level * (1.0 - p)


def select_with_budget(score: np.ndarray, budget: int | None) -> np.ndarray:
    """Boolean mask of items to discount: positive scores, top-``budget``.

    ``budget=None`` keeps every positive-score item (no cap).
    """
    score = np.asarray(score, dtype=float)
    positive = score > 0.0
    if budget is None or positive.sum() <= budget:
        return positive
    if budget < 0:
        raise ConfigError(f"budget must be non-negative, got {budget}")
    mask = np.zeros(len(score), dtype=bool)
    if budget == 0:
        return mask
    # Highest-score positive items first; stable under ties via argsort.
    candidate_idx = np.flatnonzero(positive)
    order = candidate_idx[np.argsort(-score[candidate_idx], kind="stable")]
    mask[order[:budget]] = True
    return mask


def _apply_score_offset(
    score: np.ndarray, score_offset: np.ndarray | None
) -> np.ndarray:
    """Subtract a per-item penalty (e.g. feeder congestion) from scores."""
    if score_offset is None:
        return score
    offset = np.asarray(score_offset, dtype=float)
    if offset.shape != score.shape:
        raise ConfigError(
            f"score_offset shape {offset.shape} does not match the "
            f"{score.shape} item set"
        )
    return score - offset


class DiscountPolicy:
    """Interface: items in, discount decisions out."""

    name: str = "policy"

    def incentive_probability(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        """Each method's estimate of P(item is Incentive Charge)."""
        raise NotImplementedError

    def decide(
        self,
        station_ids: np.ndarray,
        time_ids: np.ndarray,
        *,
        discount_level: float = 0.0,
        budget: int | None = None,
        score_offset: np.ndarray | None = None,
    ) -> DiscountDecision:
        """Budgeted reward-ranked selection (the Table II protocol).

        ``score_offset`` is subtracted from every item's score before
        selection — the feeder-aware congestion penalty's entry point.
        ``None`` leaves the protocol untouched.
        """
        p = self.incentive_probability(station_ids, time_ids)
        score = expected_discount_reward(p, discount_level)
        score = _apply_score_offset(score, score_offset)
        return DiscountDecision(
            discounted=select_with_budget(score, budget), score=score
        )


class EctPricePolicy(DiscountPolicy):
    """ECT-Price: rank by the CF-MTL's predicted Incentive probability and
    explicitly *avoid Always Charge* items.

    The stratification head estimates P(Always) per item — information the
    uplift baselines do not have — and the paper's rule "gives discounts …
    to the Incentive Charge [items] and avoids the Always Charge [items]"
    is implemented as a hard veto on items whose predicted Always
    probability exceeds ``always_avoidance_threshold``.
    """

    name = "Ours"

    def __init__(
        self,
        model: EctPriceModel,
        *,
        always_avoidance_threshold: float = 0.5,
    ) -> None:
        if not 0.0 < always_avoidance_threshold <= 1.0:
            raise ConfigError(
                "always_avoidance_threshold must be in (0, 1], got "
                f"{always_avoidance_threshold}"
            )
        self.model = model
        self.always_avoidance_threshold = float(always_avoidance_threshold)

    def incentive_probability(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        probs = self.model.predict_strata(station_ids, time_ids)
        return probs[:, int(Stratum.INCENTIVE)]

    def decide(
        self,
        station_ids: np.ndarray,
        time_ids: np.ndarray,
        *,
        discount_level: float = 0.0,
        budget: int | None = None,
        score_offset: np.ndarray | None = None,
    ) -> DiscountDecision:
        probs = self.model.predict_strata(station_ids, time_ids)
        p_inc = probs[:, int(Stratum.INCENTIVE)]
        p_alw = probs[:, int(Stratum.ALWAYS)]
        score = expected_discount_reward(p_inc, discount_level)
        score = np.where(p_alw > self.always_avoidance_threshold, -1.0, score)
        score = _apply_score_offset(score, score_offset)
        return DiscountDecision(
            discounted=select_with_budget(score, budget), score=score
        )


class UpliftPolicy(DiscountPolicy):
    """Baselines: the estimated uplift stands in for P(Incentive)."""

    def __init__(self, model: UpliftModel) -> None:
        self.model = model
        self.name = model.name

    def incentive_probability(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        prediction = self.model.predict(station_ids, time_ids)
        return np.clip(prediction.uplift, 0.0, 1.0)


class EveningHeuristicPolicy(DiscountPolicy):
    """The operators' rule of thumb: discount the evening hours.

    This is the heuristic the historical logging policy leaned on
    (:meth:`~repro.synth.charging.ChargingBehaviorModel.propensity` boosts
    18:00–24:00) — the learned-vs-heuristic reference point for the
    fleet-scale pricing comparison. Time ids may carry the weekend
    crossing; only the hour-of-day component matters here.
    """

    name = "Evening"

    def __init__(self, evening_hours: tuple[int, int] = (18, 24)) -> None:
        start, end = evening_hours
        if not 0 <= start < end <= 24:
            raise ConfigError(
                f"evening_hours must satisfy 0 <= start < end <= 24, got "
                f"{evening_hours}"
            )
        self.evening_hours = (int(start), int(end))

    def incentive_probability(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        start, end = self.evening_hours
        hours = np.asarray(time_ids, dtype=int) % 24
        return ((hours >= start) & (hours < end)).astype(float)


class OraclePolicy(DiscountPolicy):
    """Upper bound: knows the true strata (synthetic-data oracle)."""

    name = "Oracle"

    def __init__(self, true_strata: np.ndarray) -> None:
        self._strata = np.asarray(true_strata, dtype=int)

    def incentive_probability(
        self, station_ids: np.ndarray, time_ids: np.ndarray
    ) -> np.ndarray:
        if len(station_ids) != len(self._strata):
            raise ConfigError(
                "OraclePolicy was built for a different item set "
                f"({len(self._strata)} vs {len(station_ids)})"
            )
        return (self._strata == int(Stratum.INCENTIVE)).astype(float)


def discount_schedule_for_hub(
    policy: DiscountPolicy,
    station_id: int,
    time_ids_by_slot: np.ndarray,
    *,
    discount_level: float,
    budget_fraction: float | None = None,
    score_offset: np.ndarray | None = None,
) -> np.ndarray:
    """Per-slot discount fractions for one hub under a trained policy.

    ``time_ids_by_slot`` maps each simulation slot to its time-feature id;
    the returned array is the hub's :class:`~repro.fleet.inputs.FleetInputs`
    discount row.
    ``budget_fraction`` optionally caps the share of slots discounted.
    ``score_offset`` (per slot) penalizes slots before selection — the
    feeder-congestion signal of the fleet pricing loop.
    """
    if not 0.0 <= discount_level < 1.0:
        raise ConfigError(f"discount_level must be in [0, 1), got {discount_level}")
    time_ids = np.asarray(time_ids_by_slot, dtype=int)
    stations = np.full(len(time_ids), station_id, dtype=int)
    budget = (
        None
        if budget_fraction is None
        else int(round(budget_fraction * len(time_ids)))
    )
    decision = policy.decide(
        stations,
        time_ids,
        discount_level=discount_level,
        budget=budget,
        score_offset=score_offset,
    )
    return np.where(decision.discounted, discount_level, 0.0)
