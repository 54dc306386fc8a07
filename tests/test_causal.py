"""Tests for ECT-Price, baselines, policies, and the Table II metric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.causal import (
    DiscountDecision,
    EctPriceConfig,
    EctPriceModel,
    EctPricePolicy,
    EveningHeuristicPolicy,
    NcfConfig,
    NcfRegressor,
    OraclePolicy,
    PricingDataset,
    UpliftPolicy,
    dataset_from_log,
    ground_truth_labels,
    heuristic_strata_labels,
    label_agreement,
    make_baseline,
    pretrain_rating_model,
    render_table,
    score_decision,
    time_ids_for_slots,
    train_test_split_by_day,
)
from repro.causal.baselines import PROPENSITY_CLIP
from repro.causal.policy import expected_discount_reward, select_with_budget
from repro.errors import ConfigError, DataError, NotFittedError
from repro.nn import kernels
from repro.rng import RngFactory
from repro.synth.charging import ChargingBehaviorModel, ChargingConfig, Stratum


@pytest.fixture(scope="module")
def small_log():
    model = ChargingBehaviorModel(ChargingConfig(), RngFactory(seed=77))
    return model.simulate_log(40), model


@pytest.fixture(scope="module")
def small_split(small_log):
    log, _ = small_log
    return train_test_split_by_day(log, n_stations=12, boundary_day=25)


class TestDataset:
    def test_from_log_layout(self, small_log):
        log, _ = small_log
        ds = dataset_from_log(log, n_stations=12)
        assert len(ds) == len(log)
        assert ds.n_time_ids == 48
        assert ds.has_ground_truth

    def test_without_weekend_flag(self, small_log):
        log, _ = small_log
        ds = dataset_from_log(log, n_stations=12, use_weekend_flag=False)
        assert ds.n_time_ids == 24
        assert ds.time_ids.max() < 24

    def test_split_is_chronological(self, small_split):
        train, test = small_split
        assert len(train) > 0 and len(test) > 0

    def test_empty_split_rejected(self, small_log):
        log, _ = small_log
        with pytest.raises(DataError):
            train_test_split_by_day(log, n_stations=12, boundary_day=0)

    def test_subset(self, small_split):
        train, _ = small_split
        subset = train.subset(train.treated == 1)
        assert (subset.treated == 1).all()
        assert 0 < len(subset) < len(train)

    def test_invalid_ids_rejected(self):
        with pytest.raises(DataError):
            PricingDataset(
                station_ids=np.array([0, 5]),
                time_ids=np.array([0, 1]),
                treated=np.array([0, 1]),
                charged=np.array([0, 1]),
                stratum=np.array([0, 0]),
                n_stations=2,
                n_time_ids=24,
            )


class TestNcf:
    def test_regressor_learns_separable_signal(self, factory):
        rng = factory.stream("ncf")
        stations = rng.integers(0, 4, 3000)
        times = rng.integers(0, 8, 3000)
        target = ((stations + times) % 2).astype(float)
        model = NcfRegressor(4, 8, NcfConfig(epochs=20, batch_size=128), rng)
        model.fit(stations, times, target)
        pred = model.predict(stations[:500], times[:500])
        accuracy = ((pred > 0.5) == (target[:500] > 0.5)).mean()
        assert accuracy > 0.9

    def test_predict_before_fit_raises(self, factory):
        model = NcfRegressor(2, 2, NcfConfig(), factory.stream("x"))
        with pytest.raises(NotFittedError):
            model.predict(np.array([0]), np.array([0]))

    def test_pretrain_rating_model(self, small_split, factory):
        train, _ = small_split
        model = pretrain_rating_model(
            train, NcfConfig(epochs=2, batch_size=256), factory.stream("rate")
        )
        ratings = model.predict(train.station_ids[:100], train.time_ids[:100])
        assert ratings.shape == (100,)
        assert np.all((0 <= ratings) & (ratings <= 1))


class TestEctPrice:
    def test_recovers_known_cells(self):
        """CF-MTL recovers (f00, f01, f11, g) of a 2x2 exactly-known problem."""
        truth = {
            (0, 0): (0.2, 0.7, 0.1, 0.3),
            (0, 1): (0.8, 0.1, 0.1, 0.6),
            (1, 0): (0.1, 0.1, 0.8, 0.5),
            (1, 1): (0.5, 0.3, 0.2, 0.8),
        }
        rng = np.random.default_rng(0)
        rows = []
        for (s, t), (f00, f01, f11, g) in truth.items():
            for _ in range(1500):
                z = rng.choice(3, p=[f00, f01, f11])
                treated = int(rng.random() < g)
                charged = 1 if z == 2 else (treated if z == 1 else 0)
                rows.append((s, t, treated, charged, z))
        arr = np.array(rows)
        ds = PricingDataset(
            station_ids=arr[:, 0], time_ids=arr[:, 1], treated=arr[:, 2],
            charged=arr[:, 3], stratum=arr[:, 4], n_stations=2, n_time_ids=2,
        )
        model = EctPriceModel(
            2, 2, EctPriceConfig(epochs=10, batch_size=128), np.random.default_rng(1)
        )
        model.fit(ds)
        stations, times = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        probs = model.predict_strata(stations, times)
        # The propensity head P(T=1 | X) is the network's fourth logit.
        g_est = kernels.sigmoid(model.network(stations, times)[:, 3])
        for i, key in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            assert probs[i] == pytest.approx(truth[key][:3], abs=0.12)
            assert g_est[i] == pytest.approx(truth[key][3], abs=0.08)

    def test_strata_sum_to_one(self, small_split, factory):
        train, test = small_split
        model = EctPriceModel(
            12, 48, EctPriceConfig(epochs=2, batch_size=512), factory.stream("ep")
        )
        model.fit(train)
        probs = model.predict_strata(test.station_ids[:50], test.time_ids[:50])
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_predict_before_fit(self, factory):
        model = EctPriceModel(2, 2, EctPriceConfig(), factory.stream("x"))
        with pytest.raises(NotFittedError):
            model.predict_strata(np.array([0]), np.array([0]))

    def test_mse_form_trains(self, small_split, factory):
        train, _ = small_split
        model = EctPriceModel(
            12, 48,
            EctPriceConfig(epochs=2, batch_size=512, loss_form="mse"),
            factory.stream("mse"),
        )
        history = model.fit(train)
        assert history[-1] <= history[0] + 1e-6

    def test_invalid_loss_form(self):
        with pytest.raises(ConfigError):
            EctPriceConfig(loss_form="huber")


class TestBaselines:
    @pytest.mark.parametrize("name", ["OR", "IPS", "DR"])
    def test_fit_predict(self, name, small_split, factory):
        train, test = small_split
        model = make_baseline(
            name, 12, 48, NcfConfig(epochs=1, batch_size=512), factory.stream(name)
        )
        model.fit(train)
        prediction = model.predict(test.station_ids[:100], test.time_ids[:100])
        assert prediction.uplift.shape == (100,)
        assert np.all(np.isfinite(prediction.uplift))

    def test_or_exposes_baseline_outcome(self, small_split, factory):
        train, test = small_split
        model = make_baseline(
            "OR", 12, 48, NcfConfig(epochs=1, batch_size=512), factory.stream("orb")
        )
        model.fit(train)
        prediction = model.predict(test.station_ids[:10], test.time_ids[:10])
        assert prediction.baseline_outcome is not None

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError):
            make_baseline("XYZ", 2, 2)

    def test_predict_before_fit(self, factory):
        model = make_baseline("IPS", 2, 2, NcfConfig(), factory.stream("i"))
        with pytest.raises(NotFittedError):
            model.predict(np.array([0]), np.array([0]))


class TestPolicy:
    def test_expected_reward_formula(self):
        scores = expected_discount_reward(np.array([1.0, 0.0, 0.5]), 0.2)
        assert scores == pytest.approx([1.0, -0.2, 0.4])

    def test_select_with_budget_caps(self):
        score = np.array([0.9, 0.5, 0.1, -0.3])
        mask = select_with_budget(score, budget=2)
        assert mask.tolist() == [True, True, False, False]

    def test_select_without_budget_keeps_positive(self):
        score = np.array([0.9, -0.1, 0.2])
        assert select_with_budget(score, None).tolist() == [True, False, True]

    def test_select_budget_zero(self):
        assert not select_with_budget(np.array([1.0]), 0).any()

    def test_oracle_policy_perfect(self):
        strata = np.array([0, 1, 2, 1])
        policy = OraclePolicy(strata)
        decision = policy.decide(
            np.zeros(4, dtype=int), np.zeros(4, dtype=int), discount_level=0.1
        )
        assert decision.discounted.tolist() == [False, True, False, True]

    def test_oracle_wrong_length(self):
        policy = OraclePolicy(np.array([1]))
        with pytest.raises(ConfigError):
            policy.decide(np.zeros(3, dtype=int), np.zeros(3, dtype=int))

    def test_ect_price_policy_avoids_always(self, small_split, factory):
        train, test = small_split
        model = EctPriceModel(
            12, 48, EctPriceConfig(epochs=4, batch_size=512), factory.stream("pol")
        )
        model.fit(train)
        strict = EctPricePolicy(model, always_avoidance_threshold=0.2)
        lax = EctPricePolicy(model, always_avoidance_threshold=1.0)
        n = min(len(test), 5000)
        d_strict = strict.decide(
            test.station_ids[:n], test.time_ids[:n], discount_level=0.1
        )
        d_lax = lax.decide(
            test.station_ids[:n], test.time_ids[:n], discount_level=0.1
        )
        assert d_strict.discounted.sum() <= d_lax.discounted.sum()

    def test_uplift_policy_name(self, small_split, factory):
        train, _ = small_split
        model = make_baseline(
            "DR", 12, 48, NcfConfig(epochs=1, batch_size=512), factory.stream("up")
        )
        model.fit(train)
        assert UpliftPolicy(model).name == "DR"


class TestEvaluation:
    def test_reward_matches_paper_cells(self):
        """The reverse-engineered formula reproduces published Table II cells."""
        cases = [
            # (none, incentive, always, level, published_reward)
            (2078, 5936, 412, 0.1, 5687),
            (2079, 5972, 375, 0.1, 5727),
            (2053, 6066, 307, 0.1, 5830),
            (1946, 6398, 82, 0.1, 6195),
            (1990, 6373, 63, 0.2, 5963),
            (1995, 6355, 76, 0.3, 5734),
            (1969, 6330, 127, 0.6, 5072),
            (1510, 5342, 0, 0.6, 4437),
        ]
        for none, inc, alw, level, published in cases:
            decision_reward = inc - level * (none + alw)
            assert decision_reward == pytest.approx(published, abs=1.0)

    def test_score_decision_counts(self):
        strata = np.array([0, 1, 2, 1, 0])
        decision = DiscountDecision(
            discounted=np.array([True, True, True, False, False]),
            score=np.ones(5),
        )
        outcome = score_decision(decision, strata, method="t", discount_level=0.5)
        assert (outcome.n_none, outcome.n_incentive, outcome.n_always) == (1, 1, 1)
        assert outcome.reward == pytest.approx(1 - 0.5 * 2)

    def test_score_shape_mismatch(self):
        decision = DiscountDecision(discounted=np.array([True]), score=np.ones(1))
        with pytest.raises(DataError):
            score_decision(decision, np.array([0, 1]), method="t", discount_level=0.1)

    def test_render_table_contains_methods(self):
        decision = DiscountDecision(discounted=np.array([True]), score=np.ones(1))
        outcome = score_decision(
            decision, np.array([1]), method="Ours", discount_level=0.1
        )
        text = render_table([outcome])
        assert "Ours" in text and "10%" in text


class TestStrataLabels:
    def test_heuristic_labels_cover_all_strata(self, small_split, factory):
        train, _ = small_split
        labels = heuristic_strata_labels(
            train, factory.stream("lab"), ncf_config=NcfConfig(epochs=1, batch_size=512)
        )
        assert set(np.unique(labels)) <= {0, 1, 2}
        # Charged items split roughly half/half between Always and Incentive.
        charged = labels[train.charged == 1]
        assert abs((charged == int(Stratum.ALWAYS)).mean() - 0.5) < 0.2
        # Uncharged items are all None.
        assert (labels[train.charged == 0] == int(Stratum.NONE)).all()

    def test_ground_truth_accessor(self, small_split):
        train, _ = small_split
        labels = ground_truth_labels(train)
        assert np.array_equal(labels, train.stratum)

    def test_label_agreement(self):
        assert label_agreement(np.array([1, 2]), np.array([1, 0])) == 0.5
        with pytest.raises(DataError):
            label_agreement(np.array([1]), np.array([1, 2]))


class TestDatasetEdgeCases:
    """Day-split boundaries and strata availability on degenerate logs."""

    def test_single_day_log_cannot_split(self):
        model = ChargingBehaviorModel(ChargingConfig(), RngFactory(seed=3))
        log = model.simulate_log(1)
        assert len(log) > 0
        # Every boundary leaves one side empty on a one-day log.
        for boundary in (0, 1):
            with pytest.raises(DataError):
                train_test_split_by_day(
                    log, n_stations=12, boundary_day=boundary
                )
        # But it still makes a perfectly valid (unsplit) dataset.
        ds = dataset_from_log(log, n_stations=12)
        assert len(ds) == len(log)
        assert ds.time_ids.max() < ds.n_time_ids

    def test_empty_log_has_no_ground_truth(self):
        model = ChargingBehaviorModel(ChargingConfig(), RngFactory(seed=3))
        ds = dataset_from_log(model.simulate_log(0), n_stations=12)
        assert len(ds) == 0
        assert not ds.has_ground_truth
        with pytest.raises(DataError):
            ground_truth_labels(ds)

    def test_unknown_strata_have_no_ground_truth(self):
        ds = PricingDataset(
            station_ids=np.array([0, 1]),
            time_ids=np.array([0, 1]),
            treated=np.array([0, 1]),
            charged=np.array([0, 1]),
            stratum=np.array([-1, -1]),
            n_stations=2,
            n_time_ids=24,
        )
        assert not ds.has_ground_truth
        with pytest.raises(DataError):
            ground_truth_labels(ds)


class TestPropensityClip:
    """IPS/DR stay finite when the logged treatment is near-deterministic."""

    @staticmethod
    def deterministic_treatment_dataset() -> PricingDataset:
        # Treatment is a function of the time id: the raw propensity
        # estimate saturates at 0 or 1 in every cell, so only the clip
        # keeps the inverse weights bounded.
        rng = np.random.default_rng(9)
        n = 2000
        times = rng.integers(0, 8, n)
        treated = (times < 4).astype(int)
        charged = rng.integers(0, 2, n)
        return PricingDataset(
            station_ids=rng.integers(0, 3, n),
            time_ids=times,
            treated=treated,
            charged=charged,
            stratum=np.zeros(n, dtype=int),
            n_stations=3,
            n_time_ids=8,
        )

    def test_clip_band(self):
        low, high = PROPENSITY_CLIP
        assert 0.0 < low < high < 1.0

    @pytest.mark.parametrize("name", ["IPS", "DR"])
    def test_deterministic_propensity_stays_finite(self, name, factory):
        ds = self.deterministic_treatment_dataset()
        model = make_baseline(
            name, 3, 8, NcfConfig(epochs=2, batch_size=256), factory.stream(name)
        )
        model.fit(ds)
        prediction = model.predict(ds.station_ids, ds.time_ids)
        assert np.all(np.isfinite(prediction.uplift))
        # The clip bounds the transformed training targets by 1/low; the
        # fitted effect head tracks them, so predictions stay in that
        # ballpark instead of diverging with the raw inverse weights.
        assert np.abs(prediction.uplift).max() <= 2.0 / PROPENSITY_CLIP[0]


class TestOracleAgainstGroundTruth:
    def test_oracle_decisions_are_the_incentive_stratum(self, small_split):
        train, _ = small_split
        labels = ground_truth_labels(train)
        policy = OraclePolicy(labels)
        decision = policy.decide(
            train.station_ids, train.time_ids, discount_level=0.2
        )
        expected = labels == int(Stratum.INCENTIVE)
        assert np.array_equal(decision.discounted, expected)
        assert label_agreement(
            np.where(decision.discounted, int(Stratum.INCENTIVE), labels),
            labels,
        ) == 1.0


class TestEveningHeuristic:
    def test_discounts_exactly_the_evening_hours(self):
        policy = EveningHeuristicPolicy()
        time_ids = np.arange(48)  # hour x weekend crossing
        decision = policy.decide(
            np.zeros(48, dtype=int), time_ids, discount_level=0.2
        )
        hours = time_ids % 24
        assert np.array_equal(decision.discounted, (hours >= 18) & (hours < 24))

    def test_custom_window(self):
        policy = EveningHeuristicPolicy(evening_hours=(6, 9))
        probs = policy.incentive_probability(
            np.zeros(24, dtype=int), np.arange(24)
        )
        assert probs.sum() == 3.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            EveningHeuristicPolicy(evening_hours=(20, 20))
        with pytest.raises(ConfigError):
            EveningHeuristicPolicy(evening_hours=(-1, 5))


class TestScoreOffset:
    def test_offset_vetoes_selected_slots(self):
        strata = np.array([1, 1, 0, 2])
        policy = OraclePolicy(strata)
        offset = np.array([10.0, 0.0, 0.0, 0.0])
        decision = policy.decide(
            np.zeros(4, dtype=int),
            np.zeros(4, dtype=int),
            discount_level=0.2,
            score_offset=offset,
        )
        assert decision.discounted.tolist() == [False, True, False, False]

    def test_zero_offset_is_identity(self):
        strata = np.array([1, 0, 1])
        policy = OraclePolicy(strata)
        plain = policy.decide(
            np.zeros(3, dtype=int), np.zeros(3, dtype=int), discount_level=0.2
        )
        offset = policy.decide(
            np.zeros(3, dtype=int),
            np.zeros(3, dtype=int),
            discount_level=0.2,
            score_offset=np.zeros(3),
        )
        assert np.array_equal(plain.discounted, offset.discounted)

    def test_shape_mismatch_rejected(self):
        policy = OraclePolicy(np.array([1, 0]))
        with pytest.raises(ConfigError):
            policy.decide(
                np.zeros(2, dtype=int),
                np.zeros(2, dtype=int),
                score_offset=np.zeros(3),
            )


class TestTimeIdsForSlots:
    def test_matches_the_log_crossing(self):
        model = ChargingBehaviorModel(ChargingConfig(), RngFactory(seed=5))
        log = model.simulate_log(9)  # spans a weekend
        ds = dataset_from_log(log, n_stations=12)
        by_slot = time_ids_for_slots(9 * 24, calendar=model.calendar)
        assert np.array_equal(by_slot[log.slot], ds.time_ids)

    def test_without_weekend_flag(self):
        ids = time_ids_for_slots(48, use_weekend_flag=False)
        assert ids.max() < 24
        assert np.array_equal(ids, np.arange(48) % 24)
