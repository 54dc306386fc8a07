"""Edge-case coverage across packages: windows, ledgers, schedules, misc."""

from __future__ import annotations

import numpy as np
import pytest
import tape

from repro.causal import EctPriceConfig, EctPriceModel, EctPricePolicy
from repro.causal.policy import discount_schedule_for_hub
from repro.errors import ConfigError, ModelError
from repro.hub import CostBook, ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.rl import EctHubEnv, EnvConfig
from repro.rng import RngFactory
from repro.synth.charging import ChargingBehaviorModel, ChargingConfig
from repro.causal.dataset import dataset_from_log


class TestEnvWindows:
    def test_window_edge_padding(self, factory):
        """State windows at the horizon edge are edge-padded, not truncated."""
        config = ScenarioConfig(n_hours=24 * 35)
        scenario = build_fleet_scenarios(config, factory)[0]
        behavior = fleet_behavior_model(config, factory)
        env = EctHubEnv(
            scenario,
            behavior,
            np.zeros(scenario.n_hours),
            config=EnvConfig(episode_days=35, random_initial_soc=False),
            rng=factory.stream("edge"),
        )
        state = env.reset()
        # Walk to the second-to-last slot; the observation must stay full-size.
        for _ in range(env.episode_length - 1):
            state, _, done, _ = env.step(0)
        assert not done or state.shape == (env.state_dim(),)

    def test_fixed_initial_soc(self, factory):
        config = ScenarioConfig(n_hours=24 * 30)
        scenario = build_fleet_scenarios(config, factory)[0]
        behavior = fleet_behavior_model(config, factory)
        env = EctHubEnv(
            scenario,
            behavior,
            np.zeros(scenario.n_hours),
            config=EnvConfig(episode_days=30, random_initial_soc=False),
            rng=factory.stream("soc"),
        )
        socs = {round(env.reset()[-1], 6) for _ in range(3)}
        assert len(socs) == 1


class TestCostBookEdges:
    def test_empty_book(self):
        book = CostBook()
        assert book.profit == 0.0
        assert book.daily_rewards() == []

    def test_daily_rewards_partial_day(self):
        from repro.hub import compute_slot_ledger

        book = CostBook()
        for slot in range(30):  # 1.25 days
            book.add(
                compute_slot_ledger(
                    slot=slot, action=0, p_bs_kw=1.0, p_cs_kw=0.0, p_bp_kw=0.0,
                    p_pv_kw=0.0, p_wt_kw=0.0, p_grid_kw=1.0, surplus_kw=0.0,
                    rtp_kwh=0.1, srtp_kwh=0.4, soc_kwh=10.0,
                    c_bp_per_slot=0.01, dt_h=1.0,
                )
            )
        rewards = book.daily_rewards()
        assert len(rewards) == 2
        assert sum(rewards) == pytest.approx(book.profit)

    def test_daily_rewards_bad_slots(self):
        from repro.errors import HubError

        with pytest.raises(HubError):
            CostBook().daily_rewards(slots_per_day=0)


class TestDiscountSchedules:
    def test_schedule_values_and_budget(self, factory):
        behavior = ChargingBehaviorModel(ChargingConfig(), factory)
        log = behavior.simulate_log(40)
        ds = dataset_from_log(log, n_stations=12)
        model = EctPriceModel(
            12, 48, EctPriceConfig(epochs=2, batch_size=512), factory.stream("m")
        )
        model.fit(ds)
        time_ids = np.arange(24 * 14) % 24
        schedule = discount_schedule_for_hub(
            EctPricePolicy(model), 0, time_ids,
            discount_level=0.3, budget_fraction=0.1,
        )
        assert set(np.unique(schedule)) <= {0.0, 0.3}
        assert (schedule > 0).sum() <= int(round(0.1 * len(time_ids)))

    def test_invalid_level(self, factory):
        with pytest.raises(ConfigError):
            discount_schedule_for_hub(
                object(), 0, np.zeros(4, dtype=int), discount_level=1.0
            )


class TestNnEdges:
    """Edge cases of the autograd tape the fused passes are tested against."""

    def test_concat_empty_rejected(self):
        with pytest.raises(ModelError):
            tape.concat([])

    def test_stack_empty_rejected(self):
        with pytest.raises(ModelError):
            tape.stack([])

    def test_gather_rows_rejects_2d_indices(self, rng):
        t = tape.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with pytest.raises(ModelError):
            t.gather_rows(np.zeros((2, 2), dtype=int))

    def test_pow_rejects_tensor_exponent(self, rng):
        t = tape.Tensor(rng.normal(size=3))
        with pytest.raises(ModelError):
            t ** tape.Tensor(np.ones(3))  # type: ignore[operator]

    def test_log_floors_non_positive(self):
        out = tape.Tensor(np.array([0.0, -1.0])).log().numpy()
        assert np.all(np.isfinite(out))


class TestBehaviorModelEdges:
    def test_zero_day_log(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        log = model.simulate_log(0)
        assert len(log) == 0
        assert log.n_sessions == 0

    def test_negative_days_rejected(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        with pytest.raises(ConfigError):
            model.simulate_log(-1)

    def test_subset_of_stations(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        log = model.simulate_log(5, stations=[2, 7])
        assert set(np.unique(log.station_id)) == {2, 7}

    def test_activity_map_in_bounds(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        act = model.cell_activity_map()
        assert act.min() >= 0.15 and act.max() <= 0.98

    def test_confounder_raises_always_activity(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        hours = np.arange(24)
        low = model.stratum_probabilities(0, hours, confounder=-0.2)
        high = model.stratum_probabilities(0, hours, confounder=0.2)
        assert high[:, 2].sum() > low[:, 2].sum()
