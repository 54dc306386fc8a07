"""Tests for the ECT-Hub core: balance, costs, constraints, simulation.

The balance, ledger and simulation tests pin the scalar engine frozen in
``tests/scalar_oracle``, the reference the fleet equivalence suites
compare against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import BaseStationCluster, BatteryConfig
from repro.errors import ConstraintViolation, DataError, HubError
from repro.fleet import FleetIdleScheduler, fleet_simulation_from_scenarios
from repro.hub import (
    HubConfig,
    ScenarioConfig,
    build_fleet_scenarios,
    build_scenario,
    fleet_behavior_model,
    required_reserve_kwh,
    resolve_occupancy,
    sized_battery_config,
)
from repro.rng import RngFactory
from repro.synth.catalog import default_fleet
from repro.synth.charging import Stratum
from scalar_oracle import CostBook, EctHub, HubInputs, HubSimulation, compute_slot_ledger


def _reserve_met(battery, cluster, recovery_time_h):
    """Whether ``SoC_min`` meets the worst-case Eq. 6 reserve."""
    return battery.soc_min_kwh >= required_reserve_kwh(cluster, recovery_time_h) - 1e-9


def _balance_error_kwh(ledger):
    """Residual of the Eq. 7 bus balance of one 1 h slot."""
    supply = ledger.p_grid_kw + ledger.p_pv_kw + ledger.p_wt_kw + max(-ledger.p_bp_kw, 0.0)
    demand = ledger.p_bs_kw + ledger.p_cs_kw + max(ledger.p_bp_kw, 0.0) + ledger.surplus_kw
    return supply - demand


def _inputs(n=24, occupied=None, outage=None, rng=None):
    rng = rng or np.random.default_rng(0)
    return HubInputs(
        load_rate=rng.uniform(0.2, 0.9, n),
        rtp_kwh=rng.uniform(0.05, 0.13, n),
        pv_power_kw=rng.uniform(0, 15, n),
        wt_power_kw=rng.uniform(0, 10, n),
        occupied=occupied if occupied is not None else rng.integers(0, 2, n),
        discount=np.zeros(n),
        outage=outage,
    )


class TestPowerBalance:
    def test_eq7_import(self):
        hub = EctHub(HubConfig())
        balance = hub.power_balance(
            p_bs_kw=6.0, p_cs_kw=60.0, p_bp_kw=50.0, p_pv_kw=10.0, p_wt_kw=0.0
        )
        assert balance.grid_import_kw == pytest.approx(106.0)
        assert balance.surplus_kw == 0.0

    def test_eq7_surplus_curtailed(self):
        hub = EctHub(HubConfig())
        balance = hub.power_balance(
            p_bs_kw=4.0, p_cs_kw=0.0, p_bp_kw=0.0, p_pv_kw=20.0, p_wt_kw=0.0
        )
        assert balance.grid_import_kw == 0.0
        assert balance.surplus_kw == pytest.approx(16.0)

    def test_discharge_reduces_import(self):
        hub = EctHub(HubConfig())
        with_discharge = hub.power_balance(
            p_bs_kw=6.0, p_cs_kw=60.0, p_bp_kw=-50.0, p_pv_kw=0.0, p_wt_kw=0.0
        )
        assert with_discharge.grid_import_kw == pytest.approx(16.0)

    def test_negative_load_rejected(self):
        hub = EctHub(HubConfig())
        with pytest.raises(HubError):
            hub.power_balance(
                p_bs_kw=-1.0, p_cs_kw=0.0, p_bp_kw=0.0, p_pv_kw=0.0, p_wt_kw=0.0
            )

    @given(
        p_bs=st.floats(0, 20),
        p_cs=st.floats(0, 120),
        p_bp=st.floats(-50, 50),
        p_pv=st.floats(0, 40),
        p_wt=st.floats(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_balance_identity_property(self, p_bs, p_cs, p_bp, p_pv, p_wt):
        hub = EctHub(HubConfig())
        balance = hub.power_balance(
            p_bs_kw=p_bs, p_cs_kw=p_cs, p_bp_kw=p_bp, p_pv_kw=p_pv, p_wt_kw=p_wt
        )
        residual = p_bs + p_cs + p_bp - p_pv - p_wt
        assert balance.grid_import_kw - balance.surplus_kw == pytest.approx(residual)
        assert balance.grid_import_kw >= 0 and balance.surplus_kw >= 0


class TestCosts:
    def test_slot_ledger_eqs_8_9_11(self):
        ledger = compute_slot_ledger(
            slot=0, action=1, p_bs_kw=6.0, p_cs_kw=120.0, p_bp_kw=50.0,
            p_pv_kw=0.0, p_wt_kw=0.0, p_grid_kw=176.0, surplus_kw=0.0,
            rtp_kwh=0.10, srtp_kwh=0.45, soc_kwh=100.0,
            c_bp_per_slot=0.01, dt_h=1.0,
        )
        assert ledger.grid_cost == pytest.approx(17.6)
        assert ledger.bp_cost == pytest.approx(0.01)
        assert ledger.revenue == pytest.approx(54.0)
        assert ledger.reward == pytest.approx(54.0 - 17.6 - 0.01)

    def test_bp_cost_only_when_active(self):
        idle = compute_slot_ledger(
            slot=0, action=0, p_bs_kw=0, p_cs_kw=0, p_bp_kw=0, p_pv_kw=0,
            p_wt_kw=0, p_grid_kw=0, surplus_kw=0, rtp_kwh=0.1, srtp_kwh=0.4,
            soc_kwh=0, c_bp_per_slot=0.01, dt_h=1.0,
        )
        assert idle.bp_cost == 0.0

    def test_cost_book_aggregates_eq10_12(self):
        book = CostBook()
        for slot in range(48):
            book.add(
                compute_slot_ledger(
                    slot=slot, action=1 if slot % 2 else 0, p_bs_kw=4.0,
                    p_cs_kw=60.0 if slot % 3 == 0 else 0.0, p_bp_kw=0.0,
                    p_pv_kw=0.0, p_wt_kw=0.0, p_grid_kw=4.0, surplus_kw=0.0,
                    rtp_kwh=0.1, srtp_kwh=0.45, soc_kwh=50.0,
                    c_bp_per_slot=0.01, dt_h=1.0,
                )
            )
        assert book.profit == pytest.approx(book.charging_revenue - book.operating_cost)
        assert len(book.daily_rewards()) == 2
        assert sum(book.daily_rewards()) == pytest.approx(book.profit)

    def test_invalid_prices(self):
        with pytest.raises(HubError):
            compute_slot_ledger(
                slot=0, action=0, p_bs_kw=0, p_cs_kw=0, p_bp_kw=0, p_pv_kw=0,
                p_wt_kw=0, p_grid_kw=0, surplus_kw=0, rtp_kwh=-0.1,
                srtp_kwh=0.4, soc_kwh=0, c_bp_per_slot=0.01, dt_h=1.0,
            )


class TestConstraints:
    def test_required_reserve(self):
        cluster = BaseStationCluster(2)
        assert required_reserve_kwh(cluster, 4) == pytest.approx(2 * 4.0 * 4)

    def test_reserve_satisfied_and_violated(self):
        cluster = BaseStationCluster(2)
        ok = BatteryConfig(capacity_kwh=200.0, soc_min_fraction=0.2)
        bad = BatteryConfig(capacity_kwh=200.0, soc_min_fraction=0.05)
        assert _reserve_met(ok, cluster, 4)
        assert not _reserve_met(bad, cluster, 4)
        assert sized_battery_config(ok, cluster, 4) is ok
        assert sized_battery_config(bad, cluster, 4).soc_min_fraction > bad.soc_min_fraction

    def test_sized_battery_config_raises_min(self):
        cluster = BaseStationCluster(2)
        base = BatteryConfig(capacity_kwh=200.0, soc_min_fraction=0.01)
        sized = sized_battery_config(base, cluster, 4)
        assert _reserve_met(sized, cluster, 4)

    def test_sized_battery_impossible(self):
        cluster = BaseStationCluster(10)
        tiny = BatteryConfig(capacity_kwh=20.0)
        with pytest.raises(ConstraintViolation):
            sized_battery_config(tiny, cluster, 8)


class TestSimulation:
    def test_run_to_completion(self):
        sim = HubSimulation(EctHub(HubConfig()), _inputs(48))
        book = sim.run(lambda s: 0)
        assert len(book) == 48
        assert sim.done

    def test_step_past_horizon_raises(self):
        sim = HubSimulation(EctHub(HubConfig()), _inputs(2))
        sim.step(0)
        sim.step(0)
        with pytest.raises(HubError):
            sim.step(0)

    def test_energy_balance_closes_every_slot(self):
        sim = HubSimulation(EctHub(HubConfig()), _inputs(72))
        book = sim.run(lambda s: [1, 0, -1][s.t % 3])
        for ledger in book.ledgers:
            assert abs(_balance_error_kwh(ledger)) < 1e-9

    def test_blackout_suspends_charging_and_grid(self):
        outage = np.zeros(24, dtype=bool)
        outage[5:9] = True
        inputs = _inputs(24, occupied=np.ones(24, dtype=int), outage=outage)
        sim = HubSimulation(EctHub(HubConfig()), inputs, initial_soc_fraction=0.9)
        book = sim.run(lambda s: 0)
        for ledger in book.ledgers:
            if ledger.blackout:
                assert ledger.p_grid_kw == 0.0
                assert ledger.p_cs_kw == 0.0
                assert ledger.revenue == 0.0

    def test_blackout_served_from_reserve(self):
        outage = np.zeros(8, dtype=bool)
        outage[2:6] = True
        inputs = HubInputs(
            load_rate=np.full(8, 1.0),
            rtp_kwh=np.full(8, 0.1),
            pv_power_kw=np.zeros(8),
            wt_power_kw=np.zeros(8),
            occupied=np.zeros(8, dtype=int),
            discount=np.zeros(8),
            outage=outage,
        )
        sim = HubSimulation(EctHub(HubConfig()), inputs, initial_soc_fraction=0.5)
        book = sim.run(lambda s: 0)
        assert book.total_unserved_kwh == pytest.approx(0.0)

    def test_reset_rewinds(self):
        sim = HubSimulation(EctHub(HubConfig()), _inputs(10))
        sim.run(lambda s: 1)
        sim.reset()
        assert sim.t == 0 and len(sim.book) == 0

    def test_inputs_validation(self):
        with pytest.raises(DataError):
            HubInputs(
                load_rate=np.zeros(4),
                rtp_kwh=np.zeros(3),
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )

    def test_inputs_slice(self):
        inputs = _inputs(24)
        sub = inputs.slice(6, 18)
        assert len(sub) == 12


class TestScenario:
    def test_fleet_build(self, factory):
        scenarios = build_fleet_scenarios(ScenarioConfig(n_hours=48), factory)
        assert len(scenarios) == 12
        for scenario in scenarios:
            assert scenario.n_hours == 48
            if scenario.site.kind == "urban":
                assert scenario.wt_power_kw.max() == 0.0

    def test_reserve_sized_for_every_hub(self, factory):
        config = ScenarioConfig(n_hours=24)
        for scenario in build_fleet_scenarios(config, factory):
            cluster = BaseStationCluster(
                scenario.site.n_base_stations, config.base_station
            )
            assert _reserve_met(
                scenario.hub_config.battery, cluster, config.recovery_time_h
            )

    def test_resolve_occupancy_semantics(self):
        strata = np.array(
            [int(Stratum.NONE), int(Stratum.INCENTIVE), int(Stratum.ALWAYS)] * 2
        )
        discounted = np.array([1, 1, 1, 0, 0, 0])
        occ = resolve_occupancy(strata, discounted)
        assert occ.tolist() == [0, 1, 1, 0, 0, 1]

    def test_scenario_simulation_end_to_end(self, factory):
        config = ScenarioConfig(n_hours=48)
        scenario = build_fleet_scenarios(config, factory)[0]
        behavior = fleet_behavior_model(config, factory)
        strata = behavior.sample_strata(
            0, np.arange(48), factory.stream("occ")
        )
        occupied = resolve_occupancy(strata, np.zeros(48, dtype=int))
        sim = fleet_simulation_from_scenarios([scenario], occupied, np.zeros(48))
        book = sim.run(FleetIdleScheduler())
        assert len(book) == 48
        assert np.isfinite(book.profit)

    def test_deterministic_scenarios(self):
        a = build_scenario(
            default_fleet(2)[0], ScenarioConfig(n_hours=24), RngFactory(seed=4)
        )
        b = build_scenario(
            default_fleet(2)[0], ScenarioConfig(n_hours=24), RngFactory(seed=4)
        )
        assert np.allclose(a.rtp_kwh, b.rtp_kwh)
        assert np.allclose(a.pv_power_kw, b.pv_power_kw)
