"""Tests for the physical energy models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import (
    CHARGE,
    DISCHARGE,
    IDLE,
    BaseStationConfig,
    BatteryConfig,
    BlackoutConfig,
    BlackoutModel,
    ChargingStationConfig,
    DegradationConfig,
    GridConfig,
    PvArray,
    PvConfig,
    WindTurbine,
    WindTurbineConfig,
    cell_voltage,
    simulate_voltage_traces,
)
from repro.errors import ConfigError, GridError
from scalar_oracle import (
    BaseStation,
    BaseStationCluster,
    BatteryError,
    BatteryPack,
    ChargingStation,
    GridConnection,
)


class TestBattery:
    def test_charge_step_physical(self):
        pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.5)
        result = pack.step(CHARGE)
        assert result.bus_power_kw == pytest.approx(50.0)
        assert result.delta_soc_kwh == pytest.approx(50.0 * 0.95)
        assert result.loss_kwh == pytest.approx(50.0 * 0.05)

    def test_discharge_step_physical(self):
        pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.5)
        result = pack.step(DISCHARGE)
        assert result.bus_power_kw == pytest.approx(-50.0)
        assert result.delta_soc_kwh == pytest.approx(-50.0 / 0.95)

    def test_paper_exact_discharge(self):
        pack = BatteryPack(BatteryConfig(paper_exact=True), initial_soc_fraction=0.5)
        result = pack.step(DISCHARGE)
        # Eq. 3 literal: SoC moves by η·R and the bus receives the same.
        assert result.delta_soc_kwh == pytest.approx(-50.0 * 0.95)
        assert result.bus_power_kw == pytest.approx(-50.0 * 0.95)
        assert result.loss_kwh == pytest.approx(0.0)

    def test_idle_is_free(self):
        pack = BatteryPack()
        result = pack.step(IDLE)
        assert result.bus_power_kw == 0.0 and result.delta_soc_kwh == 0.0

    def test_charge_clips_at_soc_max(self):
        pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.95)
        result = pack.step(CHARGE)
        assert result.curtailed
        assert pack.soc_kwh <= BatteryConfig().soc_max_kwh + 1e-9

    def test_discharge_clips_at_soc_min(self):
        pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.10)
        result = pack.step(DISCHARGE)
        assert result.action == IDLE or result.curtailed
        assert pack.soc_kwh >= BatteryConfig().soc_min_kwh - 1e-9

    def test_invalid_action(self):
        with pytest.raises(BatteryError):
            BatteryPack().step(5)

    def test_reset_clamps_to_bounds(self):
        pack = BatteryPack()
        pack.reset(0.0)
        assert pack.soc_kwh == pytest.approx(BatteryConfig().soc_min_kwh)

    def test_emergency_supply_uses_reserve(self):
        pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.10)
        delivered = pack.emergency_supply(10.0)
        assert delivered == pytest.approx(10.0)
        assert pack.soc_kwh < BatteryConfig().soc_min_kwh

    def test_emergency_supply_capped_by_energy(self):
        config = BatteryConfig(capacity_kwh=10.0)
        pack = BatteryPack(config, initial_soc_fraction=0.10)
        delivered = pack.emergency_supply(100.0)
        assert delivered <= 10.0
        assert pack.soc_kwh == pytest.approx(0.0)

    @given(
        actions=st.lists(st.sampled_from([CHARGE, IDLE, DISCHARGE]), min_size=1, max_size=60),
        start=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_soc_always_in_bounds_property(self, actions, start):
        config = BatteryConfig()
        pack = BatteryPack(config, initial_soc_fraction=start)
        for action in actions:
            pack.step(action)
            assert config.soc_min_kwh - 1e-9 <= pack.soc_kwh <= config.soc_max_kwh + 1e-9

    @given(actions=st.lists(st.sampled_from([CHARGE, DISCHARGE]), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_energy_conservation_property(self, actions):
        """SoC change equals bus energy minus losses, per step."""
        pack = BatteryPack(BatteryConfig(), initial_soc_fraction=0.5)
        for action in actions:
            before = pack.soc_kwh
            result = pack.step(action)
            bus_kwh = result.bus_power_kw * 1.0
            assert pack.soc_kwh - before == pytest.approx(result.delta_soc_kwh)
            # Charging: stored = bus - loss. Discharging: bus = drawn - loss.
            if result.action == CHARGE:
                assert result.delta_soc_kwh == pytest.approx(bus_kwh - result.loss_kwh)
            elif result.action == DISCHARGE:
                assert -bus_kwh == pytest.approx(-result.delta_soc_kwh - result.loss_kwh)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            BatteryConfig(soc_min_fraction=0.9, soc_max_fraction=0.5)


class TestDegradation:
    def test_cell_voltage_declines(self):
        config = DegradationConfig()
        assert cell_voltage(config, 0.2) < cell_voltage(config, 0.0)

    def test_capacity_fade_monotone(self, rng):
        quiet = DegradationConfig(voltage_noise_v=0.0)
        traces = simulate_voltage_traces(300, rng, quiet)
        assert (np.diff(traces["cell_voltages"], axis=1) < 0).all()
        assert (np.diff(traces["group_voltage"]) < 0).all()

    def test_cycle_fade_adds(self, rng):
        """With no calendar fade, the float-service cycles alone still age the pack."""
        cycle_only = DegradationConfig(calendar_fade_per_day=0.0, voltage_noise_v=0.0)
        group = simulate_voltage_traces(100, rng, cycle_only)["group_voltage"]
        assert group[-1] < group[0]
        no_fade = DegradationConfig(
            calendar_fade_per_day=0.0, cycle_fade_per_efc=0.0, voltage_noise_v=0.0
        )
        flat = simulate_voltage_traces(100, rng, no_fade)["group_voltage"]
        assert (flat == flat[0]).all()

    def test_fade_capped_at_one(self, rng):
        config = DegradationConfig(calendar_fade_per_day=0.5, voltage_noise_v=0.0)
        traces = simulate_voltage_traces(10, rng, config)
        floor_v = config.cell_nominal_v - config.cell_voltage_span_v
        np.testing.assert_allclose(traces["cell_voltages"][:, 5:], floor_v)
        np.testing.assert_allclose(
            traces["group_voltage"][5:], config.cells_in_group * floor_v
        )

    def test_voltage_traces_shape_and_trend(self, rng):
        traces = simulate_voltage_traces(350, rng, n_cells=2)
        assert traces["cell_voltages"].shape == (2, 350)
        for cell in traces["cell_voltages"]:
            slope = np.polyfit(traces["days"], cell, 1)[0]
            assert slope < 0
        assert 50.0 < traces["group_voltage"][0] < 58.0

    def test_invalid_inputs(self, rng):
        with pytest.raises(ConfigError):
            simulate_voltage_traces(0, rng)


class TestPlants:
    def test_pv_linear_in_irradiance(self):
        pv = PvArray(PvConfig(rated_kw=10.0, performance_ratio=0.8))
        assert pv.power_kw(500.0) == pytest.approx(4.0)
        assert pv.power_kw(0.0) == 0.0

    def test_pv_clips_at_rating(self):
        pv = PvArray(PvConfig(rated_kw=10.0, performance_ratio=1.0))
        assert pv.power_kw(2000.0) == pytest.approx(10.0)

    def test_pv_rejects_negative_irradiance(self):
        with pytest.raises(ConfigError):
            PvArray().power_kw(-1.0)

    def test_wt_power_curve_regions(self):
        wt = WindTurbine(WindTurbineConfig(rated_kw=20.0))
        assert wt.power_kw(1.0) == 0.0  # below cut-in
        assert wt.power_kw(30.0) == 0.0  # beyond cut-out
        assert wt.power_kw(12.0) == pytest.approx(20.0)  # rated
        assert 0.0 < wt.power_kw(7.0) < 20.0  # ramp

    def test_wt_monotone_on_ramp(self):
        wt = WindTurbine(WindTurbineConfig())
        speeds = np.linspace(3.0, 12.0, 20)
        power = np.asarray(wt.power_kw(speeds))
        assert np.all(np.diff(power) >= 0)

    def test_wt_invalid_speeds_config(self):
        with pytest.raises(ConfigError):
            WindTurbineConfig(cut_in_m_s=15.0, rated_speed_m_s=12.0)


class TestBaseStation:
    def test_eq1_endpoints(self):
        bs = BaseStation(BaseStationConfig(p_min_kw=2.0, p_max_kw=4.0))
        assert bs.power_kw(0.0) == pytest.approx(2.0)
        assert bs.power_kw(1.0) == pytest.approx(4.0)
        assert bs.power_kw(0.5) == pytest.approx(3.0)

    def test_cluster_scales(self):
        cluster = BaseStationCluster(3)
        assert cluster.power_kw(0.0) == pytest.approx(6.0)
        assert cluster.max_power_kw == pytest.approx(12.0)

    def test_load_out_of_range(self):
        with pytest.raises(ConfigError):
            BaseStation().power_kw(1.5)

    def test_invalid_envelope(self):
        with pytest.raises(ConfigError):
            BaseStationConfig(p_min_kw=4.0, p_max_kw=4.0)


class TestChargingStation:
    def test_eq2_power(self):
        cs = ChargingStation(ChargingStationConfig(rate_kw=60.0))
        assert cs.power_kw(1) == pytest.approx(60.0)
        assert cs.power_kw(0) == 0.0

    def test_occupancy_must_be_binary(self):
        with pytest.raises(ConfigError):
            ChargingStation().power_kw(np.array([0, 2]))

    def test_discounted_price(self):
        cs = ChargingStation(ChargingStationConfig(base_price_kwh=0.40))
        assert cs.selling_price_kwh(0.25) == pytest.approx(0.30)

    def test_revenue(self):
        cs = ChargingStation(ChargingStationConfig(rate_kw=100.0, base_price_kwh=0.50))
        assert cs.revenue(True, 1.0) == pytest.approx(50.0)
        assert cs.revenue(False, 1.0) == 0.0

    def test_invalid_discount(self):
        with pytest.raises(ConfigError):
            ChargingStation().selling_price_kwh(1.0)


class TestGrid:
    def test_import_passthrough(self):
        grid = GridConnection()
        assert grid.draw_power(12.5) == pytest.approx(12.5)

    def test_surplus_curtailed(self):
        assert GridConnection().draw_power(-5.0) == 0.0

    def test_import_limit(self):
        grid = GridConnection(GridConfig(import_limit_kw=10.0))
        with pytest.raises(GridError):
            grid.draw_power(11.0)

    def test_cost_eq9(self):
        assert GridConnection().cost(100.0, 0.08) == pytest.approx(8.0)

    def test_cost_rejects_negative(self):
        with pytest.raises(GridError):
            GridConnection().cost(-1.0, 0.08)

    def test_blackout_durations(self, rng):
        model = BlackoutModel(BlackoutConfig(outage_probability_per_hour=0.05))
        mask = model.sample_outages(24 * 90, rng)
        assert mask.dtype == bool
        assert mask.any()

    def test_blackout_zero_probability(self, rng):
        model = BlackoutModel(BlackoutConfig(outage_probability_per_hour=0.0))
        assert not model.sample_outages(1000, rng).any()
