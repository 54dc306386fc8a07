"""Tests for the synthetic data substrate."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.errors import ConfigError, DataError
from repro.rng import RngFactory
from repro.synth import (
    ChargingBehaviorModel,
    ChargingConfig,
    RoadNetworkConfig,
    RtpConfig,
    RtpGenerator,
    SolarConfig,
    Stratum,
    TrafficConfig,
    TrafficGenerator,
    WeatherConfig,
    WeatherGenerator,
    WindConfig,
    build_road_network,
    default_fleet,
    generate_irradiance,
    generate_wind_speed,
    near_road_fraction,
    place_stations,
    point_segment_distance,
)
from repro.timeutils import SlotCalendar


class TestSolar:
    def test_night_is_dark(self, factory):
        ghi, _ = generate_irradiance(48, SolarConfig(), factory.stream("s"))
        # Midnight hours (slot 0 and 24) must be zero.
        assert ghi[0] == 0.0 and ghi[24] == 0.0

    def test_noon_is_bright(self, factory):
        ghi, _ = generate_irradiance(48, SolarConfig(), factory.stream("s"))
        assert ghi[12] > 100.0

    def test_non_negative_everywhere(self, factory):
        ghi, cover = generate_irradiance(24 * 30, SolarConfig(), factory.stream("s"))
        assert ghi.min() >= 0.0
        assert 0.0 <= cover.min() and cover.max() <= 1.0

    def test_seasonality(self, factory):
        config = SolarConfig(latitude_deg=45.0, cloud_volatility=0.0, mean_cloud_cover=0.0)
        summer = generate_irradiance(
            24, config, factory.stream("x"), calendar=SlotCalendar(start_day_of_year=172)
        )[0]
        winter = generate_irradiance(
            24, config, factory.stream("x"), calendar=SlotCalendar(start_day_of_year=355)
        )[0]
        assert summer.max() > winter.max()

    def test_invalid_latitude(self):
        with pytest.raises(ConfigError):
            SolarConfig(latitude_deg=100.0)


def weibull_mean(config: WindConfig) -> float:
    """Analytic mean of the configured Weibull marginal (m/s)."""
    return float(
        config.weibull_scale_m_s * special.gamma(1.0 + 1.0 / config.weibull_shape)
    )


class TestWind:
    def test_non_negative(self, factory):
        speeds = generate_wind_speed(24 * 30, WindConfig(), factory.stream("w"))
        assert speeds.min() >= 0.0

    def test_mean_close_to_weibull(self, factory):
        config = WindConfig(diurnal_amplitude=0.0)
        speeds = generate_wind_speed(24 * 200, config, factory.stream("w"))
        assert speeds.mean() == pytest.approx(weibull_mean(config), rel=0.1)

    def test_persistence_creates_autocorrelation(self, factory):
        config = WindConfig(persistence=0.95, diurnal_amplitude=0.0)
        speeds = generate_wind_speed(2000, config, factory.stream("w"))
        lag1 = np.corrcoef(speeds[:-1], speeds[1:])[0, 1]
        assert lag1 > 0.6

    def test_zero_hours(self, factory):
        assert len(generate_wind_speed(0, WindConfig(), factory.stream("w"))) == 0

    def test_invalid_shape(self):
        with pytest.raises(ConfigError):
            WindConfig(weibull_shape=0.0)


class TestWeather:
    def test_trace_consistency(self, factory):
        trace = WeatherGenerator(WeatherConfig(), factory).generate(72)
        assert len(trace) == 72

    def test_slice(self, factory):
        trace = WeatherGenerator(WeatherConfig(), factory).generate(48)
        sub = trace.slice(10, 20)
        assert len(sub) == 10
        assert np.allclose(sub.irradiance_w_m2, trace.irradiance_w_m2[10:20])

    def test_bad_slice(self, factory):
        trace = WeatherGenerator(WeatherConfig(), factory).generate(10)
        with pytest.raises(DataError):
            trace.slice(5, 20)

    def test_deterministic_under_seed(self):
        a = WeatherGenerator(WeatherConfig(), RngFactory(seed=9)).generate(24)
        b = WeatherGenerator(WeatherConfig(), RngFactory(seed=9)).generate(24)
        assert np.allclose(a.irradiance_w_m2, b.irradiance_w_m2)


class TestTraffic:
    def test_range_and_load(self, factory):
        trace = TrafficGenerator(TrafficConfig()).generate(24 * 14, factory.stream("t"))
        assert trace.volume_gb.min() > 0
        assert 0.0 <= trace.load_rate.min() and trace.load_rate.max() <= 1.0

    def test_evening_peak(self, factory):
        gen = TrafficGenerator(TrafficConfig())
        profile = gen._profile_rows(24, np.ones(1))[0]
        assert profile.argmax() in range(18, 24)

    def test_weekend_reduction(self):
        cal = SlotCalendar(start_day_of_week=0)
        gen = TrafficGenerator(TrafficConfig(weekend_factor=0.5), calendar=cal)
        profile = gen._profile_rows(24 * 7, np.ones(1))[0]
        weekday_mean = profile[: 24 * 5].mean()
        weekend_mean = profile[24 * 5 :].mean()
        assert weekend_mean < weekday_mean

    def test_slice(self, factory):
        trace = TrafficGenerator().generate(48, factory.stream("t"))
        assert len(trace.slice(0, 24)) == 24


class TestRtp:
    def test_band(self, factory):
        trace = RtpGenerator(RtpConfig()).generate(24 * 30, factory.stream("p"))
        assert trace.price_mwh.min() >= RtpConfig().price_floor_mwh
        assert trace.price_mwh.max() <= RtpConfig().price_cap_mwh

    def test_load_coupling_creates_correlation(self, factory):
        traffic = TrafficGenerator().generate(24 * 20, factory.stream("t"))
        prices = RtpGenerator().generate(
            24 * 20, factory.stream("p"), load_rate=traffic.load_rate
        )
        corr = np.corrcoef(traffic.load_rate, prices.price_mwh)[0, 1]
        assert corr > 0.4

    def test_price_kwh_conversion(self, factory):
        trace = RtpGenerator().generate(24, factory.stream("p"))
        assert np.allclose(trace.price_kwh, trace.price_mwh / 1000.0)

    def test_load_shape_mismatch(self, factory):
        with pytest.raises(DataError):
            RtpGenerator().generate(24, factory.stream("p"), load_rate=np.zeros(10))


class TestCharging:
    def test_log_shape_and_semantics(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        log = model.simulate_log(30)
        assert len(log) == 30 * 24 * 12
        # Stratum semantics: Always => charged; None => not charged;
        # Incentive => charged iff treated.
        always = log.stratum == int(Stratum.ALWAYS)
        none = log.stratum == int(Stratum.NONE)
        incentive = log.stratum == int(Stratum.INCENTIVE)
        assert (log.charged[always] == 1).all()
        assert (log.charged[none] == 0).all()
        assert (log.charged[incentive] == log.treated[incentive]).all()

    def test_energy_only_when_charged(self, factory):
        log = ChargingBehaviorModel(ChargingConfig(), factory).simulate_log(10)
        assert (log.energy_kwh[log.charged == 0] == 0).all()
        assert (log.energy_kwh[log.charged == 1] > 0).all()

    def test_evening_incentive_concentration(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        log = model.simulate_log(200)
        evening = (log.hour_of_day >= 18) & (log.stratum == int(Stratum.INCENTIVE))
        daytime = (log.hour_of_day < 18) & (log.stratum == int(Stratum.INCENTIVE))
        evening_rate = evening.sum() / (log.hour_of_day >= 18).sum()
        daytime_rate = daytime.sum() / (log.hour_of_day < 18).sum()
        assert evening_rate > 2 * daytime_rate

    def test_cell_types_persistent(self, factory):
        """Each (station, hour, weekend) cell keeps one type: every active
        slot of a cell realises that same stratum, week after week."""
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        slots = np.arange(24 * 7 * 8)
        strata = model.sample_strata(0, slots, factory.stream("persist"))
        cells = model.calendar.hour_of_day(slots) + 24 * model.calendar.is_weekend(
            slots
        ).astype(int)
        active = strata != int(Stratum.NONE)
        assert active.any()
        for cell in np.unique(cells[active]):
            assert len(set(strata[active & (cells == cell)].tolist())) == 1

    def test_split_by_day(self, factory):
        log = ChargingBehaviorModel(ChargingConfig(), factory).simulate_log(20)
        train, test = log.split_by_day(15)
        assert len(train) + len(test) == len(log)
        assert train.slot.max() < 15 * 24 <= test.slot.min()

    def test_counts_by_hour_shape(self, factory):
        log = ChargingBehaviorModel(ChargingConfig(), factory).simulate_log(30)
        counts = log.counts_by_hour()
        assert counts.shape == (24,)
        assert counts.sum() == log.n_sessions

    def test_stratum_probabilities_simplex(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        probs = model._type_probability_table(np.arange(3), np.arange(24))
        assert probs.shape == (3, 24, 3)
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert probs.min() >= 0.0

    def test_propensity_bounds(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        p = model.propensity(np.arange(24))
        assert p.min() >= 0.02 and p.max() <= 0.98

    def test_invalid_station(self, factory):
        model = ChargingBehaviorModel(ChargingConfig(), factory)
        with pytest.raises(ConfigError):
            model.sample_strata(99, np.arange(24), factory.stream("s"))

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_outcome_semantics_property(self, seed):
        model = ChargingBehaviorModel(ChargingConfig(), RngFactory(seed=seed))
        log = model.simulate_log(5)
        implied = np.where(
            log.stratum == int(Stratum.ALWAYS),
            1,
            np.where(log.stratum == int(Stratum.INCENTIVE), log.treated, 0),
        )
        assert np.array_equal(log.charged, implied)


ROAD_EDGE_CASES = json.loads((Path(__file__).parent / "road_edges.json").read_text())


class TestRoads:
    def test_point_segment_distance_basics(self):
        segments = np.array([[0.0, 0.0, 10.0, 0.0]])
        points = np.array([[5.0, 3.0], [12.0, 0.0], [0.0, 0.0]])
        dist = point_segment_distance(points, segments)
        assert dist[0] == pytest.approx(3.0)
        assert dist[1] == pytest.approx(2.0)
        assert dist[2] == pytest.approx(0.0)

    def test_biased_placement_nearer_roads(self, factory):
        network = build_road_network(RoadNetworkConfig(), factory.stream("r"))
        biased = place_stations(network, 400, factory.stream("b"), road_bias=0.9)
        uniform = place_stations(network, 400, factory.stream("u"), road_bias=0.0)
        assert near_road_fraction(network, biased) > near_road_fraction(
            network, uniform
        )

    def test_stations_inside_region(self, factory):
        network = build_road_network(RoadNetworkConfig(), factory.stream("r"))
        pts = place_stations(network, 200, factory.stream("b"))
        assert pts.min() >= 0.0 and pts.max() <= network.region_km

    def test_network_connected_size(self, factory):
        network = build_road_network(RoadNetworkConfig(grid_size=4), factory.stream("r"))
        assert network.node_xy.shape == (16, 2)
        assert network.total_length_km > 0

    @pytest.mark.parametrize("case", ROAD_EDGE_CASES, ids=lambda c: f"{c['config']}-{c['seed']}")
    def test_edges_match_the_graph_library(self, case):
        """Edge lists frozen from the networkx build this module replaced
        (``grid_2d_graph`` -> sorted integer relabel -> ``add_edge`` per
        extra edge -> ``list(graph.edges())``), seeded as fig1 seeds it."""
        network = build_road_network(
            RoadNetworkConfig(**case["config"]), RngFactory(case["seed"]).stream("fig1/roads")
        )
        assert network.edges.tolist() == case["edges"]


class TestCatalog:
    def test_default_fleet_size_and_mix(self):
        sites = default_fleet(12)
        assert len(sites) == 12
        kinds = {site.kind for site in sites}
        assert kinds == {"urban", "rural"}

    def test_urban_has_no_wt(self):
        for site in default_fleet(12):
            if site.kind == "urban":
                assert site.wt_kw == 0.0
            else:
                assert site.wt_kw > 0.0

    def test_deterministic(self):
        a = default_fleet(6, rng_factory=RngFactory(seed=3))
        b = default_fleet(6, rng_factory=RngFactory(seed=3))
        assert a == b

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            default_fleet(0)
