"""Whole-fleet trace synthesis against frozen slot-by-slot oracles.

The ``oracle_*`` functions below are the per-slot generator loops the
plane synthesizer replaced, kept verbatim as the reference: one scalar
draw per slot, one hub at a time. The charging-model, strata and outage
oracles are the per-station loops the hub-axis tables replaced; they
draw from streams built with numpy's own ``SeedSequence``. Every plane
row must equal its oracle exactly (``np.array_equal`` or ``tobytes``),
and every stream must be left in the same state, so exports stay
byte-identical. The comparison runs on the host
executing the tests; no digests are stored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import NamedTuple

import numpy as np
import pytest
from scipy import special

from repro import api, parallel
from repro.energy.grid import BlackoutConfig, BlackoutModel
from repro.errors import ConfigError
from repro.hub import scenario as hub_scenario
from repro.hub.scenario import (
    TRACE_FIELDS,
    ScenarioConfig,
    build_fleet_scenarios,
    build_scenario,
    fleet_traces,
    synthesize_traces,
)
from repro.rng import RngFactory
from repro.spec import (
    BlackoutSpec,
    FleetSpec,
    HubGroupSpec,
    RunSpec,
    ScenarioSpec,
    SweepSpec,
)
from repro.spec.compiler import _assemble_fleet, spec_from_fleet_flags
from repro.synth.catalog import default_fleet
from repro.synth.charging import (
    ChargingBehaviorModel,
    ChargingConfig,
    Stratum,
    _circular_interp,
)
from repro.synth.rtp import RtpConfig, RtpGenerator
from repro.synth.solar import (
    SolarConfig,
    clear_sky_ghi,
    cloud_cover_planes,
    cloud_transmittance,
    generate_irradiance,
)
from repro.synth.traffic import TrafficConfig, TrafficGenerator
from repro.synth.wind import WindConfig, generate_wind_speed, wind_speed_planes
from repro.timeutils import SlotCalendar, diurnal_harmonic
from repro.units import HOURS_PER_DAY

SEEDS = (0, 7, 1234)


# --------------------------------------------------------------------- #
# Frozen oracles: the per-slot loops, one hub at a time                  #
# --------------------------------------------------------------------- #


def oracle_cloud(n_hours, config, rng):
    cover = np.empty(n_hours)
    state = config.mean_cloud_cover
    phi = config.cloud_persistence
    for t in range(n_hours):
        noise = rng.normal(0.0, config.cloud_volatility)
        state = config.mean_cloud_cover + phi * (state - config.mean_cloud_cover) + noise
        state = float(np.clip(state, 0.0, 1.0))
        cover[t] = state
    return cover


def oracle_irradiance(n_hours, config, rng, calendar=SlotCalendar()):
    slots = np.arange(n_hours)
    clear = clear_sky_ghi(calendar.day_of_year(slots), calendar.hour_of_day(slots), config)
    cover = oracle_cloud(n_hours, config, rng)
    return clear * cloud_transmittance(cover), cover


def oracle_gaussian_ar1(n, phi, rng):
    series = np.empty(n)
    innovation_std = np.sqrt(1.0 - phi**2)
    state = rng.normal(0.0, 1.0)
    for t in range(n):
        state = phi * state + rng.normal(0.0, innovation_std)
        series[t] = state
    return series


def oracle_wind(n_hours, config, rng, calendar=SlotCalendar()):
    if n_hours == 0:
        return np.empty(0)
    gaussian = oracle_gaussian_ar1(n_hours, config.persistence, rng)
    uniform = np.clip(special.ndtr(gaussian), 1e-12, 1.0 - 1e-12)
    speeds = config.weibull_scale_m_s * (-np.log1p(-uniform)) ** (1.0 / config.weibull_shape)
    if config.diurnal_amplitude > 0.0:
        hod = np.asarray(calendar.hour_of_day(np.arange(n_hours)), dtype=float)
        phase = 2.0 * np.pi * (hod - config.diurnal_peak_hour) / 24.0
        speeds = speeds * (1.0 + config.diurnal_amplitude * np.cos(phase))
    return np.maximum(speeds, 0.0)


def oracle_traffic(n_hours, cfg, rng, calendar=SlotCalendar()):
    slots = np.arange(n_hours)
    hod = np.asarray(calendar.hour_of_day(slots), dtype=float)
    profile = (
        cfg.base_gb
        + cfg.midday_peak_gb * diurnal_harmonic(hod, cfg.midday_peak_hour, sharpness=3.0)
        + cfg.evening_peak_gb * diurnal_harmonic(hod, cfg.evening_peak_hour, sharpness=2.0)
    )
    weekend = np.asarray(calendar.is_weekend(slots))
    profile = np.where(weekend, profile * cfg.weekend_factor, profile)
    noise = np.empty(n_hours)
    state = 0.0
    innovation_std = cfg.noise_volatility * np.sqrt(
        max(1.0 - cfg.noise_persistence**2, 1e-9)
    )
    for t in range(n_hours):
        state = cfg.noise_persistence * state + rng.normal(0.0, innovation_std)
        noise[t] = state
    volume = np.maximum(profile * np.exp(noise), 0.0)
    return volume, np.clip(volume / cfg.capacity_gb, 0.0, 1.0)


def oracle_rtp(n_hours, cfg, rng, load_rate=None, calendar=SlotCalendar()):
    hod = np.asarray(calendar.hour_of_day(np.arange(n_hours)), dtype=float)
    price = cfg.base_price_mwh + cfg.diurnal_amplitude_mwh * diurnal_harmonic(
        hod, cfg.peak_hour, sharpness=2.0
    )
    if load_rate is not None:
        price = price + cfg.load_coupling_mwh * np.clip(load_rate, 0.0, 1.0)
    noise = np.empty(n_hours)
    state = 0.0
    innovation_std = cfg.noise_volatility_mwh * np.sqrt(
        max(1.0 - cfg.noise_persistence**2, 1e-9)
    )
    for t in range(n_hours):
        state = cfg.noise_persistence * state + rng.normal(0.0, innovation_std)
        noise[t] = state
    price = price + noise
    spikes = rng.random(n_hours) < cfg.spike_probability
    price = price + spikes * rng.exponential(cfg.spike_scale_mwh, size=n_hours)
    return np.clip(price, cfg.price_floor_mwh, cfg.price_cap_mwh)


def oracle_outages(n_hours, probability, recovery_time_h, rng):
    down = np.zeros(n_hours, dtype=bool)
    t = 0
    while t < n_hours:
        if rng.random() < probability:
            duration = int(rng.integers(1, 2 * recovery_time_h))
            down[t : t + duration] = True
            t += duration
        else:
            t += 1
    return down


def oracle_stream(seed, name):
    """A stream built the way numpy spells it: one SeedSequence child."""
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


class StationProfile(NamedTuple):
    """One station's personality scales, as the per-station loop kept them."""

    station_id: int
    demand_scale: float
    incentive_scale: float
    always_scale: float


def oracle_profiles(config, seed):
    """``ChargingBehaviorModel._build_profiles``: three scalar draws a station."""
    rng = oracle_stream(seed, "charging/profiles")
    jitter = config.station_jitter
    profiles = []
    for station_id in range(config.n_stations):
        profiles.append(
            StationProfile(
                station_id=station_id,
                demand_scale=float(np.clip(rng.normal(1.0, jitter), 0.6, 1.4)),
                incentive_scale=float(np.clip(rng.normal(1.0, jitter), 0.6, 1.4)),
                always_scale=float(np.clip(rng.normal(1.0, jitter), 0.6, 1.4)),
            )
        )
    return profiles


def oracle_cell_type_probabilities(config, profiles, strata_scales, station_id, hours_of_day):
    """``_type_probability_table``: one station's (n, 3) type probabilities."""
    profile = profiles[station_id]
    cfg = config
    hours = np.asarray(hours_of_day, dtype=float)
    extra_inc, extra_alw = (
        (1.0, 1.0)
        if strata_scales is None
        else strata_scales[station_id]
    )

    p_alw = (
        _circular_interp(hours, cfg.always_anchors)
        * profile.always_scale
        * extra_alw
        * profile.demand_scale
        / cfg.cell_activity
    )
    p_inc = (
        _circular_interp(hours, cfg.incentive_anchors)
        * profile.incentive_scale
        * extra_inc
        * profile.demand_scale
        / cfg.cell_activity
    )
    p_alw = np.clip(p_alw, 0.0, 0.95)
    p_inc = np.clip(p_inc, 0.0, 0.95)
    total = p_alw + p_inc
    overflow = total > 0.95
    if np.any(overflow):
        scale = np.where(overflow, 0.95 / total, 1.0)
        p_alw = p_alw * scale
        p_inc = p_inc * scale
    return np.column_stack([1.0 - p_alw - p_inc, p_inc, p_alw])


def oracle_sample_categorical(probs, rng):
    cumulative = np.cumsum(probs, axis=1)
    draws = rng.random(len(probs))[:, None]
    return (draws > cumulative[:, :-1]).sum(axis=1).astype(int)


def oracle_cell_types(config, profiles, strata_scales, seed):
    """``_build_cell_types``: weekday then weekend half, station by station."""
    rng = oracle_stream(seed, "charging/cells")
    hours = np.arange(HOURS_PER_DAY)
    types = np.empty((config.n_stations, 2 * HOURS_PER_DAY), dtype=int)
    for station_id in range(config.n_stations):
        probs = oracle_cell_type_probabilities(
            config, profiles, strata_scales, station_id, hours
        )
        types[station_id, :HOURS_PER_DAY] = oracle_sample_categorical(probs, rng)
        types[station_id, HOURS_PER_DAY:] = oracle_sample_categorical(probs, rng)
    return types


def oracle_realize_strata(model, station_id, slots, rng, confounder=0.0):
    """``ChargingBehaviorModel.realize_strata``: one station's strata row."""
    cell_type_map, cell_activity_map = model._cell_types, model._cell_activity
    cfg = model.config
    slots = np.asarray(slots)
    hod = np.asarray(model.calendar.hour_of_day(slots))
    weekend = np.asarray(model.calendar.is_weekend(slots)).astype(int)
    cells = hod + HOURS_PER_DAY * weekend
    cell_types = cell_type_map[station_id, cells]
    base_activity = cell_activity_map[station_id, cells]
    u = np.asarray(confounder, dtype=float)
    boost = np.where(
        cell_types == int(Stratum.ALWAYS),
        cfg.confounder_always_weight,
        cfg.confounder_incentive_weight,
    )
    activity = np.clip(base_activity * (1.0 + boost * u), 0.0, 1.0)
    active = rng.random(len(slots)) < activity
    return np.where(active, cell_types, int(Stratum.NONE)).astype(int)


def oracle_fleet_strata(model, hub_ids, horizon, seed):
    """``FleetAssembly.realize_strata``: the per-hub comprehension."""
    slots = np.arange(horizon)
    return np.stack(
        [
            oracle_realize_strata(
                model, hub_id, slots, oracle_stream(seed, f"fleet/occupancy/{hub_id}")
            )
            for hub_id in hub_ids
        ]
    )


def oracle_fleet_outages(probability, recovery_time_h, hub_ids, horizon, seed):
    """The ``_assemble_fleet`` outage comprehension, one hub at a time."""
    return np.stack(
        [
            oracle_outages(
                horizon,
                probability,
                recovery_time_h,
                oracle_stream(seed, f"fleet/outage/{hub_id}"),
            )
            for hub_id in hub_ids
        ]
    )


def oracle_pv(rated_kw, ghi, performance_ratio=0.8, reference=1000.0):
    raw = rated_kw * performance_ratio * ghi / reference
    return np.minimum(raw, rated_kw)


def oracle_wt(rated_kw, speed, cut_in=3.0, rated_speed=12.0, cut_out=25.0):
    v3 = speed**3
    ramp = rated_kw * (v3 - cut_in**3) / (rated_speed**3 - cut_in**3)
    return np.where(
        (speed < cut_in) | (speed >= cut_out),
        0.0,
        np.where(speed >= rated_speed, rated_kw, np.clip(ramp, 0.0, rated_kw)),
    )


def oracle_hub_traces(site, config, factory):
    """One hub's six traces exactly as the per-hub builder made them."""
    n = config.n_hours
    stream = f"hub/{site.hub_id}"
    ghi, _ = oracle_irradiance(
        n, config.weather.solar, factory.stream(f"{stream}/weather/solar")
    )
    wind = oracle_wind(n, config.weather.wind, factory.stream(f"{stream}/weather/wind"))
    traffic_cfg = dataclasses.replace(
        config.traffic,
        base_gb=config.traffic.base_gb * site.traffic_scale,
        midday_peak_gb=config.traffic.midday_peak_gb * site.traffic_scale,
        evening_peak_gb=config.traffic.evening_peak_gb * site.traffic_scale,
    )
    _, load = oracle_traffic(n, traffic_cfg, factory.stream(f"{stream}/traffic"))
    price = oracle_rtp(n, config.rtp, factory.stream(f"{stream}/rtp"), load_rate=load)
    return {
        "load_rate": load,
        "rtp_kwh": price / 1000.0,
        "pv_power_kw": oracle_pv(site.pv_kw, ghi) if site.pv_kw > 0 else np.zeros(n),
        "wt_power_kw": oracle_wt(site.wt_kw, wind) if site.wt_kw > 0 else np.zeros(n),
        "irradiance_w_m2": ghi,
        "wind_speed_m_s": wind,
    }


# --------------------------------------------------------------------- #
# Helpers                                                                #
# --------------------------------------------------------------------- #


def _mixed_sites(seed):
    """Urban and rural hubs plus plant-less and rescaled variants."""
    sites = default_fleet(6, rng_factory=RngFactory(seed=seed))
    return sites + [
        dataclasses.replace(sites[0], hub_id=6, pv_kw=0.0),
        dataclasses.replace(sites[1], hub_id=7, wt_kw=0.0, traffic_scale=1.55),
        dataclasses.replace(sites[1], hub_id=8, pv_kw=0.0, wt_kw=3.0),
    ]


def _streams(seed, name, count):
    factory = RngFactory(seed=seed)
    return [factory.stream(f"{name}/{index}") for index in range(count)]


def _assert_same_next_draw(rngs_a, rngs_b):
    assert [rng.random() for rng in rngs_a] == [rng.random() for rng in rngs_b]


# --------------------------------------------------------------------- #
# One process at a time: rows and stream state                           #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_hours", [0, 1, 168])
class TestProcessRows:
    def test_cloud_cover(self, seed, n_hours):
        config = SolarConfig()
        plane = cloud_cover_planes(n_hours, config, _streams(seed, "s", 4))
        oracle_rngs = _streams(seed, "s", 4)
        expected = [oracle_cloud(n_hours, config, rng) for rng in oracle_rngs]
        assert plane.shape == (4, n_hours)
        for row, want in zip(plane, expected):
            assert np.array_equal(row, want)

    def test_cloud_cover_leaves_streams_where_the_loop_did(self, seed, n_hours):
        rngs, oracle_rngs = _streams(seed, "s", 3), _streams(seed, "s", 3)
        cloud_cover_planes(n_hours, SolarConfig(), rngs)
        for rng in oracle_rngs:
            oracle_cloud(n_hours, SolarConfig(), rng)
        _assert_same_next_draw(rngs, oracle_rngs)

    def test_irradiance_one_row_call(self, seed, n_hours):
        calendar = SlotCalendar(start_day_of_year=172)
        (rng,), (oracle_rng,) = _streams(seed, "s", 1), _streams(seed, "s", 1)
        ghi, cover = generate_irradiance(n_hours, SolarConfig(), rng, calendar=calendar)
        want_ghi, want_cover = oracle_irradiance(
            n_hours, SolarConfig(), oracle_rng, calendar
        )
        assert np.array_equal(ghi, want_ghi)
        assert np.array_equal(cover, want_cover)

    def test_wind(self, seed, n_hours):
        config = WindConfig()
        rngs, oracle_rngs = _streams(seed, "w", 4), _streams(seed, "w", 4)
        plane = wind_speed_planes(n_hours, config, rngs)
        assert plane.shape == (4, n_hours)
        for row, rng in zip(plane, oracle_rngs):
            assert np.array_equal(row, oracle_wind(n_hours, config, rng))
        _assert_same_next_draw(rngs, oracle_rngs)

    def test_wind_one_row_call(self, seed, n_hours):
        config = WindConfig(diurnal_amplitude=0.0)
        (rng,), (oracle_rng,) = _streams(seed, "w", 1), _streams(seed, "w", 1)
        assert np.array_equal(
            generate_wind_speed(n_hours, config, rng),
            oracle_wind(n_hours, config, oracle_rng),
        )

    def test_traffic_with_per_row_scale(self, seed, n_hours):
        config = TrafficConfig()
        scales = np.array([1.0, 0.55, 1.37, 0.8])
        rngs, oracle_rngs = _streams(seed, "t", 4), _streams(seed, "t", 4)
        volume, load = TrafficGenerator(config).generate_planes(
            n_hours, rngs, scale=scales
        )
        for index, rng in enumerate(oracle_rngs):
            scaled = dataclasses.replace(
                config,
                base_gb=config.base_gb * scales[index],
                midday_peak_gb=config.midday_peak_gb * scales[index],
                evening_peak_gb=config.evening_peak_gb * scales[index],
            )
            want_volume, want_load = oracle_traffic(n_hours, scaled, rng)
            assert np.array_equal(volume[index], want_volume)
            assert np.array_equal(load[index], want_load)
        _assert_same_next_draw(rngs, oracle_rngs)

    def test_traffic_one_row_call(self, seed, n_hours):
        (rng,), (oracle_rng,) = _streams(seed, "t", 1), _streams(seed, "t", 1)
        trace = TrafficGenerator().generate(n_hours, rng)
        want_volume, want_load = oracle_traffic(n_hours, TrafficConfig(), oracle_rng)
        assert np.array_equal(trace.volume_gb, want_volume)
        assert np.array_equal(trace.load_rate, want_load)

    def test_rtp_with_load_planes(self, seed, n_hours):
        config = RtpConfig(spike_probability=0.2)
        load = np.random.default_rng(seed).random((4, n_hours))
        rngs, oracle_rngs = _streams(seed, "p", 4), _streams(seed, "p", 4)
        plane = RtpGenerator(config).generate_planes(n_hours, rngs, load_rate=load)
        for index, rng in enumerate(oracle_rngs):
            want = oracle_rtp(n_hours, config, rng, load_rate=load[index])
            assert np.array_equal(plane[index], want)
        _assert_same_next_draw(rngs, oracle_rngs)

    def test_rtp_one_row_call_without_load(self, seed, n_hours):
        (rng,), (oracle_rng,) = _streams(seed, "p", 1), _streams(seed, "p", 1)
        trace = RtpGenerator().generate(n_hours, rng)
        assert np.array_equal(
            trace.price_mwh, oracle_rtp(n_hours, RtpConfig(), oracle_rng)
        )


# --------------------------------------------------------------------- #
# The fleet synthesizer                                                  #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_hours", [1, 168])
def test_every_plane_row_matches_the_per_hub_oracle(seed, n_hours):
    sites = _mixed_sites(seed)
    config = ScenarioConfig(n_hours=n_hours)
    planes = synthesize_traces(sites, config, RngFactory(seed=seed))
    for row, site in enumerate(sites):
        expected = oracle_hub_traces(site, config, RngFactory(seed=seed))
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(planes, name)[row], expected[name]), (
                site.hub_id,
                name,
            )


def test_planes_are_read_only_and_contiguous():
    planes = synthesize_traces(_mixed_sites(0), ScenarioConfig(n_hours=24), RngFactory(0))
    for name in TRACE_FIELDS:
        plane = getattr(planes, name)
        assert plane.shape == (9, 24)
        assert plane.flags.c_contiguous and not plane.flags.writeable


def test_a_hub_does_not_depend_on_its_neighbours():
    sites = _mixed_sites(3)
    config = ScenarioConfig(n_hours=48)
    full = synthesize_traces(sites, config, RngFactory(seed=3))
    subset = [sites[7], sites[2]]
    part = synthesize_traces(subset, config, RngFactory(seed=3))
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(part, name), getattr(full, name)[[7, 2]])


def test_single_hub_builder_is_a_one_row_fleet():
    site = _mixed_sites(5)[1]
    config = ScenarioConfig(n_hours=72)
    scenario = build_scenario(site, config, RngFactory(seed=5))
    expected = oracle_hub_traces(site, config, RngFactory(seed=5))
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(scenario, name), expected[name])


# --------------------------------------------------------------------- #
# Scenarios share their planes                                           #
# --------------------------------------------------------------------- #


class TestFleetTraces:
    def test_scenarios_are_row_views_of_one_plane_set(self, factory):
        scenarios = build_fleet_scenarios(ScenarioConfig(n_hours=48), factory, n_hubs=5)
        planes = fleet_traces(scenarios)
        for row, scenario in enumerate(scenarios):
            for name in TRACE_FIELDS:
                assert getattr(scenario, name).base is getattr(planes, name)
                assert np.array_equal(getattr(scenario, name), getattr(planes, name)[row])

    def test_other_sequences_are_stacked(self, factory):
        scenarios = build_fleet_scenarios(ScenarioConfig(n_hours=48), factory, n_hubs=5)
        planes = fleet_traces(scenarios)
        for subset in (scenarios[::-1], scenarios[1:], scenarios[:1] + scenarios[2:]):
            stacked = fleet_traces(subset)
            assert stacked is not planes
            for name in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(stacked, name), np.stack([getattr(s, name) for s in subset])
                )

    def test_replaced_scenario_drops_the_plane_link(self, factory):
        scenarios = build_fleet_scenarios(ScenarioConfig(n_hours=24), factory, n_hubs=3)
        edited = dataclasses.replace(scenarios[1], load_rate=np.zeros(24))
        assert edited.fleet_row is None
        traces = fleet_traces([scenarios[0], edited, scenarios[2]])
        assert not traces.load_rate[1].any()

    def test_compiled_engine_reads_the_assembly_planes(self):
        compiled = api.build(spec_from_fleet_flags(n_hubs=6, days=2))
        planes = fleet_traces(compiled.scenarios)
        inputs = compiled.simulation.inputs
        assert inputs.load_rate is planes.load_rate
        assert inputs.pv_power_kw is planes.pv_power_kw


# --------------------------------------------------------------------- #
# Outage sampler                                                         #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("probability", [0.0, 5e-4, 0.01, 0.2, 0.9, 1.0])
@pytest.mark.parametrize("recovery_time_h", [1, 2, 4, 9])
def test_block_outage_sampler_matches_the_slot_loop(probability, recovery_time_h):
    model = BlackoutModel(
        BlackoutConfig(
            outage_probability_per_hour=probability, recovery_time_h=recovery_time_h
        )
    )
    for seed in range(5):
        for n_hours in (0, 1, 5, 168, 720):
            rng = RngFactory(seed=seed).stream("fleet/outage/0")
            oracle_rng = RngFactory(seed=seed).stream("fleet/outage/0")
            got = model.sample_outages(n_hours, rng)
            want = oracle_outages(n_hours, probability, recovery_time_h, oracle_rng)
            assert np.array_equal(got, want), (seed, n_hours)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_block_outage_sampler_restores_a_bulk_stream_with_a_buffered_word():
    """A bulk-made stream that holds a buffered 32-bit word (``has_uint32``)
    is rewound with it, and ends in the slot loop's state."""
    model = BlackoutModel(
        BlackoutConfig(outage_probability_per_hour=0.2, recovery_time_h=3)
    )
    rng = RngFactory(seed=11).streams(["other", "fleet/outage/0"])[1]
    oracle_rng = oracle_stream(11, "fleet/outage/0")
    for stream in (rng, oracle_rng):
        stream.integers(0, 10)
    assert rng.bit_generator.state["has_uint32"] == 1
    got = model.sample_outages(168, rng)
    want = oracle_outages(168, 0.2, 3, oracle_rng)
    assert got.any() and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# --------------------------------------------------------------------- #
# The charging model, strata and outages over the hub axis               #
# --------------------------------------------------------------------- #

#: Per-station [incentive, always] multipliers (the group scale path).
STRATA_SCALES = np.array(
    [[1.0, 1.0], [3.0, 0.2], [0.5, 2.5], [1.0, 1.0], [2.0, 2.0], [0.1, 4.0], [1.5, 1.0]]
)

#: Anchors that scaled profiles push past the 0.95 cell-type cap.
OVERFLOW_ANCHORS = dict(
    always_anchors=(0.45, 0.5, 0.5, 0.45),
    incentive_anchors=(0.45, 0.4, 0.4, 0.45),
    cell_activity=1.0,
)

CHARGING_CASES = {
    "default": (ChargingConfig(n_stations=7), None),
    "group-scales": (ChargingConfig(n_stations=7), STRATA_SCALES),
    "overflow": (ChargingConfig(n_stations=7, **OVERFLOW_ANCHORS), None),
    "overflow-scales": (
        ChargingConfig(n_stations=7, station_jitter=0.3, **OVERFLOW_ANCHORS),
        STRATA_SCALES,
    ),
    "no-jitter": (ChargingConfig(n_stations=3, station_jitter=0.0), None),
}


def _charging_case(name, seed):
    config, scales = CHARGING_CASES[name]
    model = ChargingBehaviorModel(config, RngFactory(seed), strata_scales=scales)
    return model, config, scales


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CHARGING_CASES))
class TestChargingTables:
    def test_profiles(self, case, seed):
        model, config, _ = _charging_case(case, seed)
        want = np.array(
            [
                [p.demand_scale, p.incentive_scale, p.always_scale]
                for p in oracle_profiles(config, seed)
            ]
        )
        got = model._profiles
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_cell_types(self, case, seed):
        model, config, scales = _charging_case(case, seed)
        want = oracle_cell_types(config, oracle_profiles(config, seed), scales, seed)
        got = model._cell_types
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_hours", [0, 1, 168])
    def test_cell_type_probabilities_read_back(self, case, seed, n_hours):
        model, config, scales = _charging_case(case, seed)
        profiles = oracle_profiles(config, seed)
        hours = (np.arange(n_hours) * 0.37) % HOURS_PER_DAY
        for station_id in range(config.n_stations):
            got = model._type_probability_table(np.array([station_id]), hours)[0]
            want = oracle_cell_type_probabilities(
                config, profiles, scales, station_id, hours
            )
            assert got.shape == want.shape == (n_hours, 3)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_hours", [0, 1, 168])
    def test_strata_planes(self, case, seed, n_hours):
        model, config, _ = _charging_case(case, seed)
        hub_ids = [2, 0, 1] if config.n_stations == 3 else [3, 0, 6, 1, 5, 2, 4]
        rngs = RngFactory(seed).streams([f"fleet/occupancy/{i}" for i in hub_ids])
        got = model.strata_planes(hub_ids, np.arange(n_hours), rngs)
        want = oracle_fleet_strata(model, hub_ids, n_hours, seed)
        assert got.dtype == want.dtype and got.shape == (len(hub_ids), n_hours)
        assert got.tobytes() == want.tobytes()
        oracle_rngs = [oracle_stream(seed, f"fleet/occupancy/{i}") for i in hub_ids]
        for rng in oracle_rngs:
            rng.random(n_hours)
        _assert_same_next_draw(rngs, oracle_rngs)

    def test_strata_planes_with_a_daily_confounder(self, case, seed):
        model, config, _ = _charging_case(case, seed)
        slots = np.arange(72)
        confounder = np.repeat(np.random.default_rng(seed).normal(0, 0.3, 3), 24)
        hub_ids = list(range(config.n_stations))
        names = [f"log/{i}" for i in hub_ids]
        got = model.strata_planes(
            hub_ids, slots, RngFactory(seed).streams(names), confounder=confounder
        )
        for row, (hub_id, name) in enumerate(zip(hub_ids, names)):
            want = oracle_realize_strata(
                model, hub_id, slots, oracle_stream(seed, name), confounder
            )
            assert got[row].tobytes() == want.tobytes()

    def test_sample_strata_is_a_one_row_plane(self, case, seed):
        model, config, _ = _charging_case(case, seed)
        slots = np.arange(5, 53)
        station = config.n_stations - 1
        got = model.sample_strata(station, slots, RngFactory(seed).stream("one"))
        want = oracle_realize_strata(model, station, slots, oracle_stream(seed, "one"))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["overflow", "overflow-scales"])
def test_overflow_cases_hit_the_cap(case):
    model, config, _ = _charging_case(case, 0)
    probs = model._type_probability_table(
        np.arange(config.n_stations), np.arange(HOURS_PER_DAY)
    )
    capped = np.isclose(probs[..., 1] + probs[..., 2], 0.95)
    assert capped.mean() > 0.25


class TestStationIdRange:
    @pytest.fixture()
    def model(self):
        return ChargingBehaviorModel(ChargingConfig(n_stations=3), RngFactory(0))

    @pytest.mark.parametrize("station_id", [-1, 3, 10])
    def test_sample_strata_rejects_ids_outside_the_fleet(self, model, station_id):
        rng = RngFactory(0).stream("s")
        with pytest.raises(ConfigError, match="outside fleet of 3"):
            model.sample_strata(station_id, np.arange(24), rng)
        assert rng.bit_generator.state == RngFactory(0).stream("s").bit_generator.state

    def test_strata_planes_check_the_whole_id_array(self, model):
        rngs = RngFactory(0).streams(["a", "b", "c"])
        with pytest.raises(ConfigError, match="station_id 5 outside fleet of 3"):
            model.strata_planes([0, 5, 1], np.arange(24), rngs)
        with pytest.raises(ConfigError, match="station_id -2 outside fleet of 3"):
            model.strata_planes([0, 1, -2], np.arange(24), rngs)

    def test_cell_type_probabilities_share_the_check(self, model):
        """The one-row path and the plane path reject an id the same way."""
        with pytest.raises(ConfigError, match="station_id -1 outside fleet of 3"):
            model.sample_strata(-1, np.arange(24), RngFactory(0).stream("s"))
        with pytest.raises(ConfigError, match="station_id -1 outside fleet of 3"):
            model.strata_planes([-1], np.arange(24), [RngFactory(0).stream("s")])

    def test_non_integer_ids_rejected(self, model):
        with pytest.raises(ConfigError, match="integers"):
            model.strata_planes([0.0, 1.0], np.arange(24), RngFactory(0).streams(["a", "b"]))

    def test_one_stream_per_station(self, model):
        with pytest.raises(ConfigError, match="2 streams for 3 stations"):
            model.strata_planes([0, 1, 2], np.arange(24), RngFactory(0).streams(["a", "b"]))

    def test_no_stations(self, model):
        assert model.strata_planes([], np.arange(24), []).shape == (0, 24)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("probability", [0.001, 0.2])
@pytest.mark.parametrize("n_hours", [0, 1, 168])
def test_outage_planes_match_the_per_hub_comprehension(seed, probability, n_hours):
    model = BlackoutModel(
        BlackoutConfig(outage_probability_per_hour=probability, recovery_time_h=4)
    )
    hub_ids = list(range(40))
    rngs = RngFactory(seed).streams([f"fleet/outage/{i}" for i in hub_ids])
    got = model.sample_outage_planes(n_hours, rngs)
    want = oracle_fleet_outages(probability, 4, hub_ids, n_hours, seed)
    assert got.shape == (40, n_hours) and got.dtype == bool
    assert got.tobytes() == want.tobytes()
    oracle_rngs = [oracle_stream(seed, f"fleet/outage/{i}") for i in hub_ids]
    for rng in oracle_rngs:
        oracle_outages(n_hours, probability, 4, rng)
    for rng, oracle_rng in zip(rngs, oracle_rngs):
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_assembly_strata_and_outages_match_the_per_hub_loops(seed):
    spec = ScenarioSpec(
        name="planes",
        fleet=FleetSpec(
            groups=(
                HubGroupSpec(count=3),
                HubGroupSpec(count=2, incentive_scale=3.0, always_scale=0.2),
                HubGroupSpec(count=2, always_scale=2.5),
            )
        ),
        blackout=BlackoutSpec(outage_probability_per_hour=0.2, recovery_time_h=3),
        run=RunSpec(days=7, seed=seed),
    )
    assembly = _assemble_fleet(spec)
    hub_ids = [scenario.site.hub_id for scenario in assembly.scenarios]
    scales = np.ones((7, 2))
    scales[3:5] = [3.0, 0.2]
    scales[5:, 1] = 2.5
    config = assembly.behavior.config
    want_types = oracle_cell_types(config, oracle_profiles(config, seed), scales, seed)
    assert assembly.behavior._cell_types.tobytes() == want_types.tobytes()
    want_strata = oracle_fleet_strata(assembly.behavior, hub_ids, 168, seed)
    assert assembly.realize_strata().tobytes() == want_strata.tobytes()
    want_outage = oracle_fleet_outages(0.2, 3, hub_ids, 168, seed)
    assert assembly.outage.any()
    assert assembly.outage.tobytes() == want_outage.tobytes()


# --------------------------------------------------------------------- #
# Serial sweeps reuse the assembly                                       #
# --------------------------------------------------------------------- #


def _counting_synthesis(monkeypatch):
    calls = []
    original = hub_scenario.synthesize_traces

    def counted(sites, config, factory):
        calls.append(len(sites))
        return original(sites, config, factory)

    monkeypatch.setattr(parallel, "_WORKER_ASSEMBLY", None)
    monkeypatch.setattr("repro.spec.compiler.synthesize_traces", counted)
    return calls


def _standalone_export(result) -> str:
    """A sweep result's export with the sweep tags taken back out."""
    payload = result.to_json_dict()
    payload["experiment_id"] = "fleet"
    payload["data"].pop("sweep")
    payload["data"].pop("sweep_overrides")
    return json.dumps(payload, sort_keys=True)


def test_serial_sweep_synthesizes_each_fleet_once(monkeypatch):
    """Scheduler, allocation, initial-SoC and VoLL changes reuse one
    assembly and step as one stacked engine per storage mode, and every
    job still matches its own cold compile byte for byte — blackouts and
    congested feeders included."""
    from repro.fleet.simulation import FleetSimulation

    calls = _counting_synthesis(monkeypatch)
    steps = []
    step = FleetSimulation.step

    def counted_step(self, actions, **kwargs):
        steps.append(self.n_jobs)
        return step(self, actions, **kwargs)

    monkeypatch.setattr(FleetSimulation, "step", counted_step)
    base = spec_from_fleet_flags(
        n_hubs=5, days=2, n_feeders=2, feeder_capacity_kw=20.0
    ).with_overrides({"blackout.outage_probability_per_hour": 0.2})
    sweep = SweepSpec(
        base=base,
        parameters={
            "run.storage": ("dense", "windowed"),
            "scheduler.name": ("idle", "rule-based", "greedy-renewable", "random"),
            "grid.allocation": ("proportional", "priority"),
            "run.initial_soc_fraction": (0.2, 0.9),
            "run.voll_per_kwh": (0.0, 3.0),
        },
    )
    results = api.run_sweep(sweep)
    assert calls == [5]
    # Two stacked groups of 32 jobs, 48 slots each.
    assert steps == [32] * 96
    assert sum(result.data["blackout_slots"] for result in results) > 0
    assert sum(result.data["congested_feeder_slots"] for result in results) > 0
    monkeypatch.setattr(FleetSimulation, "step", step)
    for result, job in zip(results, sweep.jobs()):
        assert _standalone_export(result) == json.dumps(
            api.run(job.spec).to_json_dict(), sort_keys=True
        )


def test_serial_sweep_reassembles_when_the_fleet_changes(monkeypatch):
    calls = _counting_synthesis(monkeypatch)
    sweep = SweepSpec(
        base=spec_from_fleet_flags(n_hubs=4, days=2),
        parameters={"run.seed": (0, 1), "scheduler.name": ("idle", "greedy-renewable")},
    )
    api.run_sweep(sweep)
    assert calls == [4, 4]
