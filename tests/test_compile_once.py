"""The city compile's per-fleet shortcuts, held bit for bit to the per-hub
code they replace.

Each reference below is the per-hub form the compile used to run:
``np.clip`` on every site jitter draw, one ``normal(0, scale, size=n)``
per stream and a fresh Eq. 6 sizing per hub. The last tests pin the GC
pause across a compile: the caller's GC state comes back, also when the
compile raises.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.energy.base_station import BaseStationCluster, BaseStationConfig
from repro.energy.battery import BatteryConfig
from repro.errors import ConfigError, ConstraintViolation, FleetError
from repro.fleet.params import FleetParams
from repro.hub.constraints import sized_battery_config
from repro.hub.hub import HubConfig
from repro.hub.scenario import ScenarioConfig, _sized_battery, build_scenario
from repro.rng import RngFactory
from repro.spec import compiler
from repro.spec.compiler import build, spec_from_fleet_flags
from repro.synth.catalog import HubSite, default_fleet
from repro.synth.noise import exponential_rows, normal_rows
from repro.synth.rtp import RtpConfig, RtpGenerator


def clip_default_fleet(
    n_hubs: int, *, rng_factory: RngFactory, urban_fraction: float = 0.5
) -> list[HubSite]:
    """``default_fleet`` as it clipped each draw with ``np.clip``."""
    rng = rng_factory.stream("catalog/fleet")
    n_urban = int(round(urban_fraction * n_hubs))
    sites = []
    for hub_id in range(n_hubs):
        urban = hub_id < n_urban if n_urban else False
        urban = (hub_id % 2 == 0) if 0 < n_urban < n_hubs else urban
        if urban:
            sites.append(
                HubSite(
                    hub_id=hub_id,
                    kind="urban",
                    pv_kw=float(np.clip(rng.normal(20.0, 4.0), 8.0, 35.0)),
                    wt_kw=0.0,
                    traffic_scale=float(np.clip(rng.normal(1.2, 0.15), 0.8, 1.6)),
                    n_base_stations=int(rng.integers(2, 4)),
                )
            )
        else:
            sites.append(
                HubSite(
                    hub_id=hub_id,
                    kind="rural",
                    pv_kw=float(np.clip(rng.normal(30.0, 6.0), 10.0, 50.0)),
                    wt_kw=float(np.clip(rng.normal(25.0, 6.0), 8.0, 45.0)),
                    traffic_scale=float(np.clip(rng.normal(0.7, 0.1), 0.4, 1.0)),
                    n_base_stations=int(rng.integers(1, 3)),
                )
            )
    return sites


def bits(values: np.ndarray) -> bytes:
    """The raw bytes of an array: equal bytes are equal bits."""
    return np.ascontiguousarray(values).tobytes()


class TestNormalRows:
    @pytest.mark.parametrize(
        "scale", [0.12, float(np.sqrt(1.0 - 0.9**2)), np.float64(7.5), 0.0]
    )
    @pytest.mark.parametrize("n", [0, 1, 168, 1001])
    def test_rows_and_stream_states_match_per_stream_normal(self, scale, n):
        names = [f"hub/{i}/noise" for i in range(5)]
        plane = normal_rows(RngFactory(seed=3).streams(names), scale, n)
        references = RngFactory(seed=3).streams(names)
        expected = np.array([rng.normal(0.0, scale, size=n) for rng in references])
        assert plane.shape == (len(names), n)
        assert plane.dtype == np.float64 and plane.flags.c_contiguous
        assert bits(plane) == bits(expected.reshape(len(names), n))

    def test_each_stream_continues_where_normal_leaves_it(self):
        names = [f"hub/{i}/noise" for i in range(4)]
        streams = RngFactory(seed=11).streams(names)
        references = RngFactory(seed=11).streams(names)
        normal_rows(streams, 0.3, 50)
        for rng in references:
            rng.normal(0.0, 0.3, size=50)
        for rng, reference in zip(streams, references):
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.normal() == reference.normal()

    def test_rejects_a_negative_scale_like_normal(self):
        with pytest.raises(ValueError):
            normal_rows(RngFactory(seed=0).streams(["a"]), -1.0, 3)


class TestExponentialRows:
    @pytest.mark.parametrize("scale", [60.0, 0.5, np.float64(7.5), 0.0])
    @pytest.mark.parametrize("n", [0, 1, 168, 1001])
    def test_rows_and_stream_states_match_per_stream_exponential(self, scale, n):
        names = [f"hub/{i}/rtp" for i in range(5)]
        streams = RngFactory(seed=3).streams(names)
        plane = exponential_rows(streams, scale, n)
        references = RngFactory(seed=3).streams(names)
        expected = np.array([rng.exponential(scale, size=n) for rng in references])
        assert plane.shape == (len(names), n)
        assert plane.dtype == np.float64 and plane.flags.c_contiguous
        assert bits(plane) == bits(expected.reshape(len(names), n))
        for rng, reference in zip(streams, references):
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.random() == reference.random()

    def test_rejects_a_negative_scale_like_exponential(self):
        with pytest.raises(ValueError):
            exponential_rows(RngFactory(seed=0).streams(["a"]), -1.0, 3)

    def test_rtp_planes_equal_the_per_stream_draws(self):
        """The in-place spike draws give the prices and stream states of
        one ``random`` then one ``exponential`` call per stream."""
        names = [f"hub/{i}/rtp" for i in range(6)]
        # A floor and cap that never bind, so no clip hides a spike.
        bounds = {"price_floor_mwh": 1e-300, "price_cap_mwh": 1e300}
        cfg = RtpConfig(spike_probability=0.2, **bounds)
        streams = RngFactory(seed=8).streams(names)
        planes = RtpGenerator(cfg).generate_planes(200, streams)
        references = RngFactory(seed=8).streams(names)
        for rng in references:
            rng.standard_normal(200)  # the AR(1) innovations come first
        spikes = np.array([rng.random(200) for rng in references])
        sizes = np.array(
            [rng.exponential(cfg.spike_scale_mwh, size=200) for rng in references]
        )
        for rng, reference in zip(streams, references):
            assert rng.bit_generator.state == reference.bit_generator.state
        # The same draws with no spike fired: the spike-free prices.
        base = RtpGenerator(
            RtpConfig(spike_probability=0.0, **bounds)
        ).generate_planes(200, RngFactory(seed=8).streams(names))
        assert (base > 0.0).all()
        mask = spikes < cfg.spike_probability
        assert mask.any()
        assert bits(planes) == bits(base + mask * sizes)


class TestDefaultFleet:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_city_fleet_matches_the_np_clip_reference(self, seed):
        sites = default_fleet(2000, rng_factory=RngFactory(seed=seed))
        expected = clip_default_fleet(2000, rng_factory=RngFactory(seed=seed))
        assert sites == expected
        for site, reference in zip(sites, expected):
            for name in ("pv_kw", "wt_kw", "traffic_scale"):
                value = getattr(site, name)
                assert type(value) is float
                assert bits(np.float64(value)) == bits(np.float64(getattr(reference, name)))

    @pytest.mark.parametrize("urban_fraction", [0.0, 0.3, 1.0])
    def test_urban_fractions_match_the_reference(self, urban_fraction):
        sites = default_fleet(
            40, rng_factory=RngFactory(seed=2), urban_fraction=urban_fraction
        )
        assert sites == clip_default_fleet(
            40, rng_factory=RngFactory(seed=2), urban_fraction=urban_fraction
        )


class TestSizingMemo:
    @pytest.mark.parametrize("n_base_stations", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("recovery_time_h", [0, 4, 7])
    def test_memo_equals_a_fresh_sizing(self, n_base_stations, recovery_time_h):
        battery, base_station = BatteryConfig(), BaseStationConfig()
        fresh = sized_battery_config(
            battery,
            BaseStationCluster(n_base_stations, base_station),
            recovery_time_h,
        )
        for _ in range(2):
            sized = _sized_battery(
                battery, base_station, n_base_stations, recovery_time_h
            )
            assert sized == fresh
            assert sized.soc_min_kwh == fresh.soc_min_kwh

    def test_build_scenario_sizes_each_hub_like_a_fresh_sizing(self):
        factory = RngFactory(seed=5)
        config = ScenarioConfig(n_hours=24, recovery_time_h=6)
        for site in default_fleet(30, rng_factory=factory):
            scenario = build_scenario(site, config, factory)
            assert scenario.hub_config.battery == sized_battery_config(
                config.battery,
                BaseStationCluster(site.n_base_stations, config.base_station),
                config.recovery_time_h,
            )

    def test_an_infeasible_reserve_raises_on_every_call(self):
        # 4 BSs x 4 kW x 12 h = 192 kWh, above 95% of a 200 kWh pack.
        battery, base_station = BatteryConfig(), BaseStationConfig()
        with pytest.raises(ConstraintViolation):
            sized_battery_config(battery, BaseStationCluster(4, base_station), 12)
        for _ in range(2):
            with pytest.raises(ConstraintViolation):
                _sized_battery(battery, base_station, 4, 12)


class TestFleetParams:
    def test_rejects_mixed_slot_lengths_and_no_configs(self):
        with pytest.raises(FleetError, match="one slot length"):
            FleetParams.from_hub_configs([HubConfig(), HubConfig(dt_h=0.5)])
        with pytest.raises(FleetError, match="at least one"):
            FleetParams.from_hub_configs([])


class TestGcPause:
    def _spec(self, **flags):
        return spec_from_fleet_flags(n_hubs=4, days=1, seed=0, **flags)

    @staticmethod
    def _record_gc(monkeypatch, name, seen, error=None):
        """Record the GC state whenever ``compiler.<name>`` is called."""
        original = getattr(compiler, name)

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            if error is not None:
                raise error
            return original(*args, **kwargs)

        monkeypatch.setattr(compiler, name, recording)

    def test_gc_is_paused_while_the_fleet_and_engine_build(self, monkeypatch):
        assembly, engine = [], []
        self._record_gc(monkeypatch, "synthesize_traces", assembly)
        self._record_gc(monkeypatch, "make_scheduler", engine)
        assert gc.isenabled()
        build(self._spec())
        assert assembly == [False] and engine == [False]
        assert gc.isenabled()

    def test_gc_state_is_restored_after_a_compile_that_raises(self, monkeypatch):
        # Five feeders for four hubs fails inside the fleet assembly; a
        # discount of the wrong shape fails between the two pauses.
        assert gc.isenabled()
        with pytest.raises(ConfigError, match="feeders"):
            build(self._spec(n_feeders=5))
        assert gc.isenabled()
        with pytest.raises(ConfigError, match="discount"):
            build(self._spec(), discount=np.zeros((3, 5)))
        assert gc.isenabled()
        # A raise while the engine builds.
        seen = []
        self._record_gc(monkeypatch, "make_scheduler", seen, ConfigError("boom"))
        with pytest.raises(ConfigError, match="boom"):
            build(self._spec())
        assert seen == [False]
        assert gc.isenabled()

    def test_a_caller_that_disabled_gc_keeps_it_disabled(self):
        gc.disable()
        try:
            build(self._spec())
            assert not gc.isenabled()
            with pytest.raises(ConfigError):
                build(self._spec(n_feeders=5))
            assert not gc.isenabled()
        finally:
            gc.enable()
