"""Tests for units, timeutils, rng, and config plumbing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import config as config_mod
from repro import rng as rng_mod
from repro import timeutils, units
from repro.errors import ConfigError
from repro.rng import RngFactory


class TestUnits:
    def test_kw_to_watts(self):
        assert units.kw_to_watts(1.5) == pytest.approx(1500.0)


class TestSlotCalendar:
    def test_hour_of_day_wraps(self):
        cal = timeutils.SlotCalendar()
        assert cal.hour_of_day(25) == 1
        assert cal.hour_of_day(np.array([0, 24, 47])).tolist() == [0, 0, 23]

    def test_day_index(self):
        cal = timeutils.SlotCalendar()
        assert cal.day_index(47) == 1

    def test_day_of_year_wraps_year(self):
        cal = timeutils.SlotCalendar(start_day_of_year=364)
        assert cal.day_of_year(24) == 0

    def test_day_of_week_and_weekend(self):
        cal = timeutils.SlotCalendar(start_day_of_week=4)  # Friday
        assert cal.day_of_week(0) == 4
        assert not cal.is_weekend(0)
        assert cal.is_weekend(24)  # Saturday

    def test_period_6h(self):
        """The Fig. 12 periods tile the day in order, one label each."""
        bounds = [hour for period in timeutils.PERIODS_6H for hour in period]
        assert bounds == [0, 6, 6, 12, 12, 18, 18, 24]
        assert len(timeutils.PERIOD_LABELS) == len(timeutils.PERIODS_6H)
        assert timeutils.PERIOD_LABELS[-1] == "18:00-24:00"

    def test_invalid_start_day_rejected(self):
        with pytest.raises(ConfigError):
            timeutils.SlotCalendar(start_day_of_year=365)

    def test_diurnal_harmonic_peaks_at_peak_hour(self):
        hours = np.arange(24)
        values = timeutils.diurnal_harmonic(hours, peak_hour=15.0)
        assert values.argmax() == 15
        assert values.max() == pytest.approx(1.0)
        assert values.min() >= 0.0

    @given(peak=st.floats(0, 23.99), sharp=st.floats(0.5, 5))
    @settings(max_examples=25, deadline=None)
    def test_diurnal_harmonic_bounded(self, peak, sharp):
        values = timeutils.diurnal_harmonic(np.arange(24), peak, sharpness=sharp)
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)


class TestRngFactory:
    def test_same_name_same_stream(self):
        f = RngFactory(seed=5)
        a = f.stream("weather").normal(size=10)
        b = f.stream("weather").normal(size=10)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        f = RngFactory(seed=5)
        a = f.stream("weather").normal(size=10)
        b = f.stream("traffic").normal(size=10)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(seed=1).stream("x").normal(size=10)
        b = RngFactory(seed=2).stream("x").normal(size=10)
        assert not np.allclose(a, b)

    def test_substreams_independent(self):
        f = RngFactory(seed=5)
        streams = list(f.substreams("hub", 3))
        values = [s.normal(size=5) for s in streams]
        assert not np.allclose(values[0], values[1])
        assert not np.allclose(values[1], values[2])

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            RngFactory(seed=0).stream("")

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError):
            RngFactory(seed="abc")  # type: ignore[arg-type]

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)])
    def test_negative_seed_rejected_at_construction(self, seed):
        with pytest.raises(ConfigError, match="non-negative"):
            RngFactory(seed=seed)

    @pytest.mark.parametrize("seed", [True, False, np.bool_(True)])
    def test_bool_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="integer"):
            RngFactory(seed=seed)

    @pytest.mark.parametrize("names", [[""], ["ok", ""], [None], ["ok", 3]])
    def test_bad_names_rejected_in_bulk(self, names):
        with pytest.raises(ConfigError):
            RngFactory(seed=0).streams(names)


# --------------------------------------------------------------------- #
# Bulk stream derivation against numpy's SeedSequence                    #
# --------------------------------------------------------------------- #

#: One to five uint32 entropy words; 2**63 - 1 is the top of the range
#: ``RngFactory.child`` derives.
BULK_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**130)

#: ASCII, non-ASCII and duplicate names.
MIXED_NAMES = [
    "weather",
    "hub/0/traffic",
    "hub/1999/weather/solar",
    "fleet/outage/7",
    "größe/Ω",
    "站点/3",
    "🔋",
    "weather",
    "hub/0/traffic",
]


def _numpy_stream(seed: int, name: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


def _assert_streams_match_numpy(streams, seed, names):
    assert len(streams) == len(names)
    for got, name in zip(streams, names):
        want = _numpy_stream(seed, name)
        assert got.bit_generator.state == want.bit_generator.state, name
        assert got.random(3).tobytes() == want.random(3).tobytes()
        assert got.normal(size=3).tobytes() == want.normal(size=3).tobytes()
        assert got.integers(0, 1000, size=3).tobytes() == (
            want.integers(0, 1000, size=3).tobytes()
        )
        assert got.bit_generator.state == want.bit_generator.state


class TestBulkStreams:
    @pytest.mark.parametrize("seed", BULK_SEEDS)
    def test_mixed_names_match_seed_sequence_children(self, seed):
        _assert_streams_match_numpy(
            RngFactory(seed).streams(MIXED_NAMES), seed, MIXED_NAMES
        )

    @pytest.mark.parametrize("seed", BULK_SEEDS)
    def test_one_name_and_stream_match(self, seed):
        factory = RngFactory(seed)
        _assert_streams_match_numpy(factory.streams(["x"]), seed, ["x"])
        _assert_streams_match_numpy([factory.stream("x")], seed, ["x"])

    def test_no_names(self):
        assert RngFactory(3).streams([]) == []
        assert RngFactory(3).substreams("hub", 0) == []

    @pytest.mark.parametrize("seed", [1, 2**130])
    def test_four_thousand_names(self, seed):
        names = [f"hub/{index}/weather/wind" for index in range(4000)]
        _assert_streams_match_numpy(RngFactory(seed).streams(names), seed, names)

    def test_duplicate_names_are_equal_but_independent(self):
        first, second = RngFactory(5).streams(["a", "a"])
        assert first is not second
        assert first.random() == second.random()

    def test_substreams(self):
        names = [f"hub/{index}" for index in range(25)]
        _assert_streams_match_numpy(RngFactory(9).substreams("hub", 25), 9, names)

    @pytest.mark.parametrize("seed", BULK_SEEDS)
    def test_spawn_keys_below_two_to_the_32(self, seed):
        """``SeedSequence`` mixes a key below 2**32 as one word; no name
        hashes there in practice, so the keys go in directly."""
        keys = [0, 5, 2**32 - 1, 2**32, 2**64 - 1]
        words = np.array([[k & 0xFFFFFFFF, k >> 32] for k in keys], dtype=np.uint32)
        got = rng_mod._pcg64_seed_words(seed, words)
        for row, key in zip(got, keys):
            want = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
            assert row.tobytes() == want.generate_state(4, np.uint64).tobytes(), key

    def test_bulk_stream_survives_pickle(self):
        stream = RngFactory(4).stream("weather")
        stream.random(5)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.random(4).tobytes() == stream.random(4).tobytes()


@dataclasses.dataclass(frozen=True)
class _Inner:
    value: float = 1.0


@dataclasses.dataclass(frozen=True)
class _Outer:
    name: str = "x"
    inner: _Inner = dataclasses.field(default_factory=_Inner)
    sizes: tuple = (1, 2)


class TestConfigPlumbing:
    def test_round_trip(self):
        outer = _Outer(name="hub", inner=_Inner(value=2.5), sizes=(3, 4))
        payload = config_mod.to_dict(outer)
        restored = config_mod.from_dict(_Outer, payload)
        assert restored == outer

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_mod.from_dict(_Outer, {"nope": 1})

    def test_non_dataclass_rejected(self):
        with pytest.raises(ConfigError):
            config_mod.to_dict(42)

    def test_json_round_trip(self, tmp_path):
        outer = _Outer(name="io", inner=_Inner(value=0.5), sizes=(5, 6))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_mod.to_dict(outer)))
        assert config_mod.from_dict(_Outer, config_mod.read_json(path)) == outer

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            config_mod.read_json(path)

    def test_replace(self):
        outer = _Outer()
        assert config_mod.replace(outer, name="y").name == "y"
        with pytest.raises(ConfigError):
            config_mod.replace(outer, bogus=1)


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a fresh interpreter (so other tests cannot mask an
    import) over this checkout's ``repro``; returns its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.strip()


class TestImportFootprint:
    def test_api_import_leaves_networkx_unloaded(self):
        """The road network is a plain edge array, so neither ``repro.api``
        nor the fig1 experiment may load networkx."""
        loaded = _fresh_interpreter(
            "import sys, repro.api, repro.experiments.fig1_overlap; "
            "print('networkx' in sys.modules)"
        )
        assert loaded == "False"

    def test_serial_sweep_leaves_the_process_pool_unloaded(self):
        """A ``jobs=1`` sweep runs in-process, so it must not import the
        process-pool machinery (multiprocessing and its helpers)."""
        loaded = _fresh_interpreter(
            "import sys\n"
            "from repro import api\n"
            "from repro.spec import SweepSpec\n"
            "from repro.spec.compiler import spec_from_fleet_flags\n"
            "sweep = SweepSpec(base=spec_from_fleet_flags(n_hubs=3, days=1), "
            "parameters={'scheduler.name': ('idle', 'rule-based')})\n"
            "assert len(api.run_sweep(sweep, jobs=1)) == 2\n"
            "print('concurrent.futures.process' in sys.modules)"
        )
        assert loaded == "False"
