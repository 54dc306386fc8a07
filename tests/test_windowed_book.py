"""The windowed cost book and the ``run.storage`` knob.

``storage="windowed"`` books match dense aggregates to 1e-9 while
refusing the per-slot surfaces they no longer hold, and their memory
does not grow with the horizon. An executed book survives a pickle
round trip.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError, FleetError
from repro.spec.compiler import build, execute_jobs, spec_from_fleet_flags
from repro.spec.scenario import RunSpec, ScenarioSpec


def base_spec(**overrides) -> ScenarioSpec:
    spec = spec_from_fleet_flags(n_hubs=10, days=2)
    return spec.with_overrides(overrides) if overrides else spec


# --------------------------------------------------------------------- #
# Windowed cost book                                                      #
# --------------------------------------------------------------------- #


def run_pair(**overrides):
    spec = base_spec(
        **{"grid.n_feeders": 2, "grid.feeder_capacity_kw": 220.0, **overrides}
    )
    (dense,) = execute_jobs(build([spec]))
    (windowed,) = execute_jobs(
        build([spec.with_overrides({"run.storage": "windowed"})])
    )
    return dense, windowed


class TestWindowedBook:
    def test_aggregates_match_dense_to_1e_minus_9(self):
        dense, windowed = run_pair(**{"run.voll_per_kwh": 3.0})
        for name in (
            "profit_per_hub",
            "operating_cost_per_hub",
            "charging_revenue_per_hub",
            "voll_cost_per_hub",
            "unserved_per_hub_kwh",
        ):
            np.testing.assert_allclose(
                getattr(windowed, name),
                getattr(dense, name),
                rtol=1e-9,
                atol=1e-9,
                err_msg=name,
            )
        windowed_feeders = windowed.feeder_aggregates()
        dense_feeders = dense.feeder_aggregates()
        for name in (
            "feeder_import_kwh",
            "feeder_shortfall_kwh",
            "feeder_peak_import_kw",
        ):
            np.testing.assert_allclose(
                windowed_feeders[name],
                dense_feeders[name],
                rtol=1e-9,
                atol=1e-9,
                err_msg=name,
            )
        assert (
            windowed_feeders["congested_feeder_slots"]
            == dense_feeders["congested_feeder_slots"]
        )
        assert windowed.blackout_hub_slots == dense.blackout_hub_slots
        np.testing.assert_allclose(
            windowed.daily_rewards(), dense.daily_rewards(), rtol=1e-9, atol=1e-9
        )

    def test_memory_does_not_scale_with_horizon(self):
        short = api.build(
            base_spec(**{"run.storage": "windowed", "run.days": 2})
        ).simulation.books[0]
        long = api.build(
            base_spec(**{"run.storage": "windowed", "run.days": 8})
        ).simulation.books[0]
        dense_long = api.build(base_spec(**{"run.days": 8})).simulation.books[0]
        # Ring is horizon-independent; only the (n_hubs, n_days) daily
        # fold grows, by a few hundred bytes here.
        assert long.nbytes - short.nbytes < 1024
        assert long.nbytes < 0.25 * dense_long.nbytes

    def test_per_slot_surfaces_refused(self):
        _, windowed = run_pair()
        with pytest.raises(FleetError, match="dense"):
            windowed.feeder_import_kw()
        with pytest.raises(FleetError, match="dense"):
            _ = windowed.grid_cost

    def test_executed_book_survives_pickle(self):
        """A round-tripped book must report the same daily rewards."""
        (book,) = execute_jobs(build([base_spec()]))
        clone = pickle.loads(pickle.dumps(book))
        np.testing.assert_array_equal(clone.daily_rewards(), book.daily_rewards())


# --------------------------------------------------------------------- #
# RunSpec knobs                                                           #
# --------------------------------------------------------------------- #


class TestRunSpecKnobs:
    def test_defaults(self):
        assert RunSpec().storage == "dense"

    def test_round_trip(self):
        spec = base_spec(**{"run.storage": "windowed"})
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.run.storage == "windowed"

    @pytest.mark.parametrize("bad", ["sparse", "", None, 3])
    def test_invalid_storage_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunSpec(storage=bad)

    def test_dotted_overrides(self):
        spec = base_spec().with_overrides({"run.storage": "windowed"})
        assert spec.run.storage == "windowed"
        payload = json.loads(spec.to_json())
        assert payload["run"]["storage"] == "windowed"
