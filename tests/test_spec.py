"""Tests for the declarative spec layer: round-trips, overrides, sweeps,
the compiler, presets, the VoLL penalty, and the repro.api facade.

The load-bearing guarantees:

* every preset survives ``to_dict → json → from_dict`` bit-identically
  and still *builds*;
* unknown keys anywhere in a spec payload raise :class:`ConfigError`;
* the legacy flag shim (``ect-hub fleet --n-hubs …``) and its spec-built
  twin produce identical results;
* a heterogeneous-fleet spec (per-hub battery/feeder overrides) runs
  through ``repro.api.run`` with results reproduced byte-identically from
  its serialized JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.energy.battery import BatteryConfig
from repro.errors import ConfigError
from repro.experiments.base import jsonable
from repro.spec import (
    BlackoutSpec,
    FleetSpec,
    GridSpec,
    HubGroupSpec,
    RunSpec,
    ScenarioSpec,
    SchedulerSpec,
    SweepSpec,
    apply_overrides,
    available_presets,
    build,
    get_preset,
    parse_assignments,
    spec_from_fleet_flags,
    verify_roundtrips,
)
from repro.spec.compiler import execute_jobs
from repro.spec.scenario import SCHEMA_VERSION

from fleet_oracle import hub_book

#: A tiny heterogeneous scenario reused across tests (fast to run).
HETERO_SPEC = ScenarioSpec(
    name="hetero-test",
    fleet=FleetSpec(
        groups=(
            HubGroupSpec(count=2, battery_scale=0.5, feeder=1),
            HubGroupSpec(count=2),
            HubGroupSpec(
                count=2,
                kind="rural",
                battery=BatteryConfig(capacity_kwh=400.0, charge_rate_kw=80.0),
            ),
        )
    ),
    grid=GridSpec(n_feeders=2, feeder_capacity_kw=180.0),
    scheduler=SchedulerSpec(name="rule-based"),
    blackout=BlackoutSpec(outage_probability_per_hour=0.01),
    run=RunSpec(days=3, seed=7, voll_per_kwh=1.5),
)


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", available_presets())
    def test_every_preset_round_trips_through_json(self, name):
        spec = get_preset(name)
        payload = spec.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION == 3
        rebuilt = ScenarioSpec.from_json(json.dumps(payload))
        assert rebuilt == spec

    def test_verify_roundtrips_reports_all_presets(self):
        assert verify_roundtrips() == available_presets()

    def test_heterogeneous_spec_round_trips(self):
        rebuilt = ScenarioSpec.from_json(HETERO_SPEC.to_json())
        assert rebuilt == HETERO_SPEC
        assert rebuilt.fleet.groups[0].battery_scale == 0.5
        assert isinstance(rebuilt.fleet.groups[2].battery, BatteryConfig)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        HETERO_SPEC.save(path)
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION
        assert ScenarioSpec.load(path) == HETERO_SPEC

    def test_sweep_round_trips(self, tmp_path):
        sweep = SweepSpec(
            base=HETERO_SPEC,
            parameters={"run.seed": (0, 1), "grid.feeder_capacity_kw": (100.0, 50.0)},
        )
        rebuilt = SweepSpec.from_dict(
            json.loads(json.dumps(sweep.to_dict()))
        )
        assert rebuilt == sweep
        path = tmp_path / "sweep.json"
        sweep.save(path)
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION
        assert SweepSpec.load(path) == sweep


class TestUnknownKeys:
    def test_top_level_unknown_key_raises(self):
        payload = ScenarioSpec().to_dict()
        payload["n_hubs"] = 4
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)

    def test_nested_unknown_key_raises(self):
        payload = ScenarioSpec().to_dict()
        payload["grid"]["feeder_capacity"] = 100.0
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)

    def test_group_level_unknown_key_raises(self):
        payload = HETERO_SPEC.to_dict()
        payload["fleet"]["groups"][0]["battery_size"] = 2.0
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)


def v1_payload(spec: ScenarioSpec, backend: str) -> dict:
    """A spec as schema version 1 saved it: no marker, a run backend."""
    payload = spec.to_dict()
    del payload["schema_version"]
    payload["run"]["backend"] = backend
    return payload


#: The dotted key of the run field schema version 3 removed.
REMOVED_IN_V3 = "run.shards"


def v2_payload(spec: ScenarioSpec, shards: int) -> dict:
    """A spec as schema version 2 saved it: a run shard count."""
    payload = spec.to_dict()
    payload["schema_version"] = 2
    payload["run"]["shards"] = shards
    return payload


class TestSchemaVersion:
    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_v1_backend_is_dropped_with_one_warning(self, backend, capsys):
        payload = v1_payload(ScenarioSpec(), backend)
        assert ScenarioSpec.from_dict(payload) == ScenarioSpec()
        err = capsys.readouterr().err
        assert err.count("[warning]") == 1
        assert "schema_version 1 is deprecated" in err
        assert payload["run"]["backend"] == backend  # input not mutated

    def test_v1_without_backend_loads_silently(self, capsys):
        payload = ScenarioSpec().to_dict()
        del payload["schema_version"]
        assert ScenarioSpec.from_dict(payload) == ScenarioSpec()
        assert capsys.readouterr().err == ""

    def test_v1_sweep_loads(self, capsys):
        # The dotted key of the run field schema version 2 removed.
        removed_key = ".".join(("run", "backend"))
        payload = {
            "name": "legacy",
            "base": v1_payload(HETERO_SPEC, "numba"),
            "parameters": {"run.seed": [0, 1], removed_key: ["numpy", "numba"]},
        }
        sweep = SweepSpec.from_dict(payload)
        assert sweep == SweepSpec(
            base=HETERO_SPEC, parameters={"run.seed": (0, 1)}, name="legacy"
        )
        assert sweep.n_jobs == 2
        assert capsys.readouterr().err.count("[warning]") == 1

    def test_future_version_rejected(self):
        payload = {**ScenarioSpec().to_dict(), "schema_version": 4}
        with pytest.raises(ConfigError, match="schema_version 4 .* schema_version 3"):
            ScenarioSpec.from_dict(payload)
        sweep = {**SweepSpec().to_dict(), "schema_version": 4}
        with pytest.raises(ConfigError, match="schema_version 4"):
            SweepSpec.from_dict(sweep)

    @pytest.mark.parametrize("bad", [0, "2", 1.5, True])
    def test_malformed_version_rejected(self, bad):
        payload = {**ScenarioSpec().to_dict(), "schema_version": bad}
        with pytest.raises(ConfigError, match="schema_version"):
            ScenarioSpec.from_dict(payload)

    def test_current_version_keeps_the_removed_field_unknown(self):
        payload = v1_payload(ScenarioSpec(), "numpy")
        payload["schema_version"] = 2
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)
        payload = v2_payload(ScenarioSpec(), 4)
        payload["schema_version"] = SCHEMA_VERSION
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec.from_dict(payload)

    def test_v2_shards_is_dropped_with_one_warning(self, capsys):
        payload = v2_payload(HETERO_SPEC, 4)
        assert ScenarioSpec.from_dict(payload) == HETERO_SPEC
        err = capsys.readouterr().err
        assert err.count("[warning]") == 1
        assert "schema_version 2 is deprecated" in err
        assert REMOVED_IN_V3 in err
        assert payload["run"]["shards"] == 4  # input not mutated

    def test_v1_drops_both_removed_fields_with_one_warning(self, capsys):
        payload = v1_payload(ScenarioSpec(), "numpy")
        payload["run"]["shards"] = 2
        assert ScenarioSpec.from_dict(payload) == ScenarioSpec()
        err = capsys.readouterr().err
        assert err.count("[warning]") == 1
        assert "run.backend, run.shards" in err

    def test_v2_sweep_drops_the_shards_axis(self, capsys):
        base = v2_payload(HETERO_SPEC, 2)
        del base["schema_version"]  # the base shares the sweep's marker
        payload = {
            "schema_version": 2,
            "name": "legacy",
            "base": base,
            "parameters": {"run.seed": [0, 1], REMOVED_IN_V3: [1, 2]},
        }
        sweep = SweepSpec.from_dict(payload)
        assert sweep == SweepSpec(
            base=HETERO_SPEC, parameters={"run.seed": (0, 1)}, name="legacy"
        )
        assert sweep.n_jobs == 2
        err = capsys.readouterr().err
        assert err.count("[warning]") == 1
        assert REMOVED_IN_V3 in err

    def test_version_is_not_a_settable_field(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec().with_overrides({"schema_version": 1})


class TestValidation:
    def test_bad_scheduler_name(self):
        with pytest.raises(ConfigError, match="unknown fleet scheduler"):
            SchedulerSpec(name="nope")

    def test_bad_allocation(self):
        with pytest.raises(ConfigError, match="allocation"):
            GridSpec(allocation="first-come")

    def test_profile_requires_capacity(self):
        with pytest.raises(ConfigError, match="capacity_profile"):
            GridSpec(capacity_profile=(1.0, 0.5))

    def test_group_counts_must_match_n_hubs(self):
        with pytest.raises(ConfigError, match="group counts"):
            FleetSpec(n_hubs=5, groups=(HubGroupSpec(count=2),))

    def test_battery_override_exclusivity(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            HubGroupSpec(battery=BatteryConfig(), battery_scale=2.0)

    def test_negative_voll_rejected(self):
        with pytest.raises(ConfigError, match="voll_per_kwh"):
            RunSpec(voll_per_kwh=-1.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("days", 0),
            ("days", -2),
            ("days", 1.5),
            ("days", 2.0),
            ("days", True),
            ("days", "3"),
            ("seed", -3),
            ("seed", 1.0),
            ("seed", True),
            ("seed", None),
        ],
    )
    def test_run_days_and_seed_must_be_integers(self, field, bad):
        # Through the saved-spec route: JSON numbers reach RunSpec as-is.
        payload = ScenarioSpec().to_dict()
        payload["run"][field] = bad
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ScenarioSpec.from_json(json.dumps(payload))

    def test_numpy_run_integers_accepted_as_int(self):
        run = RunSpec(days=np.int64(3), seed=np.int32(0))
        assert (run.days, run.seed) == (3, 0)
        assert type(run.days) is int and type(run.seed) is int
        assert json.loads(ScenarioSpec(run=run).to_json())["run"]["days"] == 3

    def test_non_finite_run_knobs_rejected(self):
        with pytest.raises(ConfigError, match="voll_per_kwh"):
            RunSpec(voll_per_kwh=float("nan"))
        with pytest.raises(ConfigError, match="scale"):
            RunSpec(scale=float("inf"))
        with pytest.raises(ConfigError, match="feeder_capacity_kw"):
            GridSpec(feeder_capacity_kw=float("nan"))

    def test_scalar_costbook_rejects_non_finite_voll(self):
        from repro.errors import ReproError
        from scalar_oracle import CostBook

        with pytest.raises(ReproError, match="voll_per_kwh"):
            CostBook(voll_per_kwh=float("nan"))

    def test_scheduler_rejects_inapplicable_quantiles(self):
        with pytest.raises(ConfigError, match="does not take"):
            SchedulerSpec(name="idle", expensive_quantile=0.9)
        with pytest.raises(ConfigError, match="does not take"):
            SchedulerSpec(name="greedy-renewable", cheap_quantile=0.1)
        from repro.fleet import make_fleet_scheduler

        with pytest.raises(ConfigError, match="does not take"):
            make_fleet_scheduler("random", n_hubs=2, cheap_quantile=0.1)

    def test_feeder_out_of_range_fails_at_build(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(groups=(HubGroupSpec(count=4, feeder=3),)),
            grid=GridSpec(n_feeders=2),
            run=RunSpec(days=1),
        )
        with pytest.raises(ConfigError, match="feeder 3 out of range"):
            build(spec)


class TestOverrides:
    def test_dotted_leaf_override(self):
        spec = ScenarioSpec().with_overrides({"run.seed": 9})
        assert spec.run.seed == 9

    def test_int_widens_to_float(self):
        spec = ScenarioSpec().with_overrides({"run.scale": 2})
        assert spec.run.scale == 2.0 and isinstance(spec.run.scale, float)

    def test_group_index_override(self):
        spec = HETERO_SPEC.with_overrides({"fleet.groups.0.battery_scale": 0.25})
        assert spec.fleet.groups[0].battery_scale == 0.25
        assert HETERO_SPEC.fleet.groups[0].battery_scale == 0.5  # frozen base

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioSpec().with_overrides({"grid.capacity": 1.0})

    def test_bad_index_raises(self):
        with pytest.raises(ConfigError, match="out of range"):
            HETERO_SPEC.with_overrides({"fleet.groups.9.count": 1})

    def test_validation_reruns_on_override(self):
        with pytest.raises(ConfigError, match="n_feeders"):
            ScenarioSpec().with_overrides({"grid.n_feeders": 0})

    def test_dict_payload_rebuilds_nested_config(self):
        """A --set JSON object lands as a real config, not a raw dict."""
        spec = HETERO_SPEC.with_overrides(
            {"fleet.groups.1.battery": {"capacity_kwh": 333.0}}
        )
        group = spec.fleet.groups[1]
        assert isinstance(group.battery, BatteryConfig)
        assert group.battery.capacity_kwh == 333.0
        # The documented invariant survives the override path too.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert build(spec).simulation.params.capacity_kwh[2] == 333.0

    def test_dict_payload_replaces_whole_group(self):
        spec = HETERO_SPEC.with_overrides(
            {"fleet.groups.1": {"count": 2, "battery_scale": 3.0}}
        )
        assert spec.fleet.groups[1] == HubGroupSpec(count=2, battery_scale=3.0)

    def test_parse_assignments(self):
        overrides = parse_assignments(
            ["run.seed=3", "grid.feeder_capacity_kw=400", "fleet.n_hubs=null",
             "scheduler.name=idle"]
        )
        assert overrides == {
            "run.seed": 3,
            "grid.feeder_capacity_kw": 400,
            "fleet.n_hubs": None,
            "scheduler.name": "idle",
        }

    def test_parse_assignment_requires_equals(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            parse_assignments(["run.seed"])


class TestSweep:
    def test_grid_expansion_order(self):
        sweep = SweepSpec(
            base=ScenarioSpec(run=RunSpec(days=1)),
            parameters={"run.seed": (0, 1), "run.days": (1, 2, 3)},
        )
        assert sweep.n_jobs == 6
        jobs = sweep.jobs()
        assert [job.overrides["run.seed"] for job in jobs] == [0, 0, 0, 1, 1, 1]
        assert jobs[4].spec.run.days == 2 and jobs[4].spec.run.seed == 1

    def test_typo_key_fails_at_construction(self):
        with pytest.raises(ConfigError, match="unknown key"):
            SweepSpec(base=ScenarioSpec(), parameters={"run.sed": (0, 1)})

    @pytest.mark.parametrize(
        "key, values",
        [
            ("scheduler.name", ("idle", "bogus")),
            ("run.days", (1, -3)),
            ("grid.allocation", ("priority", "nope")),
        ],
    )
    def test_bad_value_after_the_first_fails_at_construction(self, key, values):
        with pytest.raises(ConfigError):
            SweepSpec(base=ScenarioSpec(), parameters={key: values})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            SweepSpec(base=ScenarioSpec(), parameters={"run.seed": ()})

    def test_run_sweep_tags_results(self):
        sweep = SweepSpec(
            base=ScenarioSpec(
                fleet=FleetSpec(n_hubs=4), run=RunSpec(days=1)
            ),
            parameters={"run.seed": (0, 1)},
        )
        results = api.run_sweep(sweep)
        assert [r.experiment_id for r in results] == ["fleet[0]", "fleet[1]"]
        assert results[1].data["sweep_overrides"] == {"run.seed": 1}
        assert results[0].data["network_profit"] != results[1].data["network_profit"]


class TestCompiler:
    def test_default_spec_matches_flag_shim_fleet(self):
        """A spec-built fleet and the legacy flag path are the same run."""
        from repro.experiments import run_experiment

        flag_result = run_experiment("fleet", scale=0.25, seed=5)
        spec_result = api.run(spec_from_fleet_flags(scale=0.25, seed=5))
        assert jsonable(flag_result.data) == jsonable(spec_result.data)

    def test_flag_shim_scale_defaults(self):
        spec = spec_from_fleet_flags(scale=0.5)
        assert spec.fleet.n_hubs == 12 and spec.run.days == 7
        tiny = spec_from_fleet_flags(scale=0.01)
        assert tiny.fleet.n_hubs == 4 and tiny.run.days == 7  # legacy floors

    def test_run_scale_applies_to_groups(self):
        spec = HETERO_SPEC.with_overrides({"run.scale": 0.5})
        compiled = build(spec)
        assert compiled.n_hubs == 3  # 1 + 1 + 1 after per-group scaling

    def test_heterogeneous_battery_compilation(self):
        compiled = build(HETERO_SPEC)
        caps = compiled.simulation.params.capacity_kwh
        assert compiled.n_hubs == 6
        # Group 0: half-size packs; group 2: explicit 400 kWh packs.
        assert np.allclose(caps[0:2], caps[2:4] * 0.5)
        assert np.allclose(caps[4:6], 400.0)
        # Group 0 pinned to feeder 1; others round-robined over 2 feeders.
        assert compiled.simulation.feeders.assignment.tolist() == [1, 1, 0, 1, 0, 1]
        # Kind override reaches the generated sites.
        assert [s.site.kind for s in compiled.scenarios[4:6]] == ["rural", "rural"]

    def test_heterogeneous_run_reproduced_from_json(self):
        """Acceptance: serialized spec ⇒ byte-identical results."""
        direct = api.run(HETERO_SPEC)
        replayed = api.run(ScenarioSpec.from_json(HETERO_SPEC.to_json()))
        direct_bytes = json.dumps(jsonable(direct.data), sort_keys=True)
        replayed_bytes = json.dumps(jsonable(replayed.data), sort_keys=True)
        assert direct_bytes == replayed_bytes

    def test_capacity_profile_tiles_over_horizon(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            grid=GridSpec(
                n_feeders=2,
                feeder_capacity_kw=100.0,
                capacity_profile=(1.0, 0.5),
            ),
            run=RunSpec(days=1),
        )
        feeders = build(spec).simulation.feeders
        assert feeders.import_capacity_kw.shape == (2, 24)
        assert feeders.import_capacity_kw[0, :4].tolist() == [100.0, 50.0, 100.0, 50.0]

    def test_preset_name_accepted_by_api(self):
        compiled = api.build("paper-default")
        assert compiled.n_hubs == 12
        with pytest.raises(ConfigError, match="unknown preset"):
            api.build("no-such-preset")

    def test_scheduler_quantiles_flow_through(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            scheduler=SchedulerSpec(
                name="rule-based", cheap_quantile=0.1, expensive_quantile=0.9
            ),
            run=RunSpec(days=1),
        )
        scheduler = build(spec).scheduler
        assert scheduler.cheap_quantile == 0.1
        assert scheduler.expensive_quantile == 0.9

    @pytest.mark.parametrize(
        "case", ["empty-list", "priced-in-list", "different-fleets", "discount-with-list"]
    )
    def test_list_build_refusals(self, case):
        spec = ScenarioSpec(fleet=FleetSpec(n_hubs=4), run=RunSpec(days=1))
        specs, kwargs, message = {
            "empty-list": ([], {}, "at least one spec"),
            "priced-in-list": (
                [spec, spec.with_overrides({"pricing.policy": "ours"})],
                {},
                "stack_key",
            ),
            "different-fleets": (
                [spec, spec.with_overrides({"fleet.n_hubs": 5})],
                {},
                "stack_key",
            ),
            "discount-with-list": ([spec], {"discount": np.zeros(24)}, "discount"),
        }[case]
        with pytest.raises(ConfigError, match=message):
            build(specs, **kwargs)


class TestVoll:
    def test_voll_charges_unserved_energy(self):
        base = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            blackout=BlackoutSpec(outage_probability_per_hour=0.05),
            run=RunSpec(days=3),
        )
        (free,) = execute_jobs(build([base]))
        (priced,) = execute_jobs(
            build([base.with_overrides({"run.voll_per_kwh": 2.0})])
        )
        assert free.total_unserved_kwh > 0.0
        assert priced.voll_cost == pytest.approx(2.0 * priced.total_unserved_kwh)
        assert priced.profit == pytest.approx(
            free.profit - 2.0 * free.total_unserved_kwh
        )

    def test_voll_zero_is_the_paper_objective(self):
        (book,) = execute_jobs(
            build([ScenarioSpec(fleet=FleetSpec(n_hubs=4), run=RunSpec(days=2))])
        )
        assert book.voll_cost == 0.0
        assert book.profit == pytest.approx(
            book.charging_revenue - book.operating_cost
        )

    def test_daily_rewards_include_voll(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            blackout=BlackoutSpec(outage_probability_per_hour=0.05),
            run=RunSpec(days=3, voll_per_kwh=2.0),
        )
        (book,) = execute_jobs(build([spec]))
        assert book.daily_rewards().sum() == pytest.approx(book.profit)

    def test_hub_book_carries_voll(self):
        spec = ScenarioSpec(
            fleet=FleetSpec(n_hubs=4),
            blackout=BlackoutSpec(outage_probability_per_hour=0.05),
            run=RunSpec(days=3, voll_per_kwh=2.0),
        )
        (book,) = execute_jobs(build([spec]))
        scalar = hub_book(book, 0)
        assert scalar.voll_per_kwh == 2.0
        assert scalar.profit == pytest.approx(float(book.profit_per_hub[0]))


class TestCliSpecMode:
    def test_fleet_preset_flag(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--preset", "paper-default", "--set", "run.days=1"]) == 0
        out = capsys.readouterr().out
        assert "scenario=paper-default" in out and "12 hubs x 1 days" in out

    def test_fleet_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spec.json"
        HETERO_SPEC.with_overrides({"run.days": 1}).save(path)
        assert main(["fleet", "--spec", str(path)]) == 0
        assert "6 hubs x 1 days" in capsys.readouterr().out

    def test_fleet_rejects_spec_plus_engine_flags(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--preset", "paper-default", "--n-hubs", "4"]) == 1
        assert "--set overrides" in capsys.readouterr().err

    def test_fleet_rejects_spec_plus_preset(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--preset", "a", "--spec", "b.json"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_presets_listing_and_show(self, capsys):
        from repro.cli import main

        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "congested-city" in out and "paper-default" in out
        assert main(["presets", "--show", "congested-city"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(shown) == get_preset("congested-city")

    def test_presets_check(self, capsys):
        from repro.cli import main

        assert main(["presets", "--check"]) == 0
        assert "round-trip and compile" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep",
                    "--preset",
                    "paper-default",
                    "--set",
                    "run.days=1",
                    "--set",
                    "fleet.n_hubs=4",
                    "--param",
                    "run.seed=0,1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "2 jobs" in printed
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert payload[0]["experiment_id"] == "fleet[0]"
        assert payload[1]["data"]["sweep_overrides"] == {"run.seed": 1}

    def test_sweep_requires_one_source(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--param", "run.seed=0,1"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_flag_shim_cli_matches_spec_cli(self, tmp_path):
        """The satellite guarantee: flag runs == their spec-built twins."""
        from repro.cli import main

        flag_out = tmp_path / "flags.json"
        spec_out = tmp_path / "spec.json"
        spec_path = tmp_path / "scenario.json"
        spec_from_fleet_flags(n_hubs=5, days=2, seed=3, scheduler="idle").save(
            spec_path
        )
        assert (
            main(
                [
                    "fleet", "--n-hubs", "5", "--days", "2", "--seed", "3",
                    "--scheduler", "idle", "--out", str(flag_out),
                ]
            )
            == 0
        )
        assert main(["fleet", "--spec", str(spec_path), "--out", str(spec_out)]) == 0
        assert flag_out.read_bytes() == spec_out.read_bytes()
