"""Tests for the vectorized fleet engine (repro.fleet).

The centrepiece is the property-style equivalence suite: a batched
:class:`FleetSimulation` run must agree with N independent scalar
:class:`HubSimulation` runs (the oracle frozen in ``tests/scalar_oracle``)
within atol 1e-9 for every shared scheduler,
including blackout slots. Also covers the struct-of-arrays containers, the
shared NaN/inf trace validation, blackout edge cases on both engines, and
the fleet CLI/experiment plumbing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.energy.battery import BatteryConfig, CHARGE, DISCHARGE, IDLE
from repro.errors import ConfigError, DataError, FleetError
from repro.fleet import (
    FeederGroup,
    FleetCostBook,
    FleetInputs,
    FleetParams,
    FleetSimulation,
    FleetGreedyRenewableScheduler,
    FleetIdleScheduler,
    FleetRandomScheduler,
    FleetRuleBasedScheduler,
    build_default_fleet,
    fleet_simulation_from_scenarios,
    make_fleet_scheduler,
)
from repro.hub.hub import HubConfig
from repro.rng import RngFactory
from repro.spec import FleetSpec, GridSpec, ScenarioSpec
from repro.spec.compiler import assemble_sites

from fleet_oracle import hub_book, hub_inputs, stack_hub_inputs, uniform_feeders
from scalar_oracle import (
    EctHub,
    GreedyRenewableScheduler,
    HubInputs,
    HubSimulation,
    IdleScheduler,
    RandomScheduler,
    RuleBasedScheduler,
    build_hub,
)

ATOL = 1e-9


def small_hub_config(**battery_kwargs) -> HubConfig:
    """A hub with a small battery so SoC bounds are reached quickly."""
    battery = BatteryConfig(
        capacity_kwh=10.0,
        charge_rate_kw=5.0,
        discharge_rate_kw=5.0,
        **battery_kwargs,
    )
    return HubConfig(battery=battery, n_base_stations=2, pv=None)


def flat_inputs(
    horizon: int = 6,
    *,
    outage: np.ndarray | None = None,
    occupied: np.ndarray | None = None,
) -> HubInputs:
    """Deterministic traces: constant BS idle load, no renewables."""
    return HubInputs(
        load_rate=np.zeros(horizon),
        rtp_kwh=np.full(horizon, 0.1),
        pv_power_kw=np.zeros(horizon),
        wt_power_kw=np.zeros(horizon),
        occupied=np.zeros(horizon, dtype=int) if occupied is None else occupied,
        discount=np.zeros(horizon),
        outage=outage,
    )


# --------------------------------------------------------------------- #
# Trace validation (shared by both engines)                              #
# --------------------------------------------------------------------- #


class TestTraceValidation:
    def test_hub_inputs_reject_nan(self):
        load = np.zeros(4)
        load[2] = np.nan
        with pytest.raises(DataError, match="NaN"):
            HubInputs(
                load_rate=load,
                rtp_kwh=np.zeros(4),
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )

    def test_hub_inputs_reject_inf(self):
        rtp = np.zeros(4)
        rtp[0] = np.inf
        with pytest.raises(DataError, match="NaN or inf"):
            HubInputs(
                load_rate=np.zeros(4),
                rtp_kwh=rtp,
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )

    def test_fleet_inputs_reject_nan(self):
        pv = np.zeros((2, 4))
        pv[1, 3] = np.nan
        with pytest.raises(DataError, match="pv_power_kw"):
            FleetInputs(
                load_rate=np.zeros((2, 4)),
                rtp_kwh=np.zeros((2, 4)),
                pv_power_kw=pv,
                wt_power_kw=np.zeros((2, 4)),
                occupied=np.zeros((2, 4), dtype=int),
                discount=np.zeros((2, 4)),
            )

    def test_fleet_inputs_range_checks(self):
        with pytest.raises(DataError, match="load_rate"):
            FleetInputs(
                load_rate=np.full((2, 4), 1.5),
                rtp_kwh=np.zeros((2, 4)),
                pv_power_kw=np.zeros((2, 4)),
                wt_power_kw=np.zeros((2, 4)),
                occupied=np.zeros((2, 4), dtype=int),
                discount=np.zeros((2, 4)),
            )

    def test_fleet_inputs_must_be_2d(self):
        with pytest.raises(FleetError, match="2-D"):
            FleetInputs(
                load_rate=np.zeros(4),
                rtp_kwh=np.zeros(4),
                pv_power_kw=np.zeros(4),
                wt_power_kw=np.zeros(4),
                occupied=np.zeros(4, dtype=int),
                discount=np.zeros(4),
            )


# --------------------------------------------------------------------- #
# Containers                                                             #
# --------------------------------------------------------------------- #


class TestContainers:
    def test_stack_and_hub_round_trip(self):
        rows = [flat_inputs(5), flat_inputs(5, outage=np.array([0, 1, 0, 0, 1], dtype=bool))]
        fleet = stack_hub_inputs(rows)
        assert fleet.n_hubs == 2 and fleet.horizon == 5
        back = hub_inputs(fleet, 1)
        np.testing.assert_array_equal(back.outage, rows[1].outage)
        np.testing.assert_array_equal(fleet.outage_mask()[0], np.zeros(5, dtype=bool))

    def test_stack_rejects_mixed_horizons(self):
        fleet = stack_hub_inputs([flat_inputs(5), flat_inputs(5)])
        with pytest.raises(FleetError, match="inconsistent shape"):
            FleetInputs(
                load_rate=fleet.load_rate,
                rtp_kwh=fleet.rtp_kwh[:, :4],
                pv_power_kw=fleet.pv_power_kw,
                wt_power_kw=fleet.wt_power_kw,
                occupied=fleet.occupied,
                discount=fleet.discount,
            )

    def test_params_from_configs(self):
        params = FleetParams.from_hub_configs([small_hub_config(), HubConfig()])
        assert params.n_hubs == 2
        assert params.capacity_kwh[0] == 10.0
        assert params.paper_exact.dtype == bool

    def test_params_tile_repeats_the_fleet(self):
        params = FleetParams.from_hub_configs([small_hub_config(), HubConfig()])
        assert params.tile(1) is params
        tiled = params.tile(3)
        assert tiled.n_hubs == 6 and tiled.dt_h == params.dt_h
        assert np.array_equal(tiled.capacity_kwh, np.tile(params.capacity_kwh, 3))
        assert tiled.paper_exact.dtype == bool

    def test_params_reject_mixed_dt(self):
        with pytest.raises(FleetError, match="slot length"):
            FleetParams.from_hub_configs([HubConfig(), HubConfig(dt_h=0.5)])

    def test_simulation_rejects_mismatched_shapes(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        fleet = stack_hub_inputs([flat_inputs(4), flat_inputs(4)])
        with pytest.raises(FleetError, match="hubs"):
            FleetSimulation(params, fleet)

    def test_bad_initial_soc_rejected(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        fleet = stack_hub_inputs([flat_inputs(4)])
        with pytest.raises(ConfigError):
            FleetSimulation(params, fleet, initial_soc_fraction=1.5)


# --------------------------------------------------------------------- #
# Equivalence: batched engine == N independent scalar engines            #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet_case():
    """≥10 hubs x ≥7 days with outages, shared by every scheduler check."""
    scenarios, sim = build_default_fleet(10, n_days=7, seed=3, outage_probability=0.01)
    assert sim.inputs.outage is not None and sim.inputs.outage.any()
    return scenarios, sim


def run_scalar_fleet(scenarios, fleet_inputs, scheduler_for):
    """N independent HubSimulation runs over the same stacked traces."""
    books = []
    for index, scenario in enumerate(scenarios):
        sim = HubSimulation(build_hub(scenario), hub_inputs(fleet_inputs, index))
        sim.run(scheduler_for(index))
        books.append(sim.book)
    return books


def assert_books_match(fleet_book, scalar_books):
    """Totals, per-slot ledgers, and daily rewards agree within ATOL."""
    for name, fleet_value, scalar_value in (
        (
            "operating_cost",
            fleet_book.operating_cost_per_hub,
            [b.operating_cost for b in scalar_books],
        ),
        (
            "charging_revenue",
            fleet_book.charging_revenue_per_hub,
            [b.charging_revenue for b in scalar_books],
        ),
        ("profit", fleet_book.profit_per_hub, [b.profit for b in scalar_books]),
        (
            "grid_energy",
            fleet_book.p_grid_kw.sum(axis=1),
            [b.total_grid_energy_kwh for b in scalar_books],
        ),
        (
            "curtailed",
            fleet_book.surplus_kw.sum(axis=1),
            [b.total_curtailed_kwh for b in scalar_books],
        ),
        (
            "unserved",
            fleet_book.unserved_per_hub_kwh,
            [b.total_unserved_kwh for b in scalar_books],
        ),
    ):
        np.testing.assert_allclose(
            fleet_value, scalar_value, rtol=0, atol=ATOL, err_msg=name
        )
    np.testing.assert_allclose(
        fleet_book.daily_rewards(),
        [b.daily_rewards() for b in scalar_books],
        rtol=0,
        atol=ATOL,
    )
    # Slot-level spot check: actions and SoC trajectories line up exactly.
    for index, book in enumerate(scalar_books):
        np.testing.assert_array_equal(
            fleet_book.action[index], [l.action for l in book.ledgers]
        )
        np.testing.assert_allclose(
            fleet_book.soc_kwh[index],
            [l.soc_kwh for l in book.ledgers],
            rtol=0,
            atol=ATOL,
        )


class TestEquivalence:
    def test_idle(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(FleetIdleScheduler())
        scalar = run_scalar_fleet(scenarios, sim.inputs, lambda i: IdleScheduler())
        assert_books_match(fleet_book, scalar)

    def test_rule_based(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(FleetRuleBasedScheduler())
        scalar = run_scalar_fleet(scenarios, sim.inputs, lambda i: RuleBasedScheduler())
        assert_books_match(fleet_book, scalar)
        # Both branches of the rule fired somewhere in the fleet.
        assert (fleet_book.action == CHARGE).any()
        assert (fleet_book.action == DISCHARGE).any()

    def test_random_shared_seeds(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(
            FleetRandomScheduler.from_factory(RngFactory(seed=11), sim.n_hubs)
        )
        scalar = run_scalar_fleet(
            scenarios,
            sim.inputs,
            lambda i: RandomScheduler(RngFactory(seed=11).stream(f"fleet/random/{i}")),
        )
        assert_books_match(fleet_book, scalar)

    def test_greedy_renewable(self, fleet_case):
        scenarios, sim = fleet_case
        sim.reset()
        fleet_book = sim.run(FleetGreedyRenewableScheduler())
        scalar = run_scalar_fleet(
            scenarios, sim.inputs, lambda i: GreedyRenewableScheduler()
        )
        assert_books_match(fleet_book, scalar)

    def test_paper_exact_battery_convention(self):
        configs = [
            small_hub_config(paper_exact=True),
            small_hub_config(paper_exact=True),
        ]
        outage = np.zeros(24, dtype=bool)
        outage[5:8] = True
        rows = [flat_inputs(24, outage=outage), flat_inputs(24)]
        fleet = stack_hub_inputs(rows)
        sim = FleetSimulation(FleetParams.from_hub_configs(configs), fleet)
        fleet_book = sim.run(FleetRuleBasedScheduler())
        scalar = []
        for index, config in enumerate(configs):
            one = HubSimulation(EctHub(config), hub_inputs(fleet, index))
            one.run(RuleBasedScheduler())
            scalar.append(one.book)
        assert_books_match(fleet_book, scalar)


# --------------------------------------------------------------------- #
# Blackout edge cases, exercised on BOTH engines                         #
# --------------------------------------------------------------------- #


def engines_for(config: HubConfig, inputs: HubInputs, *, soc: float = 0.5):
    """(scalar sim, fleet sim) over identical single-hub state."""
    scalar = HubSimulation(EctHub(config), inputs, initial_soc_fraction=soc)
    fleet = FleetSimulation(
        FleetParams.from_hub_configs([config]),
        stack_hub_inputs([inputs]),
        initial_soc_fraction=soc,
    )
    return scalar, fleet


class TestBlackoutEdges:
    def test_blackout_on_slot_zero(self):
        config = small_hub_config()
        outage = np.zeros(4, dtype=bool)
        outage[0] = True
        scalar, fleet = engines_for(config, flat_inputs(4, outage=outage))

        ledger = scalar.step(CHARGE)
        columns = fleet.step(np.array([CHARGE]))
        # The scheduled charge is overridden; the reserve carries the BS.
        assert ledger.blackout and ledger.action == IDLE
        assert ledger.p_grid_kw == 0.0 and ledger.revenue == 0.0
        assert columns["action"][0] == IDLE
        assert columns["p_grid_kw"][0] == 0.0
        np.testing.assert_allclose(
            columns["soc_kwh"][0], ledger.soc_kwh, rtol=0, atol=ATOL
        )
        assert ledger.soc_kwh < 5.0  # battery dipped to serve the BS

    def test_back_to_back_outages_drain_then_recover(self):
        config = small_hub_config()
        outage = np.zeros(6, dtype=bool)
        outage[1:4] = True  # three consecutive dark slots
        inputs = flat_inputs(6, outage=outage, occupied=np.ones(6, dtype=int))
        scalar, fleet = engines_for(config, inputs, soc=1.0)
        scalar.run(IdleScheduler())
        fleet_book = fleet.run(FleetIdleScheduler())

        socs = [l.soc_kwh for l in scalar.book.ledgers]
        assert socs[0] > socs[1] > socs[2] > socs[3]  # monotone drain when dark
        # Charging and grid import are suspended during every outage slot.
        for t, ledger in enumerate(scalar.book.ledgers):
            if outage[t]:
                assert ledger.revenue == 0.0
                assert ledger.p_cs_kw == 0.0 and ledger.p_grid_kw == 0.0
        np.testing.assert_allclose(
            fleet_book.soc_kwh[0], socs, rtol=0, atol=ATOL
        )
        np.testing.assert_array_equal(fleet_book.blackout[0], outage)

    def test_emergency_reserve_exhaustion_reports_unserved(self):
        # Tiny battery + long outage: the Eq. 6 reserve empties and the
        # remaining BS demand is booked as unserved energy.
        config = small_hub_config(soc_min_fraction=0.05)
        outage = np.ones(8, dtype=bool)
        scalar, fleet = engines_for(config, flat_inputs(8, outage=outage), soc=0.2)
        scalar.run(IdleScheduler())
        fleet_book = fleet.run(FleetIdleScheduler())

        assert scalar.book.total_unserved_kwh > 0.0
        assert scalar.book.ledgers[-1].soc_kwh == pytest.approx(0.0, abs=1e-12)
        assert fleet_book.soc_kwh[0, -1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            fleet_book.unserved_per_hub_kwh[0],
            scalar.book.total_unserved_kwh,
            rtol=0,
            atol=ATOL,
        )
        # Battery never goes negative on either engine.
        assert min(l.soc_kwh for l in scalar.book.ledgers) >= 0.0
        assert fleet_book.soc_kwh.min() >= 0.0


# --------------------------------------------------------------------- #
# Fleet cost book + engine surface                                       #
# --------------------------------------------------------------------- #


class TestFleetBook:
    def test_network_totals_are_hub_sums(self, fleet_case):
        _, sim = fleet_case
        sim.reset()
        book = sim.run(FleetRuleBasedScheduler())
        assert book.profit == pytest.approx(book.profit_per_hub.sum())
        assert book.operating_cost == pytest.approx(book.operating_cost_per_hub.sum())
        assert book.daily_rewards().shape == (sim.n_hubs, 7)

    def test_hub_book_reconstruction(self, fleet_case):
        _, sim = fleet_case
        sim.reset()
        book = sim.run(FleetIdleScheduler())
        hub0 = hub_book(book, 0)
        assert len(hub0) == sim.horizon
        assert hub0.profit == pytest.approx(book.profit_per_hub[0])

    def test_step_guards(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        sim = FleetSimulation(params, stack_hub_inputs([flat_inputs(2)]))
        with pytest.raises(FleetError, match="shape"):
            sim.step(np.zeros(3, dtype=int))
        with pytest.raises(FleetError, match="-1, 0, or 1"):
            sim.step(np.array([5]))
        sim.step(np.array([IDLE]))
        sim.step(np.array([IDLE]))
        assert sim.done
        with pytest.raises(FleetError, match="exhausted"):
            sim.step(np.array([IDLE]))

    @pytest.mark.parametrize("storage", ["dense", "windowed"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_step_hands_out_read_only_slot_columns(self, storage, n_jobs):
        _, base = build_default_fleet(3, n_days=1, seed=4, outage_probability=0.3)
        assert base.planes.outage.any()
        sim = FleetSimulation(
            base.params, base.inputs, storage=storage, n_jobs=n_jobs
        )
        shape = (3,) if n_jobs == 1 else (n_jobs, 3)
        while not sim.done:
            columns = sim.step(np.ones(shape, dtype=int))
            assert set(columns) == set(
                FleetCostBook.EXOGENOUS_COLUMNS + FleetCostBook.ACTION_COLUMNS
            )
            for name, column in columns.items():
                assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                columns["soc_kwh"][...] = 0.0
            assert columns["soc_kwh"].shape == shape
            assert np.array_equal(columns["soc_kwh"], sim.soc_kwh)

    def test_reset_restores_initial_state(self, fleet_case):
        _, sim = fleet_case
        sim.reset()
        first = sim.run(FleetRuleBasedScheduler()).profit
        sim.reset()
        second = sim.run(FleetRuleBasedScheduler()).profit
        assert first == second

    def test_dense_feeder_aggregates_roll_each_column_up_once(self, monkeypatch):
        # A small roll-up block gives a 6-hub book several slot blocks.
        from repro.fleet import costs

        monkeypatch.setattr(costs, "_ROLLUP_HUB_SLOTS", 6 * 5)
        _, sim = build_default_fleet(
            6, n_days=1, seed=2, n_feeders=2, feeder_capacity_kw=20.0
        )
        feeder_sums = FeederGroup.feeder_sums
        calls = []

        def counting(self, block):
            calls.append(block.shape)
            return feeder_sums(self, block)

        def old_path(book, name):
            """A fresh roll-up per aggregate, as each used to make."""
            column = getattr(book, name)[:, : len(book)]
            return np.concatenate(
                [
                    feeder_sums(book.feeders, column[:, start : start + 5])
                    for start in range(0, len(book), 5)
                ],
                axis=1,
            ).reshape(book.n_feeders, len(book))

        monkeypatch.setattr(FeederGroup, "feeder_sums", counting)
        sim.reset()
        # Part of the day, then the whole day.
        for stop in (7, sim.horizon):
            while sim.t < stop:
                sim.step(np.ones(sim.n_hubs, dtype=int) * (1 - sim.t % 3))
            book = sim.book
            del calls[:]
            aggregates = book.feeder_aggregates()
            assert len(calls) == 2 * -(-len(book) // 5)
            imports = old_path(book, "p_grid_kw")
            shortfall = old_path(book, "import_shortfall_kw")
            expected = {
                "feeder_import_kwh": imports.sum(axis=1),
                "feeder_peak_import_kw": imports.max(axis=1),
                "feeder_shortfall_kwh": shortfall.sum(axis=1),
            }
            for name, reference in expected.items():
                assert aggregates[name].tobytes() == reference.tobytes(), name
                assert getattr(book, name).tobytes() == reference.tobytes(), name
            congested = int((shortfall > 0.0).sum())
            assert aggregates["congested_feeder_slots"] == congested
            assert book.congested_feeder_slots == congested
        assert congested > 0


class TestSchedulerFactory:
    def test_names(self):
        for name in ("idle", "random", "rule-based", "greedy-renewable"):
            sched = make_fleet_scheduler(name, n_hubs=3)
            assert sched.name == name
        with pytest.raises(FleetError, match="unknown fleet scheduler"):
            make_fleet_scheduler("dp-oracle", n_hubs=3)


# --------------------------------------------------------------------- #
# Experiment + CLI plumbing                                              #
# --------------------------------------------------------------------- #


class TestFleetExperimentCli:
    def test_fleet_experiment_runs(self):
        from repro.experiments import run_experiment

        result = run_experiment("fleet", scale=0.2)
        assert result.data["n_hubs"] >= 4
        assert len(result.data["profit_per_hub"]) == result.data["n_hubs"]
        # data must stay deterministic (diffable via --out); timing is
        # reported in the rendered lines only.
        assert "hub_slots_per_sec" not in result.data
        again = run_experiment("fleet", scale=0.2)
        assert result.to_json_dict() == again.to_json_dict()

    def test_cli_fleet_with_out(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        assert (
            main(
                [
                    "fleet",
                    "--n-hubs",
                    "5",
                    "--days",
                    "7",
                    "--scheduler",
                    "idle",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "network profit" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "fleet"
        assert payload["data"]["n_hubs"] == 5
        assert len(payload["data"]["profit_per_hub"]) == 5

    def test_cli_reports_library_errors_cleanly(self, capsys):
        assert main(["fleet", "--n-hubs", "0"]) == 1
        err = capsys.readouterr().err
        assert "n_hubs must be positive" in err and "Traceback" not in err

    def test_cli_run_with_out(self, tmp_path, capsys):
        out = tmp_path / "fig5.json"
        assert main(["run", "fig5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "fig5"
        assert "correlation" in payload["data"]


# --------------------------------------------------------------------- #
# Shared-grid coupling: FeederGroup model                                 #
# --------------------------------------------------------------------- #


class TestFeederGroup:
    def test_unlimited_is_passthrough(self):
        feeders = FeederGroup.unlimited(3)
        assert feeders.is_unlimited and feeders.n_feeders == 1
        demand = np.array([4.0, 0.0, 9.5])
        granted, shortfall = feeders.allocate(demand, 0)
        np.testing.assert_array_equal(granted, demand)
        np.testing.assert_array_equal(shortfall, np.zeros(3))
        assert np.isinf(feeders.available_import_kw(demand, 0)).all()

    def test_uniform_round_robin(self):
        feeders = uniform_feeders(5, 2, 100.0)
        np.testing.assert_array_equal(feeders.assignment, [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(feeders.members, [3, 2])
        assert not feeders.is_unlimited

    def test_proportional_allocation(self):
        feeders = FeederGroup(
            assignment=np.array([0, 0, 1]),
            import_capacity_kw=np.array([10.0, np.inf]),
        )
        granted, shortfall = feeders.allocate(np.array([8.0, 8.0, 5.0]), 0)
        np.testing.assert_allclose(granted, [5.0, 5.0, 5.0])
        np.testing.assert_allclose(shortfall, [3.0, 3.0, 0.0])

    def test_priority_allocation(self):
        feeders = FeederGroup(
            assignment=np.zeros(3, dtype=int),
            import_capacity_kw=np.array([7.0]),
            policy="priority",
            priority=np.array([1.0, 3.0, 2.0]),
        )
        granted, shortfall = feeders.allocate(np.array([5.0, 5.0, 5.0]), 0)
        # Highest priority served first, then the next, then nothing left.
        np.testing.assert_allclose(granted, [0.0, 5.0, 2.0])
        np.testing.assert_allclose(shortfall, [5.0, 0.0, 3.0])

    def test_priority_ties_break_by_hub_index(self):
        feeders = FeederGroup(
            assignment=np.zeros(2, dtype=int),
            import_capacity_kw=np.array([4.0]),
            policy="priority",
        )
        granted, _ = feeders.allocate(np.array([3.0, 3.0]), 0)
        np.testing.assert_allclose(granted, [3.0, 1.0])

    def test_per_slot_capacity(self):
        feeders = FeederGroup(
            assignment=np.zeros(1, dtype=int),
            import_capacity_kw=np.array([[10.0, 2.0]]),
        )
        assert feeders.horizon == 2
        np.testing.assert_allclose(feeders.allocate(np.array([3.0]), 0)[0], [3.0])
        np.testing.assert_allclose(feeders.allocate(np.array([3.0]), 1)[0], [2.0])
        with pytest.raises(FleetError, match="horizon"):
            feeders.capacity_at(2)

    def test_available_import_fair_share(self):
        feeders = FeederGroup(
            assignment=np.array([0, 0, 1]),
            import_capacity_kw=np.array([10.0, 1.0]),
        )
        available = feeders.available_import_kw(np.array([4.0, 2.0, 5.0]), 0)
        np.testing.assert_allclose(available, [2.0, 2.0, 0.0])

    def test_validation_errors(self):
        with pytest.raises(FleetError, match="assignment"):
            FeederGroup(
                assignment=np.array([0, 2]),
                import_capacity_kw=np.array([1.0]),
            )
        with pytest.raises(FleetError, match="non-negative"):
            FeederGroup(
                assignment=np.array([0]),
                import_capacity_kw=np.array([-1.0]),
            )
        with pytest.raises(FleetError, match="NaN"):
            FeederGroup(
                assignment=np.array([0]),
                import_capacity_kw=np.array([np.nan]),
            )
        with pytest.raises(FleetError, match="policy"):
            FeederGroup(
                assignment=np.array([0]),
                import_capacity_kw=np.array([1.0]),
                policy="auction",
            )
        with pytest.raises(FleetError, match="priority"):
            FeederGroup(
                assignment=np.array([0, 0]),
                import_capacity_kw=np.array([1.0]),
                policy="priority",
                priority=np.array([1.0, -2.0]),
            )
        # More feeders than hubs is refused where specs compile feeders.
        with pytest.raises(ConfigError, match="empty"):
            assemble_sites(
                ScenarioSpec(fleet=FleetSpec(n_hubs=2), grid=GridSpec(n_feeders=3))
            )

    def test_simulation_rejects_mismatched_feeders(self):
        params = FleetParams.from_hub_configs([small_hub_config()])
        fleet = stack_hub_inputs([flat_inputs(4)])
        with pytest.raises(FleetError, match="feeder group"):
            FleetSimulation(params, fleet, feeders=FeederGroup.unlimited(2))
        with pytest.raises(FleetError, match="capacity horizon"):
            FleetSimulation(
                params,
                fleet,
                feeders=FeederGroup(
                    assignment=np.zeros(1, dtype=int),
                    import_capacity_kw=np.full((1, 3), 5.0),
                ),
            )


def looped_priority_grants(feeders: FeederGroup, demand, capacity) -> np.ndarray:
    """The priority fill as it was written before its static data was
    cached: per-slot lexsort and one cumsum per feeder segment."""
    n = feeders.n_hubs
    priority = np.ones(n) if feeders.priority is None else feeders.priority
    order = np.lexsort((np.arange(n), -priority, feeders.assignment))
    feeder_sorted = feeders.assignment[order]
    demand_sorted = demand[order]
    starts = np.r_[0, np.flatnonzero(np.diff(feeder_sorted)) + 1]
    bounds = np.r_[starts, n]
    ahead = np.zeros(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ahead[lo + 1 : hi] = np.cumsum(demand_sorted[lo : hi - 1])
    granted = np.empty(n, np.float64)
    granted[order] = np.clip(capacity[feeder_sorted] - ahead, 0.0, demand_sorted)
    return granted


class TestPriorityPlan:
    """The cached priority layout and padded cumsum equal the per-feeder loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_grants_bit_identical_to_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n_hubs = int(rng.integers(1, 40))
            # More feeders than hubs leaves some empty; few feeders give
            # long segments, many give single-member ones.
            n_feeders = int(rng.integers(1, 2 * n_hubs + 1))
            assignment = rng.integers(0, n_feeders, n_hubs)
            assignment[0] = n_feeders - 1
            priority = (
                None
                if rng.random() < 0.3
                else rng.integers(1, 4, n_hubs).astype(float)  # ties
            )
            capacity = rng.uniform(0.0, 60.0, n_feeders)
            feeders = FeederGroup(assignment, capacity, "priority", priority)
            demand = rng.exponential(10.0, n_hubs)
            granted, shortfall = feeders.allocate(demand, 0)
            want = looped_priority_grants(feeders, demand, capacity)
            assert granted.tobytes() == want.tobytes()
            assert shortfall.tobytes() == np.maximum(demand - want, 0.0).tobytes()

    def test_stacked_groups_allocate_like_each_group(self):
        rng = np.random.default_rng(7)
        groups = [
            FeederGroup(
                rng.integers(0, 3, 12),
                rng.uniform(5.0, 40.0, (3, 4)),
                policy,
                None if policy == "proportional" else rng.uniform(1, 3, 12),
            )
            for policy in ("priority", "proportional", "priority", "proportional")
        ]
        stacked = FeederGroup.stack(groups)
        assert stacked.n_hubs == 48 and stacked.n_feeders == 12
        assert stacked.policy == ("priority",) * 3 + ("proportional",) * 3 + (
            "priority",
        ) * 3 + ("proportional",) * 3
        for t in range(4):
            demands = [rng.exponential(12.0, 12) for _ in groups]
            granted, shortfall = stacked.allocate(np.concatenate(demands), t)
            for job, (group, demand) in enumerate(zip(groups, demands)):
                rows = slice(12 * job, 12 * (job + 1))
                want_granted, want_shortfall = group.allocate(demand, t)
                assert granted[rows].tobytes() == want_granted.tobytes()
                assert shortfall[rows].tobytes() == want_shortfall.tobytes()

    def test_policy_tuple_validation(self):
        with pytest.raises(FleetError, match="2 feeder policies for 3"):
            FeederGroup(np.zeros(2, int), np.ones(3), ("priority", "priority"))
        with pytest.raises(FleetError, match="auction"):
            FeederGroup(np.zeros(2, int), np.ones(2), ("priority", "auction"))
        same = FeederGroup(np.zeros(2, int), np.ones(2), ("priority", "priority"))
        assert same.policy == "priority"
        with pytest.raises(FleetError, match="capacity horizon"):
            FeederGroup.stack(
                [FeederGroup.unlimited(2), FeederGroup(np.zeros(2, int), np.ones((1, 3)))]
            )


class TestJobAxis:
    """A stacked engine's jobs equal their standalone engines exactly."""

    N_HUBS = 6

    def engines(self, policies, socs, volls):
        inputs = seeded_fleet_inputs(self.N_HUBS, 48, seed=3)
        outage = np.zeros((self.N_HUBS, 48), bool)
        outage[1, 5:9] = outage[4, 20:22] = True
        inputs = FleetInputs(
            load_rate=inputs.load_rate,
            rtp_kwh=inputs.rtp_kwh,
            pv_power_kw=inputs.pv_power_kw,
            wt_power_kw=inputs.wt_power_kw,
            occupied=inputs.occupied,
            discount=inputs.discount,
            outage=outage,
        )
        params = FleetParams.from_hub_configs(
            [small_hub_config() for _ in range(self.N_HUBS)]
        )

        def feeders(policy):
            return uniform_feeders(self.N_HUBS, 2, 6.0, policy=policy)

        stacked = FleetSimulation(
            params,
            inputs,
            initial_soc_fraction=np.asarray(socs)[:, None],
            feeders=[feeders(policy) for policy in policies],
            voll_per_kwh=list(volls),
            n_jobs=len(policies),
        )
        alone = [
            FleetSimulation(
                params,
                inputs,
                initial_soc_fraction=soc,
                feeders=feeders(policy),
                voll_per_kwh=voll,
            )
            for policy, soc, voll in zip(policies, socs, volls)
        ]
        return stacked, alone

    def test_books_bit_identical_to_standalone_runs(self):
        policies = ("proportional", "priority", "priority")
        stacked, alone = self.engines(policies, (0.2, 0.5, 0.9), (0.0, 2.0, 5.0))
        assert stacked.n_hubs == 3 * self.N_HUBS
        names = ("rule-based", "greedy-renewable", "rule-based")
        books = stacked.run_jobs(
            [scheduler_by_name(name, self.N_HUBS) for name in names],
            lead=[0, 1, 0],
        )
        for book, sim, name in zip(books, alone, names):
            want = sim.run(scheduler_by_name(name, self.N_HUBS))
            for column in FleetCostBook.EXOGENOUS_COLUMNS + FleetCostBook.ACTION_COLUMNS:
                assert getattr(book, column).tobytes() == getattr(want, column).tobytes()
                assert getattr(book, column).flags.c_contiguous
            assert book.profit == want.profit
            assert book.feeder_peak_import_kw.tobytes() == want.feeder_peak_import_kw.tobytes()

    def test_shapes_and_single_job_accessors(self):
        stacked, _ = self.engines(("priority", "priority"), (0.5, 0.5), (0.0, 0.0))
        assert stacked.soc_kwh.shape == (2, self.N_HUBS)
        assert stacked.available_import_kw().shape == (2, self.N_HUBS)
        with pytest.raises(FleetError, match="shape"):
            stacked.step(np.zeros(self.N_HUBS, int))
        with pytest.raises(FleetError, match="books"):
            stacked.book
        with pytest.raises(FleetError, match="run_jobs"):
            stacked.run(FleetIdleScheduler())
        with pytest.raises(FleetError, match="leads"):
            stacked.run_jobs([FleetIdleScheduler()] * 2, lead=[1, 0])
        columns = stacked.step(np.zeros((2, self.N_HUBS), int))
        assert columns["p_grid_kw"].shape == (2, self.N_HUBS)
        assert columns["p_bs_kw"].shape == (self.N_HUBS,)
        with pytest.raises(FleetError, match="2 feeder groups for 3 jobs"):
            FleetSimulation(
                stacked.params,
                stacked.inputs,
                feeders=[FeederGroup.unlimited(self.N_HUBS)] * 2,
                n_jobs=3,
            )


# --------------------------------------------------------------------- #
# Coupled engine with unlimited capacity == uncoupled engine              #
# --------------------------------------------------------------------- #


def seeded_fleet_inputs(n_hubs: int, horizon: int, seed: int) -> FleetInputs:
    """Diverse random-but-valid traces, including a few blackout slots."""
    rng = np.random.default_rng(seed)
    return FleetInputs(
        load_rate=rng.uniform(0.0, 1.0, (n_hubs, horizon)),
        rtp_kwh=rng.uniform(0.05, 0.6, (n_hubs, horizon)),
        pv_power_kw=rng.uniform(0.0, 8.0, (n_hubs, horizon)),
        wt_power_kw=rng.uniform(0.0, 5.0, (n_hubs, horizon)),
        occupied=rng.integers(0, 2, (n_hubs, horizon)),
        discount=rng.uniform(0.0, 0.5, (n_hubs, horizon)),
        outage=rng.random((n_hubs, horizon)) < 0.03,
    )


def assert_fleet_books_identical(one, two, atol=ATOL):
    """Every recorded column agrees slot-for-slot."""
    np.testing.assert_array_equal(one.action, two.action)
    np.testing.assert_array_equal(one.blackout, two.blackout)
    for name in one._FLOAT_COLUMNS:
        np.testing.assert_allclose(
            getattr(one, name), getattr(two, name), rtol=0, atol=atol, err_msg=name
        )


def scheduler_by_name(name: str, n_hubs: int):
    if name == "random":
        return FleetRandomScheduler.from_factory(RngFactory(seed=17), n_hubs)
    return make_fleet_scheduler(name, n_hubs=n_hubs)


class TestCoupledUnlimitedEquivalence:
    """Satellite: unlimited-capacity coupling changes nothing, slot-for-slot."""

    N_HUBS = 8
    HORIZON = 72

    @pytest.mark.parametrize("paper_exact", [False, True])
    @pytest.mark.parametrize(
        "scheduler_name", ["idle", "random", "rule-based", "greedy-renewable"]
    )
    def test_matches_uncoupled_slot_for_slot(self, scheduler_name, paper_exact):
        configs = [
            small_hub_config(paper_exact=paper_exact) for _ in range(self.N_HUBS)
        ]
        params = FleetParams.from_hub_configs(configs)
        inputs = seeded_fleet_inputs(self.N_HUBS, self.HORIZON, seed=5)

        uncoupled = FleetSimulation(params, inputs)
        baseline = uncoupled.run(scheduler_by_name(scheduler_name, self.N_HUBS))

        # Finite-but-huge capacity exercises the full allocation path.
        for capacity in (np.inf, 1e12):
            coupled = FleetSimulation(
                params,
                inputs,
                feeders=uniform_feeders(self.N_HUBS, 3, capacity),
            )
            book = coupled.run(scheduler_by_name(scheduler_name, self.N_HUBS))
            assert_fleet_books_identical(baseline, book)
            assert book.total_import_shortfall_kwh == 0.0
            assert book.congested_feeder_slots == 0


# --------------------------------------------------------------------- #
# Congestion behaviour under binding feeder limits                        #
# --------------------------------------------------------------------- #


class TestCongestion:
    @pytest.fixture(scope="class")
    def congested_case(self):
        """A fleet whose 3 feeders are capped at half the uncongested peak."""
        _, free = build_default_fleet(12, n_days=7, seed=3, outage_probability=0.01)
        free_book = free.run(FleetRuleBasedScheduler())
        peak = float(free_book.feeder_import_kw().max())
        capacity = peak / 3 * 0.5
        _, sim = build_default_fleet(
            12,
            n_days=7,
            seed=3,
            outage_probability=0.01,
            n_feeders=3,
            feeder_capacity_kw=capacity,
        )
        book = sim.run(FleetRuleBasedScheduler())
        return free_book, sim, book, capacity

    def test_congestion_is_booked(self, congested_case):
        free_book, sim, book, capacity = congested_case
        assert book.total_import_shortfall_kwh > 0.0
        assert book.total_unserved_kwh > 0.0
        assert book.congested_feeder_slots > 0
        assert (book.feeder_shortfall_kwh > 0.0).any()
        # The unlimited run records no congestion anywhere.
        assert free_book.total_import_shortfall_kwh == 0.0
        assert free_book.congested_feeder_slots == 0

    def test_feeder_imports_respect_capacity(self, congested_case):
        _, sim, book, capacity = congested_case
        assert (book.feeder_import_kw() <= capacity + 1e-9).all()
        assert (book.feeder_peak_import_kw <= capacity + 1e-9).all()

    def test_energy_balance_closes_under_curtailment(self, congested_case):
        _, sim, book, _ = congested_case
        dt = sim.params.dt_h
        lhs = book.p_grid_kw + book.p_pv_kw + book.p_wt_kw + book.unserved_kwh / dt
        rhs = book.p_bs_kw + book.p_cs_kw + book.p_bp_kw + book.surplus_kw
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_grid_cost_prices_granted_import_only(self, congested_case):
        _, sim, book, _ = congested_case
        np.testing.assert_allclose(
            book.grid_cost, book.p_grid_kw * book.rtp_kwh, rtol=0, atol=1e-9
        )

    def test_congestion_aware_scheduler_sheds_charges(self):
        _, free = build_default_fleet(12, n_days=7, seed=3)
        peak = float(free.run(FleetRuleBasedScheduler()).feeder_import_kw().max())
        builds = {}
        for aware in (True, False):
            _, sim = build_default_fleet(
                12, n_days=7, seed=3, n_feeders=3, feeder_capacity_kw=peak / 3 * 0.8
            )
            builds[aware] = sim.run(
                FleetRuleBasedScheduler(congestion_aware=aware)
            )
        aware_book, naive_book = builds[True], builds[False]
        assert (aware_book.action == CHARGE).sum() < (naive_book.action == CHARGE).sum()
        assert (
            aware_book.total_import_shortfall_kwh
            <= naive_book.total_import_shortfall_kwh
        )

    def test_priority_hub_served_first(self):
        # One feeder, two identical hubs, idle batteries, no renewables:
        # each hub demands its BS load every slot; capacity fits 1.5 hubs.
        configs = [small_hub_config(), small_hub_config()]
        params = FleetParams.from_hub_configs(configs)
        inputs = stack_hub_inputs([flat_inputs(6), flat_inputs(6)])
        p_bs = float(params.bs_power_kw(np.zeros(2))[0])
        feeders = FeederGroup(
            assignment=np.zeros(2, dtype=int),
            import_capacity_kw=np.array([1.5 * p_bs]),
            policy="priority",
            priority=np.array([1.0, 10.0]),
        )
        sim = FleetSimulation(params, inputs, feeders=feeders)
        book = sim.run(FleetIdleScheduler())
        np.testing.assert_allclose(book.p_grid_kw[1], np.full(6, p_bs))
        np.testing.assert_allclose(book.p_grid_kw[0], np.full(6, 0.5 * p_bs))

    def test_cli_feeder_flags(self, tmp_path):
        out = tmp_path / "coupled.json"
        assert (
            main(
                [
                    "fleet",
                    "--n-hubs",
                    "6",
                    "--days",
                    "7",
                    "--n-feeders",
                    "2",
                    "--feeder-capacity",
                    "120",
                    "--allocation",
                    "priority",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["data"]["n_feeders"] == 2
        assert payload["data"]["allocation"] == "priority"
        assert payload["data"]["import_shortfall_kwh"] >= 0.0
        assert len(payload["data"]["feeder_import_kwh"]) == 2

    def test_fleet_grid_experiment_runs(self):
        from repro.experiments import run_experiment

        result = run_experiment("fleet-grid", scale=0.3)
        sweep = result.data["sweep"]
        assert len(sweep) == 4
        # Tightest capacity shows congestion; near-peak shows none.
        assert sweep[-1]["import_shortfall_kwh"] > 0.0
        assert sweep[0]["import_shortfall_kwh"] == 0.0
        again = run_experiment("fleet-grid", scale=0.3)
        assert result.to_json_dict() == again.to_json_dict()
