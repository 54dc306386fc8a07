"""Randomized invariant + determinism suite for the fleet engines.

Property-style tests over seeded random scenarios: whatever the
parameters, traces, blackout pattern, feeder topology, and actions, every
recorded slot must satisfy the conservation laws the engines are built
on — feeder-group imports never exceed capacity, the Eq. 7 energy balance
closes (grid + PV + WT + unserved = BS + CS + battery + curtailment), and
SoC stays inside its legal window. The scalar :class:`HubSimulation` is
held to the same invariants so the two engines cannot drift apart in
what they conserve. A determinism class pins byte-identical re-runs and
byte-identical ``ect-hub fleet --out`` JSON exports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.energy.battery import BatteryConfig, IDLE
from repro.fleet import (
    FeederGroup,
    FleetInputs,
    FleetParams,
    FleetRandomScheduler,
    FleetRuleBasedScheduler,
    FleetSimulation,
    build_default_fleet,
)
from repro.hub.hub import HubConfig
from repro.rng import RngFactory

from fleet_oracle import hub_inputs
from scalar_oracle import EctHub, HubSimulation

#: Conservation tolerance — loose enough for kW-scale float accumulation.
BALANCE_ATOL = 1e-8


# --------------------------------------------------------------------- #
# Random scenario generation                                              #
# --------------------------------------------------------------------- #


def random_hub_config(rng: np.random.Generator) -> HubConfig:
    capacity = float(rng.uniform(8.0, 60.0))
    battery = BatteryConfig(
        capacity_kwh=capacity,
        charge_rate_kw=float(rng.uniform(2.0, 15.0)),
        discharge_rate_kw=float(rng.uniform(2.0, 15.0)),
        charge_efficiency=float(rng.uniform(0.8, 1.0)),
        discharge_efficiency=float(rng.uniform(0.8, 1.0)),
        soc_min_fraction=float(rng.uniform(0.0, 0.2)),
        soc_max_fraction=float(rng.uniform(0.8, 1.0)),
        paper_exact=bool(rng.integers(0, 2)),
    )
    return HubConfig(
        battery=battery,
        n_base_stations=int(rng.integers(1, 5)),
        pv=None,
    )


def random_fleet_inputs(
    rng: np.random.Generator, n_hubs: int, horizon: int
) -> FleetInputs:
    return FleetInputs(
        load_rate=rng.uniform(0.0, 1.0, (n_hubs, horizon)),
        rtp_kwh=rng.uniform(0.02, 0.7, (n_hubs, horizon)),
        pv_power_kw=rng.uniform(0.0, 9.0, (n_hubs, horizon)),
        wt_power_kw=rng.uniform(0.0, 6.0, (n_hubs, horizon)),
        occupied=rng.integers(0, 2, (n_hubs, horizon)),
        discount=rng.uniform(0.0, 0.6, (n_hubs, horizon)),
        outage=rng.random((n_hubs, horizon)) < 0.05,
    )


def random_feeders(rng: np.random.Generator, n_hubs: int) -> FeederGroup:
    """A sometimes-binding, sometimes-unlimited random feeder topology."""
    n_feeders = int(rng.integers(1, min(n_hubs, 4) + 1))
    capacity = np.where(
        rng.random(n_feeders) < 0.3,
        np.inf,
        rng.uniform(5.0, 45.0, n_feeders),
    )
    policy = "priority" if rng.random() < 0.5 else "proportional"
    return FeederGroup(
        assignment=rng.integers(0, n_feeders, n_hubs),
        import_capacity_kw=capacity,
        policy=policy,
        priority=rng.uniform(0.5, 5.0, n_hubs) if policy == "priority" else None,
    )


def random_case(seed: int):
    rng = np.random.default_rng(seed)
    n_hubs = int(rng.integers(3, 9))
    horizon = int(rng.integers(24, 73))
    configs = [random_hub_config(rng) for _ in range(n_hubs)]
    params = FleetParams.from_hub_configs(configs)
    inputs = random_fleet_inputs(rng, n_hubs, horizon)
    feeders = random_feeders(rng, n_hubs)
    actions = rng.integers(-1, 2, (horizon, n_hubs))
    return configs, params, inputs, feeders, actions


# --------------------------------------------------------------------- #
# Invariant assertions                                                    #
# --------------------------------------------------------------------- #


def assert_fleet_invariants(sim: FleetSimulation) -> None:
    book = sim.book
    params = sim.params
    dt = params.dt_h
    feeders = sim.feeders

    for name in ("p_bs_kw", "p_cs_kw", "p_grid_kw", "surplus_kw",
                 "unserved_kwh", "import_shortfall_kw"):
        assert getattr(book, name).min() >= 0.0, f"{name} went negative"

    # A slot never both imports and curtails surplus.
    assert np.minimum(book.p_grid_kw, book.surplus_kw).max() <= 1e-12

    # Eq. 7 conservation, shortfalls and blackouts included:
    # grid + PV + WT + unserved == BS + CS + battery + curtailment.
    lhs = book.p_grid_kw + book.p_pv_kw + book.p_wt_kw + book.unserved_kwh / dt
    rhs = book.p_bs_kw + book.p_cs_kw + book.p_bp_kw + book.surplus_kw
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=BALANCE_ATOL)

    # Feeder-group imports never exceed the feeder limit.
    imports = book.feeder_import_kw()
    for t in range(imports.shape[1]):
        capacity = feeders.capacity_at(t)
        assert (
            imports[:, t] <= capacity * (1 + 1e-12) + 1e-9
        ).all(), f"feeder over capacity at slot {t}"

    # SoC bounds: always within [0, SoC_max]; above SoC_min until the
    # first slot where the Eq. 6 reserve was tapped (blackout/shortfall).
    assert book.soc_kwh.min() >= -1e-9
    assert (book.soc_kwh <= params.soc_max_kwh[:, None] + 1e-9).all()
    reserve_tapped = np.logical_or.accumulate(
        book.blackout | (book.import_shortfall_kw > 0.0), axis=1
    )
    above_min = book.soc_kwh >= params.soc_min_kwh[:, None] - 1e-9
    assert (above_min | reserve_tapped).all()

    # Ledger formulas (Eqs. 8, 9, 11).
    np.testing.assert_allclose(
        book.grid_cost, book.p_grid_kw * dt * book.rtp_kwh, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        book.revenue, book.p_cs_kw * dt * book.srtp_kwh, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        book.bp_cost,
        (book.action != IDLE) * params.c_bp_per_slot[:, None],
        rtol=0,
        atol=1e-12,
    )

    # Blackout slots: no import, no charging revenue, action overridden.
    dark = book.blackout
    assert book.p_grid_kw[dark].max(initial=0.0) == 0.0
    assert book.p_cs_kw[dark].max(initial=0.0) == 0.0
    assert (book.action[dark] == IDLE).all()

    if feeders.is_unlimited:
        assert book.total_import_shortfall_kwh == 0.0
        assert book.congested_feeder_slots == 0


def assert_scalar_invariants(sim: HubSimulation) -> None:
    cfg = sim.hub.config
    dt = cfg.dt_h
    for ledger in sim.book.ledgers:
        lhs = (
            ledger.p_grid_kw
            + ledger.p_pv_kw
            + ledger.p_wt_kw
            + ledger.unserved_kwh / dt
        )
        rhs = (
            ledger.p_bs_kw + ledger.p_cs_kw + ledger.p_bp_kw + ledger.surplus_kw
        )
        assert abs(lhs - rhs) <= BALANCE_ATOL, f"slot {ledger.slot} imbalance"
        assert min(ledger.p_grid_kw, ledger.surplus_kw) <= 1e-12
        assert -1e-9 <= ledger.soc_kwh <= cfg.battery.soc_max_kwh + 1e-9
        assert ledger.grid_cost == pytest.approx(
            ledger.p_grid_kw * dt * ledger.rtp_kwh, abs=1e-9
        )
        if ledger.blackout:
            assert ledger.p_grid_kw == 0.0 and ledger.p_cs_kw == 0.0


# --------------------------------------------------------------------- #
# Randomized invariant suite                                              #
# --------------------------------------------------------------------- #


class TestRandomizedInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_coupled_fleet_under_random_actions(self, seed):
        _, params, inputs, feeders, actions = random_case(seed)
        sim = FleetSimulation(params, inputs, feeders=feeders)
        for t in range(inputs.horizon):
            sim.step(actions[t])
        assert_fleet_invariants(sim)

    @pytest.mark.parametrize("seed", range(8))
    def test_uncoupled_fleet_under_random_actions(self, seed):
        _, params, inputs, _, actions = random_case(seed)
        sim = FleetSimulation(params, inputs)
        for t in range(inputs.horizon):
            sim.step(actions[t])
        assert_fleet_invariants(sim)

    @pytest.mark.parametrize("seed", range(4))
    def test_coupled_fleet_under_schedulers(self, seed):
        _, params, inputs, feeders, _ = random_case(seed)
        sim = FleetSimulation(params, inputs, feeders=feeders)
        sim.run(FleetRuleBasedScheduler())
        assert_fleet_invariants(sim)
        sim.reset()
        sim.run(FleetRandomScheduler.from_factory(RngFactory(seed=seed), sim.n_hubs))
        assert_fleet_invariants(sim)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_engine_under_random_actions(self, seed):
        configs, _, inputs, _, actions = random_case(seed)
        for index, config in enumerate(configs):
            sim = HubSimulation(EctHub(config), hub_inputs(inputs, index))
            for t in range(inputs.horizon):
                sim.step(int(actions[t, index]))
            assert_scalar_invariants(sim)

    def test_default_fleet_scenarios_satisfy_invariants(self):
        # The generative scenario path (renewables, strata occupancy,
        # sampled outages), congested on purpose.
        _, sim = build_default_fleet(
            10,
            n_days=5,
            seed=7,
            outage_probability=0.01,
            n_feeders=3,
            feeder_capacity_kw=120.0,
        )
        sim.run(FleetRuleBasedScheduler())
        assert sim.book.total_import_shortfall_kwh > 0.0  # capacity binds
        assert_fleet_invariants(sim)


# --------------------------------------------------------------------- #
# Determinism: same seed, byte-identical results                          #
# --------------------------------------------------------------------- #


def book_bytes(book) -> bytes:
    chunks = [book.action.tobytes(), book.blackout.tobytes()]
    chunks.extend(getattr(book, name).tobytes() for name in book._FLOAT_COLUMNS)
    return b"".join(chunks)


class TestDeterminism:
    def _run_once(self, scheduler_seed: int):
        _, sim = build_default_fleet(
            8,
            n_days=5,
            seed=11,
            outage_probability=0.01,
            n_feeders=2,
            feeder_capacity_kw=150.0,
        )
        sim.run(
            FleetRandomScheduler.from_factory(
                RngFactory(seed=scheduler_seed), sim.n_hubs
            )
        )
        return sim.book

    def test_fleet_runs_are_byte_identical(self):
        first = self._run_once(5)
        second = self._run_once(5)
        assert book_bytes(first) == book_bytes(second)

    def test_rule_based_runs_are_byte_identical(self):
        books = []
        for _ in range(2):
            _, sim = build_default_fleet(
                8, n_days=5, seed=11, n_feeders=2, feeder_capacity_kw=150.0
            )
            books.append(sim.run(FleetRuleBasedScheduler()))
        assert book_bytes(books[0]) == book_bytes(books[1])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--n-hubs", "5", "--days", "7", "--scheduler", "random"],
            [
                "fleet",
                "--n-hubs",
                "6",
                "--days",
                "7",
                "--n-feeders",
                "2",
                "--feeder-capacity",
                "130",
            ],
            ["run", "fleet-grid", "--scale", "0.25"],
        ],
    )
    def test_cli_exports_are_byte_identical(self, argv, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert main([*argv, "--out", str(path)]) == 0
        first, second = (path.read_bytes() for path in paths)
        assert first == second

    def test_cli_spec_exports_are_byte_identical(self, tmp_path):
        """Golden check for the declarative path: ``fleet --spec … --out``."""
        from repro.spec import get_preset

        spec_path = tmp_path / "scenario.json"
        get_preset("heterogeneous-batteries").with_overrides(
            {"run.days": 2, "grid.n_feeders": 3, "grid.feeder_capacity_kw": 150.0}
        ).save(spec_path)
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert main(["fleet", "--spec", str(spec_path), "--out", str(path)]) == 0
        first, second = (path.read_bytes() for path in paths)
        assert first == second

    def test_cli_preset_export_matches_its_spec_file_export(self, tmp_path):
        """``--preset NAME`` and the preset saved to disk are the same run."""
        from repro.spec import get_preset

        spec_path = tmp_path / "scenario.json"
        get_preset("rural-microgrid").with_overrides({"run.days": 2}).save(spec_path)
        by_preset = tmp_path / "preset.json"
        by_file = tmp_path / "file.json"
        assert (
            main(
                [
                    "fleet", "--preset", "rural-microgrid",
                    "--set", "run.days=2", "--out", str(by_preset),
                ]
            )
            == 0
        )
        assert main(["fleet", "--spec", str(spec_path), "--out", str(by_file)]) == 0
        assert by_preset.read_bytes() == by_file.read_bytes()
