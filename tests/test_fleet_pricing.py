"""The pricing-loop lockdown suite: ECT-Price over the batched fleet engine.

Pins the properties that make fleet-scale pricing trustworthy: an
``n_hubs=1`` priced fleet run is bit-identical in occupancy draws and
within atol 1e-9 in profit to the scalar path; the zero-discount refactor
of the compiler reproduces the pre-refactor occupancy loop byte-for-byte
on every preset; randomized schedules respect monotonicity (more
discounts never lose charging sessions) and the Eq. 7 conservation laws;
priced runs are byte-identically deterministic and serial/parallel
``run_pricing`` exports agree; and the ``pricing:`` spec section
round-trips through JSON with unknown keys rejected.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.causal import (
    EctPriceConfig,
    EctPriceModel,
    EctPricePolicy,
    OraclePolicy,
    discount_schedule_for_hub,
    time_ids_for_slots,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.base import write_results_json
from repro.fleet import FeederGroup
from repro.hub.scenario import resolve_occupancy
from repro.rng import RngFactory
from repro.spec import (
    FleetSpec,
    HubGroupSpec,
    PricingSpec,
    RunSpec,
    ScenarioSpec,
    available_presets,
    build,
    get_preset,
)
from repro.spec.compiler import (
    _assemble_fleet,
    execute_jobs,
    spec_from_price_flags,
)
from repro.spec.pricing import compile_pricing, congestion_signal

from fleet_oracle import per_slot_available_import_kw
from scalar_oracle import RuleBasedScheduler, scenario_simulation

ATOL = 1e-9
BALANCE_ATOL = 1e-8

#: Cheap training protocol shared by every test that actually fits a model.
FAST_PRICING = dict(train_days=7, epochs=2)


def price_spec(policy: str = "oracle", *, n_hubs: int = 3, days: int = 2,
               seed: int = 0, **pricing_kwargs) -> ScenarioSpec:
    """A small fleet spec with a ``pricing:`` section (no blackouts)."""
    kwargs = {**FAST_PRICING, **pricing_kwargs}
    return ScenarioSpec(
        name="price-test",
        fleet=FleetSpec(n_hubs=n_hubs),
        run=RunSpec(days=days, seed=seed),
        pricing=PricingSpec(policy=policy, **kwargs),
    )


def assert_energy_balance(book, params) -> None:
    """Eq. 7 closes on every recorded (hub, slot)."""
    dt = params.dt_h
    lhs = book.p_grid_kw + book.p_pv_kw + book.p_wt_kw + book.unserved_kwh / dt
    rhs = book.p_bs_kw + book.p_cs_kw + book.p_bp_kw + book.surplus_kw
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=BALANCE_ATOL)


# --------------------------------------------------------------------- #
# Tentpole: n_hubs=1 fleet pricing == the scalar path                     #
# --------------------------------------------------------------------- #


class TestScalarEquivalence:
    """One-hub fleet pricing is the scalar pricing pipeline, exactly."""

    @pytest.mark.parametrize("policy", ["oracle", "ours"])
    def test_schedule_occupancy_and_profit_match_scalar(self, policy):
        spec = price_spec(policy, n_hubs=1)
        compiled = build(spec)
        (fleet_book,) = execute_jobs([compiled])

        # Scalar mirror: same behaviour model, same name-keyed streams,
        # same training protocol — built outside the fleet compiler.
        assembly = _assemble_fleet(spec)
        scenario = assembly.scenarios[0]
        hub_id = scenario.site.hub_id
        slots = np.arange(assembly.horizon)
        strata = assembly.behavior.sample_strata(
            hub_id,
            slots,
            RngFactory(seed=spec.run.seed).stream(f"fleet/occupancy/{hub_id}"),
        )
        if policy == "oracle":
            hub_policy = OraclePolicy(strata)
        else:
            log = assembly.behavior.simulate_log(spec.pricing.train_days)
            from repro.causal import dataset_from_log

            train = dataset_from_log(log, n_stations=1)
            model = EctPriceModel(
                1,
                train.n_time_ids,
                EctPriceConfig(
                    epochs=spec.pricing.epochs,
                    batch_size=spec.pricing.batch_size,
                    learning_rate=spec.pricing.learning_rate,
                ),
                RngFactory(seed=spec.run.seed).stream("pricing/ours"),
            )
            model.fit(train)
            hub_policy = EctPricePolicy(
                model,
                always_avoidance_threshold=(
                    spec.pricing.always_avoidance_threshold
                ),
            )
        schedule = discount_schedule_for_hub(
            hub_policy,
            hub_id,
            time_ids_for_slots(
                assembly.horizon, calendar=assembly.behavior.calendar
            ),
            discount_level=spec.pricing.discount_level,
            budget_fraction=spec.pricing.budget_fraction,
        )

        # Bit-identical schedule and occupancy draws.
        assert compiled.pricing is not None
        assert compiled.pricing.policy == policy
        assert compiled.pricing.discount[0].tobytes() == schedule.tobytes()
        occupied = resolve_occupancy(strata, schedule > 0.0)
        assert (
            compiled.simulation.inputs.occupied[0].tobytes()
            == occupied.tobytes()
        )

        # Profit within atol 1e-9 of the scalar engine on the same inputs.
        scalar = scenario_simulation(scenario, occupied, schedule)
        scalar.run(RuleBasedScheduler())
        np.testing.assert_allclose(
            fleet_book.profit_per_hub[0], scalar.book.profit, rtol=0, atol=ATOL
        )
        np.testing.assert_allclose(
            fleet_book.daily_rewards()[0],
            scalar.book.daily_rewards(),
            rtol=0,
            atol=ATOL,
        )

    def test_priced_run_is_byte_identical_across_repeats(self, tmp_path):
        paths = []
        for repeat in range(2):
            result = api.run(price_spec("ours"))
            paths.append(tmp_path / f"run{repeat}.json")
            write_results_json(result, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pricing_leaves_baseline_streams_untouched(self):
        """Training + schedule draws never perturb the engine's streams."""
        baseline = build(price_spec("none"))
        priced = build(price_spec("oracle"))
        base_inputs, priced_inputs = baseline.simulation.inputs, priced.simulation.inputs
        for name in ("load_rate", "rtp_kwh", "pv_power_kw", "wt_power_kw"):
            assert (
                getattr(base_inputs, name).tobytes()
                == getattr(priced_inputs, name).tobytes()
            ), name


# --------------------------------------------------------------------- #
# Satellite: the zero-discount compiler refactor is byte-identical        #
# --------------------------------------------------------------------- #


class TestCompilerRefactorRegression:
    """``FleetAssembly.realize_occupancy`` reproduces the old inline loop."""

    @pytest.mark.parametrize("name", sorted(available_presets()))
    def test_preset_occupancy_byte_identical_to_pre_refactor_loop(self, name):
        spec = get_preset(name).with_overrides({"run.scale": 0.25})
        assembly = _assemble_fleet(spec)
        # The pre-refactor build() loop, verbatim: per-hub strata draw +
        # scalar zero-discount resolve, stacked.
        factory = RngFactory(seed=spec.run.seed)
        slots = np.arange(assembly.horizon)
        old = np.stack(
            [
                resolve_occupancy(
                    assembly.behavior.sample_strata(
                        scenario.site.hub_id,
                        slots,
                        factory.stream(
                            f"fleet/occupancy/{scenario.site.hub_id}"
                        ),
                    ),
                    np.zeros(assembly.horizon, dtype=bool),
                )
                for scenario in assembly.scenarios
            ]
        )
        assert assembly.realize_occupancy(None).tobytes() == old.tobytes()

    def test_discount_injection_reuses_cached_strata(self):
        assembly = _assemble_fleet(price_spec("none"))
        baseline = assembly.realize_occupancy(None)
        schedule = np.zeros((assembly.n_hubs, assembly.horizon))
        schedule[:, ::3] = 0.2
        discounted = assembly.realize_occupancy(schedule)
        # Re-realising with another plane is pure: no rng state involved.
        assert assembly.realize_occupancy(None).tobytes() == baseline.tobytes()
        assert assembly.realize_occupancy(schedule).tobytes() == discounted.tobytes()

    def test_discount_rows_validates_shape(self):
        assembly = _assemble_fleet(price_spec("none"))
        with pytest.raises(ConfigError):
            assembly.discount_rows(np.zeros((assembly.n_hubs + 1, assembly.horizon)))


# --------------------------------------------------------------------- #
# Randomized properties of the priced engine                              #
# --------------------------------------------------------------------- #


class TestPricingProperties:
    def test_zero_discount_level_inputs_identical_to_baseline(self):
        baseline = build(price_spec("none"))
        zeroed = build(price_spec("oracle", discount_level=0.0))
        base_inputs, zero_inputs = baseline.simulation.inputs, zeroed.simulation.inputs
        for name in ("load_rate", "rtp_kwh", "pv_power_kw", "wt_power_kw",
                     "occupied", "discount"):
            assert (
                getattr(base_inputs, name).tobytes()
                == getattr(zero_inputs, name).tobytes()
            ), name

    @pytest.mark.parametrize("seed", range(4))
    def test_occupancy_monotone_in_discount_mask(self, seed):
        assembly = _assemble_fleet(price_spec("none", seed=seed))
        rng = np.random.default_rng(seed)
        shape = (assembly.n_hubs, assembly.horizon)
        small = rng.random(shape) < 0.2
        large = small | (rng.random(shape) < 0.3)
        occ_small = assembly.realize_occupancy(np.where(small, 0.2, 0.0))
        occ_large = assembly.realize_occupancy(np.where(large, 0.2, 0.0))
        assert (occ_large >= occ_small).all()
        # And discounts only ever *add* sessions over the baseline.
        occ_base = assembly.realize_occupancy(None)
        assert (occ_small >= occ_base).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_conservation_under_random_schedules(self, seed):
        spec = price_spec("none", seed=seed)
        rng = np.random.default_rng(100 + seed)
        assembly = _assemble_fleet(spec)
        schedule = np.where(
            rng.random((assembly.n_hubs, assembly.horizon)) < 0.3,
            rng.uniform(0.05, 0.5),
            0.0,
        )
        compiled = build(spec, discount=schedule)
        (book,) = execute_jobs([compiled])
        assert_energy_balance(book, compiled.simulation.params)
        # The injected plane is what the engine actually priced with.
        assert compiled.simulation.inputs.discount.tobytes() == schedule.tobytes()

    def test_injected_discount_bypasses_pricing_section(self):
        spec = price_spec("ours")
        schedule = np.zeros(spec.run.days * 24)
        compiled = build(spec, discount=schedule)
        assert compiled.pricing is None
        assert (compiled.simulation.inputs.discount == 0.0).all()


# --------------------------------------------------------------------- #
# Satellite: per-group strata overrides                                   #
# --------------------------------------------------------------------- #


class TestGroupStrataScales:
    def grouped_spec(self, **group_kwargs) -> ScenarioSpec:
        return ScenarioSpec(
            name="strata-test",
            fleet=FleetSpec(
                groups=(
                    HubGroupSpec(count=2),
                    HubGroupSpec(count=2, **group_kwargs),
                )
            ),
            run=RunSpec(days=2, seed=0),
        )

    def test_scales_shift_only_their_groups_rows(self):
        plain = _assemble_fleet(self.grouped_spec())
        scaled = _assemble_fleet(
            self.grouped_spec(incentive_scale=3.0, always_scale=0.2)
        )
        base, shifted = plain.realize_strata(), scaled.realize_strata()
        assert base[:2].tobytes() == shifted[:2].tobytes()
        assert base[2:].tobytes() != shifted[2:].tobytes()

    def test_unit_scales_are_byte_identical_to_no_scales(self):
        plain = _assemble_fleet(self.grouped_spec())
        unit = _assemble_fleet(
            self.grouped_spec(incentive_scale=1.0, always_scale=1.0)
        )
        assert plain.realize_strata().tobytes() == unit.realize_strata().tobytes()

    def test_invalid_scales_rejected(self):
        with pytest.raises(ConfigError):
            HubGroupSpec(count=1, incentive_scale=0.0)
        with pytest.raises(ConfigError):
            HubGroupSpec(count=1, always_scale=float("nan"))

    def test_group_scale_override_round_trips(self):
        spec = self.grouped_spec(incentive_scale=2.0)
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        bumped = spec.with_overrides({"fleet.groups.1.incentive_scale": 4.0})
        assert bumped.fleet.groups[1].incentive_scale == 4.0


# --------------------------------------------------------------------- #
# Feeder-aware pricing                                                    #
# --------------------------------------------------------------------- #


class TestFeederAware:
    def congested_spec(self, policy: str = "evening", **pricing_kwargs):
        spec = price_spec(policy, **pricing_kwargs)
        return spec.with_overrides({"grid.feeder_capacity_kw": 40.0})

    def test_unlimited_feeders_disable_feeder_awareness(self):
        compiled = build(price_spec("evening", feeder_aware=True))
        plain = build(price_spec("evening", feeder_aware=False))
        assert compiled.pricing.feeder_aware is False
        assert (
            compiled.pricing.discount.tobytes()
            == plain.pricing.discount.tobytes()
        )

    def test_congestion_signal_shape_and_range(self):
        assembly = _assemble_fleet(self.congested_spec())
        signal = congestion_signal(assembly)
        assert signal.shape == (assembly.n_hubs, assembly.horizon)
        assert (signal >= 0.0).all() and (signal <= 1.0).all()
        assert signal.max() > 0.0  # 40 kW per feeder really binds

    @pytest.mark.parametrize("profile", [None, (1.0,) * 18 + (0.5,) * 6])
    def test_congestion_signal_matches_per_slot_headroom(self, monkeypatch, profile):
        """One block headroom call equals the per-slot loop it replaced."""
        spec = self.congested_spec()
        if profile is not None:
            spec = spec.with_overrides({"grid.capacity_profile": profile})
        assembly = _assemble_fleet(spec)
        signal = congestion_signal(assembly)

        def per_slot(group, base, t):
            return np.stack(
                [
                    per_slot_available_import_kw(group, base[:, k], t + k)
                    for k in range(base.shape[1])
                ],
                axis=1,
            )

        monkeypatch.setattr(FeederGroup, "available_import_kw", per_slot)
        assert congestion_signal(assembly).tobytes() == signal.tobytes()

    def test_congestion_penalty_never_adds_discounts(self):
        aware = build(self.congested_spec(feeder_aware=True))
        blind = build(self.congested_spec(feeder_aware=False))
        assert aware.pricing.feeder_aware is True
        assert (
            aware.pricing.discounted_hub_slots
            <= blind.pricing.discounted_hub_slots
        )

    def test_congestion_weight_zero_matches_blind_schedule(self):
        aware = build(self.congested_spec(feeder_aware=True, congestion_weight=0.0))
        blind = build(self.congested_spec(feeder_aware=False))
        assert (
            aware.pricing.discount.tobytes() == blind.pricing.discount.tobytes()
        )


# --------------------------------------------------------------------- #
# run_pricing: the Table III comparison over the fleet                    #
# --------------------------------------------------------------------- #


class TestRunPricing:
    CHEAP_METHODS = ("none", "oracle", "evening")

    def test_serial_parallel_byte_identical(self, tmp_path):
        spec = price_spec("ours", n_hubs=4)
        serial = api.run_pricing(spec, methods=self.CHEAP_METHODS)
        parallel = api.run_pricing(spec, methods=self.CHEAP_METHODS, jobs=2)
        serial_path, parallel_path = tmp_path / "s.json", tmp_path / "p.json"
        write_results_json(serial, serial_path)
        write_results_json(parallel, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_trained_methods_share_one_training_dataset(self, monkeypatch):
        """The priced jobs of one fleet simulate the training log once and
        share its dataset; each method still matches its own cold run."""
        from repro import parallel
        from repro.synth.charging import ChargingBehaviorModel

        simulate_log = ChargingBehaviorModel.simulate_log
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(args)
            return simulate_log(self, *args, **kwargs)

        monkeypatch.setattr(ChargingBehaviorModel, "simulate_log", counting)
        monkeypatch.setattr(parallel, "_WORKER_ASSEMBLY", None)
        spec = price_spec("ours", n_hubs=3)
        methods = ("ours", "or", "ips")
        table = api.run_pricing(spec, methods=methods).data["per_method"]
        assert len(calls) == 1
        for name in methods:
            cold = api.run(spec.with_overrides({"pricing.policy": name})).data
            assert table[name]["network_profit"] == cold["network_profit"]
            assert table[name]["discounted_hub_slots"] == cold["pricing_discounted_hub_slots"]
        assert len(calls) == 1 + len(methods)

    def test_table_covers_every_method(self):
        result = api.run_pricing(price_spec("ours"), methods=self.CHEAP_METHODS)
        assert result.data["methods"] == list(self.CHEAP_METHODS)
        for name in self.CHEAP_METHODS:
            row = result.data["per_method"][name]
            assert np.isfinite(row["network_profit"])
            assert np.isfinite(row["avg_daily_reward_per_hub"])
        assert result.data["per_method"]["none"]["discounted_hub_slots"] == 0

    def test_oracle_never_loses_to_no_discount(self):
        # The clairvoyant policy only discounts slots whose expected
        # reward beats the margin cost — Table III's upper-bound row.
        result = api.run_pricing(price_spec("ours"), methods=("none", "oracle"))
        table = result.data["per_method"]
        assert (
            table["oracle"]["network_profit"]
            >= table["none"]["network_profit"] - ATOL
        )

    def test_validates_methods(self):
        spec = price_spec("ours")
        with pytest.raises(ConfigError):
            api.run_pricing(spec, methods=("none", "bogus"))
        with pytest.raises(ConfigError):
            api.run_pricing(spec, methods=())
        with pytest.raises(ConfigError):
            api.run_pricing(spec, methods=("none", "none"))

    def test_table3_at_city_scale(self):
        # The acceptance bar: the fleet path prices >= 100 hubs end to end.
        spec = spec_from_price_flags(
            n_hubs=100, days=2, train_days=7, epochs=2
        )
        result = api.run_pricing(spec, methods=("none", "evening", "ours"))
        assert result.data["n_hubs"] == 100
        table = result.data["per_method"]
        assert set(table) == {"none", "evening", "ours"}
        assert table["ours"]["discounted_hub_slots"] > 0
        for row in table.values():
            assert np.isfinite(row["network_profit"])


# --------------------------------------------------------------------- #
# Spec round-trips and the price CLI                                      #
# --------------------------------------------------------------------- #


class TestPricingSpecSerialization:
    GOLDEN = {
        "policy": "ours",
        "discount_level": 0.2,
        "budget_fraction": 0.195,
        "train_days": 60,
        "epochs": 30,
        "batch_size": 128,
        "learning_rate": 0.01,
        "always_avoidance_threshold": 0.5,
        "feeder_aware": False,
        "congestion_weight": 1.0,
    }

    def test_golden_pricing_dict(self):
        spec = ScenarioSpec(name="golden", pricing=PricingSpec(policy="ours"))
        assert spec.to_dict()["pricing"] == self.GOLDEN

    def test_json_round_trip(self):
        spec = price_spec("dr", feeder_aware=True, congestion_weight=2.5)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.pricing.policy == "dr"

    def test_unknown_pricing_key_rejected(self):
        payload = ScenarioSpec(name="x").to_dict()
        payload["pricing"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            ScenarioSpec.from_dict(payload)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PricingSpec(policy="surge")
        with pytest.raises(ConfigError):
            PricingSpec(discount_level=1.0)
        with pytest.raises(ConfigError):
            PricingSpec(budget_fraction=0.0)
        with pytest.raises(ConfigError):
            PricingSpec(train_days=0)
        with pytest.raises(ConfigError):
            PricingSpec(congestion_weight=-1.0)

    def test_dotted_overrides_reach_pricing(self):
        spec = ScenarioSpec(name="x").with_overrides(
            {"pricing.policy": "evening", "pricing.discount_level": 0.3}
        )
        assert spec.pricing.policy == "evening"
        assert spec.pricing.discount_level == 0.3

    def test_compile_pricing_rejects_none_policy(self):
        with pytest.raises(ConfigError):
            compile_pricing(_assemble_fleet(price_spec("none")))


class TestPriceCli:
    def test_price_subcommand_writes_table(self, tmp_path, capsys):
        out = tmp_path / "price.json"
        code = main(
            [
                "price",
                "--n-hubs", "3",
                "--days", "2",
                "--train-days", "7",
                "--epochs", "2",
                "--methods", "none,evening",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["data"]["n_hubs"] == 3
        assert set(payload["data"]["per_method"]) == {"none", "evening"}

    def test_price_flags_conflict_with_preset(self, capsys):
        assert main(["price", "--preset", "fleet-default", "--n-hubs", "5"]) == 1

    def test_bad_methods_fail_cleanly(self, capsys):
        assert main(["price", "--n-hubs", "2", "--methods", "bogus"]) == 1

    def test_fleet_price_experiment_registered(self, capsys):
        from repro.experiments import run_experiment

        result = run_experiment(
            "fleet-price", scale=0.05, seed=0, jobs=None
        )
        assert result.experiment_id == "fleet-price"
        assert "per_method" in result.data
