"""SlotPlanes: the precomputed planes must equal the per-step formulas.

The fused kernel's correctness rests on each plane column being exactly
the value the first fleet engine recomputed per step from the slot's
traces (``fleet_oracle.slot_traces``) — these tests pin that equality
bit-for-bit, plus the engine-level consequences (``available_import_kw``
from the cache, blackout fast path, buffer reuse across ``reset``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetCostBook,
    FleetInputs,
    FleetParams,
    FleetRuleBasedScheduler,
    FleetSimulation,
    SlotPlanes,
    build_default_fleet,
)
from repro.hub.hub import HubConfig
from repro.energy.battery import BatteryConfig

from fleet_oracle import slot_traces, uniform_feeders


def build_case(seed: int = 3, n_hubs: int = 6, horizon: int = 48):
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n_hubs):
        configs.append(
            HubConfig(
                battery=BatteryConfig(
                    capacity_kwh=float(rng.uniform(10.0, 50.0)),
                    charge_rate_kw=float(rng.uniform(2.0, 10.0)),
                    discharge_rate_kw=float(rng.uniform(2.0, 10.0)),
                    charge_efficiency=float(rng.uniform(0.85, 1.0)),
                    discharge_efficiency=float(rng.uniform(0.85, 1.0)),
                ),
                n_base_stations=int(rng.integers(1, 4)),
                pv=None,
            )
        )
    params = FleetParams.from_hub_configs(configs)
    inputs = FleetInputs(
        load_rate=rng.uniform(0.0, 1.0, (n_hubs, horizon)),
        rtp_kwh=rng.uniform(0.02, 0.7, (n_hubs, horizon)),
        pv_power_kw=rng.uniform(0.0, 8.0, (n_hubs, horizon)),
        wt_power_kw=rng.uniform(0.0, 5.0, (n_hubs, horizon)),
        occupied=rng.integers(0, 2, (n_hubs, horizon)),
        discount=rng.uniform(0.0, 0.5, (n_hubs, horizon)),
        outage=rng.random((n_hubs, horizon)) < 0.08,
    )
    return params, inputs


class TestPlaneFormulas:
    """Each plane column equals the per-slot expression it replaced."""

    @pytest.fixture(scope="class")
    def case(self):
        params, inputs = build_case()
        return params, inputs, SlotPlanes(params, inputs)

    def test_bs_power_plane(self, case):
        params, inputs, planes = case
        for t in range(inputs.horizon):
            expected = params.bs_power_kw(inputs.load_rate[:, t])
            assert (planes.p_bs_kw[:, t] == expected).all()

    def test_cs_power_plane(self, case):
        params, inputs, planes = case
        outage = inputs.outage_mask()
        for t in range(inputs.horizon):
            expected = params.cs_power_kw(inputs.occupied[:, t])
            # Charging is suspended in a blackout: the booked draw is zero.
            expected = np.where(outage[:, t], 0.0, expected)
            assert (planes.p_cs_kw[:, t] == expected).all()

    def test_srtp_and_revenue_planes(self, case):
        params, inputs, planes = case
        outage = inputs.outage_mask()
        for t in range(0, inputs.horizon, 7):
            srtp = params.cs_base_price_kwh * (1.0 - inputs.discount[:, t])
            assert (planes.srtp_kwh[:, t] == srtp).all()
            p_cs = params.cs_power_kw(inputs.occupied[:, t])
            revenue = np.where(outage[:, t], 0.0, p_cs * params.dt_h * srtp)
            assert (planes.revenue[:, t] == revenue).all()

    def test_residual_static_plane_uses_the_raw_cs_draw(self, case):
        params, inputs, planes = case
        for t in range(inputs.horizon):
            slot = slot_traces(inputs, t)
            residual = (
                params.bs_power_kw(slot.load_rate)
                + params.cs_power_kw(slot.occupied)
                - slot.pv_power_kw
                - slot.wt_power_kw
            )
            assert (planes.residual_static_kw[:, t] == residual).all()

    def test_planes_are_read_only(self, case):
        _, _, planes = case
        for name in SlotPlanes.__slots__:
            if not name.startswith("_"):
                assert not getattr(planes, name).flags.writeable, name

    def test_base_import_plane_matches_old_per_step_signal(self, case):
        params, inputs, planes = case
        # The pre-planes engine rebuilt this from slot_traces(inputs, t) per call.
        expected = []
        for t in range(inputs.horizon):
            slot = slot_traces(inputs, t)
            base = np.maximum(
                params.bs_power_kw(slot.load_rate)
                + params.cs_power_kw(slot.occupied)
                - slot.pv_power_kw
                - slot.wt_power_kw,
                0.0,
            )
            base = np.where(planes.outage[:, t], 0.0, base)
            assert planes.base_import_kw(t).tobytes() == base.tobytes()
            expected.append(base)
        expected = np.stack(expected, axis=1)
        assert planes.base_import_kw().tobytes() == expected.tobytes()
        block = planes.base_import_kw(slice(5, 17))
        assert block.tobytes() == expected[:, 5:17].tobytes()

    def test_onsite_surplus_matches_old_plane(self, case):
        params, inputs, planes = case
        # The per-slot surplus, from the raw (not blackout-zeroed) CS draw.
        p_cs = params.cs_power_kw(inputs.occupied)
        expected = np.maximum(
            inputs.pv_power_kw
            + inputs.wt_power_kw
            - params.bs_power_kw(inputs.load_rate)
            - p_cs,
            0.0,
        )
        assert planes.onsite_surplus_kw().tobytes() == expected.tobytes()
        block = planes.onsite_surplus_kw(slice(3, 40))
        assert block.tobytes() == expected[:, 3:40].tobytes()
        for t in range(0, inputs.horizon, 5):
            column = planes.onsite_surplus_kw(t)
            assert column.tobytes() == expected[:, t].tobytes()

    def test_outage_fast_path_mask(self, case):
        _, inputs, planes = case
        assert (planes.outage_any == inputs.outage_mask().any(axis=0)).all()

    def test_plane_shapes(self, case):
        params, inputs, planes = case
        assert planes.p_bs_kw.shape == (inputs.n_hubs, inputs.horizon)
        assert planes.outage_any.shape == (inputs.horizon,)


class TestEngineUsesPlanes:
    def test_available_import_kw_matches_rebuilt_signal(self):
        params, inputs = build_case(seed=9)
        feeders = uniform_feeders(params.n_hubs, 2, 30.0)
        sim = FleetSimulation(params, inputs, feeders=feeders)
        for t in range(inputs.horizon):
            slot = slot_traces(inputs, t)
            base = np.maximum(
                params.bs_power_kw(slot.load_rate)
                + params.cs_power_kw(slot.occupied)
                - slot.pv_power_kw
                - slot.wt_power_kw,
                0.0,
            )
            base = np.where(sim.planes.outage[:, t], 0.0, base)
            expected = feeders.available_import_kw(base, t)
            assert (sim.available_import_kw() == expected).all()
            sim.step(np.zeros(sim.n_hubs, dtype=int))

    def test_blackout_rows_book_the_old_plane_values(self):
        """The dark rows' deficit and surplus, formed per slot, equal the
        blackout deficit/surplus planes the kernel used to read."""
        params, inputs = build_case(seed=4)
        sim = FleetSimulation(params, inputs)
        renewable = inputs.pv_power_kw + inputs.wt_power_kw
        p_bs = params.bs_power_kw(inputs.load_rate)
        deficit = np.maximum(p_bs - renewable, 0.0) * params.dt_h
        surplus = np.maximum(renewable - p_bs, 0.0)
        eta = np.where(params.paper_exact, 1.0, params.discharge_efficiency)
        plan = np.random.default_rng(8).integers(-1, 2, (params.n_hubs, inputs.horizon))
        outage = inputs.outage_mask()
        assert outage.any()
        for t in range(inputs.horizon):
            soc_pre = sim.soc_kwh
            booked = sim.step(plan[:, t])
            dark = outage[:, t]
            drawn = np.minimum(deficit[dark, t] / eta[dark], soc_pre[dark])
            served = drawn * eta[dark]
            assert booked["surplus_kw"][dark].tobytes() == surplus[dark, t].tobytes()
            unserved = deficit[dark, t] - served
            assert booked["unserved_kwh"][dark].tobytes() == unserved.tobytes()
            assert (booked["p_grid_kw"][dark] == 0.0).all()
            assert (booked["action"][dark] == 0).all()

    def test_planes_and_buffers_survive_reset(self):
        _, sim = build_default_fleet(6, n_days=2, seed=1)
        planes = sim.planes
        first = sim.run_jobs([FleetRuleBasedScheduler()])[0]
        first_bytes = first.p_grid_kw.tobytes()
        sim.reset()
        assert sim.planes is planes  # not recomputed
        second = sim.run_jobs([FleetRuleBasedScheduler()])[0]
        assert second.p_grid_kw.tobytes() == first_bytes

    def test_soc_snapshots_are_stable_across_later_steps(self):
        """Caller-held soc_kwh references must never be mutated in place."""
        _, sim = build_default_fleet(5, n_days=2, seed=4)
        charge = np.ones(sim.n_hubs, dtype=int)
        history, copies = [], []
        for _ in range(6):
            sim.step(charge)
            history.append(sim.soc_kwh)
            copies.append(sim.soc_kwh.copy())
        for held, copied in zip(history, copies):
            assert (held == copied).all()

    def test_step_columns_are_stable_across_later_steps(self):
        """Returned columns must not be clobbered by subsequent steps."""
        _, sim = build_default_fleet(5, n_days=2, seed=2)
        idle = np.zeros(sim.n_hubs, dtype=int)
        charge = np.ones(sim.n_hubs, dtype=int)
        first = sim.step(charge)
        held = {name: values.copy() for name, values in first.items()}
        sim.step(idle)
        sim.step(charge)
        for name, values in first.items():
            assert (values == held[name]).all(), name

    def test_float_and_bool_action_dtypes_still_validated(self):
        params, inputs = build_case(seed=5)
        sim = FleetSimulation(params, inputs)
        sim.step(np.zeros(sim.n_hubs))  # float zeros are legal
        sim.step(np.ones(sim.n_hubs, dtype=bool))  # bools coerce to CHARGE
        from repro.errors import FleetError

        with pytest.raises(FleetError, match="must be -1, 0, or 1"):
            sim.step(np.full(sim.n_hubs, 0.5))
        with pytest.raises(FleetError, match="must be -1, 0, or 1"):
            sim.step(np.full(sim.n_hubs, 2))
        with pytest.raises(FleetError, match="must be -1, 0, or 1"):
            sim.step(np.full(sim.n_hubs, np.nan))


def distinct_buffers(*holders) -> list[np.ndarray]:
    """The distinct numpy buffers the holders' array attributes pin (a view
    counts its base once)."""
    seen: dict[int, np.ndarray] = {}
    for holder in holders:
        names = [
            *getattr(type(holder), "__slots__", ()),
            *getattr(holder, "__dict__", ()),
        ]
        for name in names:
            value = getattr(holder, name, None)
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                seen[id(value)] = value
    return list(seen.values())


class TestPlaneMemory:
    """Each hub-slot quantity is held once: a dense book's exogenous
    columns are views of the planes and traces, never copies."""

    @pytest.fixture(scope="class", params=[1, 3], ids=["single", "stacked"])
    def run(self, request):
        params, inputs = build_case(seed=12)
        n_jobs = request.param
        sim = FleetSimulation(
            params,
            inputs,
            feeders=uniform_feeders(params.n_hubs, 2, 25.0),
            voll_per_kwh=1.5,
            n_jobs=n_jobs,
        )
        assert sim.planes.outage.any()
        sim.run_jobs([FleetRuleBasedScheduler()] * n_jobs)
        assert sum(
            book.feeder_aggregates()["congested_feeder_slots"] for book in sim.books
        ) > 0
        return sim

    def sources(self, sim) -> dict[str, np.ndarray]:
        planes, inputs = sim.planes, sim.inputs
        return {
            "blackout": planes.outage,
            "p_bs_kw": planes.p_bs_kw,
            "p_cs_kw": planes.p_cs_kw,
            "p_pv_kw": inputs.pv_power_kw,
            "p_wt_kw": inputs.wt_power_kw,
            "rtp_kwh": inputs.rtp_kwh,
            "srtp_kwh": planes.srtp_kwh,
            "revenue": planes.revenue,
        }

    def test_exogenous_columns_view_the_planes_read_only(self, run):
        sources = self.sources(run)
        assert set(sources) == set(FleetCostBook.EXOGENOUS_COLUMNS)
        for book in run.books:
            for name, source in sources.items():
                column = getattr(book, name)
                assert np.shares_memory(column, source), name
                assert not column.flags.writeable, name
                with pytest.raises(ValueError):
                    column[0, 0] = column[0, 1]

    def test_pinned_buffers_stay_within_a_fixed_count_of_planes(self, run):
        plane_bytes = run.planes.p_bs_kw.nbytes
        buffers = distinct_buffers(run.planes, *run.books)
        # Nine action columns per job, five float planes and the three
        # traces the books view, plus the boolean outage mask and its
        # per-slot any: no exogenous column has storage of its own.
        allowed = 9 * run.n_jobs + 5 + 3
        total = sum(buffer.nbytes for buffer in buffers)
        assert total <= (allowed + 0.25) * plane_bytes
        full_size = [b for b in buffers if b.nbytes >= plane_bytes]
        assert len(full_size) <= allowed

    def test_dark_cells_book_the_old_fix_up_values(self, run):
        """The per-slot fix-up zeroed the CS draw and revenue of the dark
        rows only; every other cell kept the plane value."""
        params, inputs = run.params, run.inputs
        outage = inputs.outage_mask()
        p_cs = params.cs_power_kw(inputs.occupied)
        srtp = params.cs_base_price_kwh[:, None] * (1.0 - inputs.discount)
        revenue = p_cs * params.dt_h * srtp
        p_cs[outage] = 0.0
        revenue[outage] = 0.0
        for book in run.books:
            assert book._n_recorded == inputs.horizon
            assert book.p_cs_kw.tobytes() == p_cs.tobytes()
            assert book.revenue.tobytes() == revenue.tobytes()
            assert (book.blackout == outage).all()
