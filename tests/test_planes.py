"""SlotPlanes: the precomputed planes must equal the per-step formulas.

The fused kernel's correctness rests on each plane column being exactly
the value the PR-1 engine recomputed from ``inputs.slot(t)`` — these
tests pin that equality bit-for-bit, plus the engine-level consequences
(``available_import_kw`` from the cache, blackout fast path, buffer
reuse across ``reset``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetInputs,
    FleetParams,
    FleetRuleBasedScheduler,
    FleetSimulation,
    SlotPlanes,
    build_default_fleet,
)
from repro.hub.hub import HubConfig
from repro.energy.battery import BatteryConfig

from fleet_oracle import uniform_feeders


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
        for t in range(inputs.horizon):
            expected = params.cs_power_kw(inputs.occupied[:, t])
            assert (planes.p_cs_kw[:, t] == expected).all()

    def test_srtp_and_revenue_planes(self, case):
        params, inputs, planes = case
        for t in range(0, inputs.horizon, 7):
            srtp = params.cs_base_price_kwh * (1.0 - inputs.discount[:, t])
            assert (planes.srtp_kwh[:, t] == srtp).all()
            revenue = planes.p_cs_kw[:, t] * params.dt_h * srtp
            assert (planes.revenue[:, t] == revenue).all()

    def test_blackout_planes(self, case):
        params, inputs, planes = case
        renewable = inputs.pv_power_kw + inputs.wt_power_kw
        p_bs = planes.p_bs_kw
        deficit = np.maximum(p_bs - renewable, 0.0) * params.dt_h
        surplus = np.maximum(renewable - p_bs, 0.0)
        assert (planes.blackout_deficit_kwh == deficit).all()
        assert (planes.blackout_surplus_kw == surplus).all()

    def test_base_import_plane_matches_old_per_step_signal(self, case):
        params, inputs, planes = case
        # The pre-planes engine rebuilt this from inputs.slot(t) per call.
        for t in range(0, inputs.horizon, 5):
            slot = inputs.slot(t)
            base = np.maximum(
                params.bs_power_kw(slot.load_rate)
                + params.cs_power_kw(slot.occupied)
                - slot.pv_power_kw
                - slot.wt_power_kw,
                0.0,
            )
            base = np.where(planes.outage[:, t], 0.0, base)
            assert (planes.base_import_kw[:, t] == base).all()

    def test_outage_fast_path_mask(self, case):
        _, inputs, planes = case
        assert (planes.outage_any == inputs.outage_mask().any(axis=0)).all()

    def test_shapes_and_memory_accounting(self, case):
        params, inputs, planes = case
        assert planes.n_hubs == inputs.n_hubs
        assert planes.horizon == inputs.horizon
        assert planes.nbytes > 0


class TestEngineUsesPlanes:
    def test_available_import_kw_matches_rebuilt_signal(self):
        params, inputs = build_case(seed=9)
        feeders = uniform_feeders(params.n_hubs, 2, 30.0)
        sim = FleetSimulation(params, inputs, feeders=feeders)
        for t in range(inputs.horizon):
            slot = inputs.slot(t)
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

    def test_planes_and_buffers_survive_reset(self):
        _, sim = build_default_fleet(6, n_days=2, seed=1)
        planes = sim.planes
        first = sim.run(FleetRuleBasedScheduler())
        first_bytes = first.p_grid_kw.tobytes()
        sim.reset()
        assert sim.planes is planes  # not recomputed
        second = sim.run(FleetRuleBasedScheduler())
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
