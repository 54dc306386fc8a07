"""Benchmark: the fused step kernel vs the PR-3 per-slot step.

The PR-4 hot-path overhaul precomputes every action-independent slot
quantity (:class:`repro.fleet.planes.SlotPlanes`), runs the per-step
arithmetic through reusable ``out=`` buffers straight into the cost
book's storage, evaluates the blackout branch only on outage rows, and
replaces the per-step ``np.isin`` action validation with a cheap exact
check. This bench measures the payoff two ways on the canonical
``fleet.txt`` workload (100 hubs x 336 slots, rule-based scheduler):

* against :class:`ReferenceStepSimulation` — a faithful in-file copy of
  the PR-3 ``step()`` (slot-tuple rebuilds, fresh temporaries, both
  branches every slot) run on the same hardware, which is the
  hardware-independent speedup the guard asserts on (the median over
  alternating fused/reference pairs, so load on a shared host slows
  both sides of a pair instead of one engine's whole timing); and
* against the absolute rate the fleet bench recorded before the step
  kernel's overhaul (582,104 hub-slots/sec), reported for the trend.

Both engines must also agree numerically (profit within 1e-6, columns
within atol 1e-9 — the same tolerance as the scalar-equivalence suite).
Thresholds relax under ``ECT_PERF_RELAXED=1`` / scaled-down workloads so
CI smoke runs guard regressions without flaky hard numbers.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from conftest import perf_relaxed, timed_pairs, write_perf_report
from fleet_oracle import slot_traces
from repro.energy.battery import CHARGE, DISCHARGE, IDLE
from repro.errors import FleetError, GridError
from repro.fleet import (
    FleetCostBook,
    FleetRuleBasedScheduler,
    FleetSimulation,
    build_default_fleet,
)

N_HUBS = 100

#: Batched rate the fleet bench recorded before the step kernel's overhaul.
PR3_BASELINE_RATE = 582_104.0

#: Alternating fused/reference pairs the speedup guard takes the median of.
N_PAIRS = 11

#: Same-hardware speedup guard over the reference step implementation.
MIN_SPEEDUP = 2.0
MIN_SPEEDUP_RELAXED = 1.2


class ReferenceStepSimulation(FleetSimulation):
    """The PR-3 step, verbatim: per-slot recomputation, no plane cache.

    Kept as the benchmark's reference so the speedup ratio is measured on
    the hardware running the bench instead of against a recorded number
    from other silicon. Only ``step`` differs, plus the cumulative
    battery throughput it keeps (the fused engine books none), the
    slot-by-slot ``run_jobs``, and the book write it needs into a book of its
    own; construction, feeders, and schedulers are shared with the fused
    engine.
    """

    def reset(self, **kwargs) -> None:
        super().reset(**kwargs)
        self.throughput_kwh = np.zeros(self.n_hubs)

    def _new_books(self):
        """A book over storage of its own: the reference step writes
        every column, the exogenous ones the fused engine's book only
        views."""
        return (
            FleetCostBook(
                self.n_hubs,
                self.horizon,
                feeders=self.feeders,
                voll_per_kwh=self.voll_per_kwh,
            ),
        )

    def run_jobs(self, schedulers, *, lead=None):
        """The per-slot loop: plan the remaining horizon, step each slot."""
        (scheduler,) = schedulers
        reset_hook = getattr(scheduler, "reset", None)
        if callable(reset_hook):
            reset_hook(self)
        for slot_actions in np.transpose(scheduler(self, self.t, self.horizon)):
            self.step(slot_actions)
        return self.books

    def _record(self, t: int, columns: dict[str, np.ndarray]) -> None:
        """Write one resolved slot into the (dense) book and commit it."""
        (book,) = self.books
        for name, values in columns.items():
            getattr(book, name)[:, t] = values
        book.commit_slots(t, t + 1)

    def step(self, actions: np.ndarray) -> dict[str, np.ndarray]:
        if self.done:
            raise FleetError(f"fleet horizon of {self.horizon} slots exhausted")
        actions = np.asarray(actions)
        if actions.shape != (self.n_hubs,):
            raise FleetError(
                f"actions must have shape ({self.n_hubs},), got {actions.shape}"
            )
        if not np.isin(actions, (DISCHARGE, IDLE, CHARGE)).all():
            raise FleetError("battery actions must be -1, 0, or 1")

        t = self._t
        params = self.params
        dt = params.dt_h
        blackout = self._outage[:, t]

        slot = slot_traces(self.inputs, t)
        p_bs = params.bs_power_kw(slot.load_rate)
        rtp = slot.rtp_kwh
        srtp = params.cs_base_price_kwh * (1.0 - slot.discount)
        p_pv = slot.pv_power_kw
        p_wt = slot.wt_power_kw

        normal = self._normal_branch(actions, p_bs, p_pv, p_wt, t, dt)
        dark = self._blackout_branch(p_bs, p_pv, p_wt, dt)

        applied_action = np.where(blackout, IDLE, normal["action"])
        p_cs = np.where(blackout, 0.0, normal["p_cs_kw"])
        p_bp = np.where(blackout, dark["p_bp_kw"], normal["p_bp_kw"])
        p_grid = np.where(blackout, 0.0, normal["p_grid_kw"])
        surplus = np.where(blackout, dark["surplus_kw"], normal["surplus_kw"])
        unserved = np.where(blackout, dark["unserved_kwh"], 0.0)
        soc = np.where(blackout, dark["soc_kwh"], normal["soc_kwh"])
        throughput = np.where(
            blackout, dark["throughput_kwh"], normal["throughput_kwh"]
        )

        limit = params.import_limit_kw
        over = ~blackout & (limit > 0.0) & (p_grid > limit)
        if over.any():
            hub = int(np.argmax(over))
            raise GridError(
                f"hub {hub}: import of {p_grid[hub]:.3f} kW exceeds the "
                f"interconnection limit of {limit[hub]:.3f} kW"
            )

        shortfall_kw = np.zeros(self.n_hubs)
        if self._coupled:
            p_grid, shortfall_kw = self.feeders.allocate(p_grid, t)
            shortfall_kwh = shortfall_kw * dt
            eta = np.where(params.paper_exact, 1.0, params.discharge_efficiency)
            drawn = np.minimum(shortfall_kwh / eta, soc)
            served_kwh = drawn * eta
            p_bp = p_bp - np.where(drawn > 0.0, served_kwh / dt, 0.0)
            soc = soc - drawn
            throughput = throughput + drawn
            unserved = unserved + np.maximum(shortfall_kwh - served_kwh, 0.0)

        self.soc_kwh = soc
        self.throughput_kwh = self.throughput_kwh + throughput

        columns = {
            "action": applied_action,
            "blackout": blackout,
            "p_bs_kw": p_bs,
            "p_cs_kw": p_cs,
            "p_bp_kw": p_bp,
            "p_pv_kw": p_pv,
            "p_wt_kw": p_wt,
            "p_grid_kw": p_grid,
            "surplus_kw": surplus,
            "rtp_kwh": rtp,
            "srtp_kwh": srtp,
            "soc_kwh": self.soc_kwh,
            "grid_cost": p_grid * dt * rtp,
            "bp_cost": np.where(applied_action != IDLE, 1.0, 0.0)
            * params.c_bp_per_slot,
            "revenue": p_cs * dt * srtp,
            "unserved_kwh": unserved,
            "import_shortfall_kw": shortfall_kw,
        }
        self._record(t, columns)
        self._t += 1
        return columns

    def _normal_branch(self, actions, p_bs, p_pv, p_wt, t, dt):
        params = self.params
        soc = self.soc_kwh

        eta_ch = params.charge_efficiency
        stored_requested = params.charge_rate_kw * dt * eta_ch
        headroom = np.maximum(params.soc_max_kwh - soc, 0.0)
        stored = np.where(
            stored_requested > headroom + 1e-12, headroom, stored_requested
        )
        charging = (actions == CHARGE) & (stored > 0.0)
        stored = np.where(charging, stored, 0.0)
        bus_charge_kwh = np.where(charging, stored / eta_ch, 0.0)

        eta_dch = params.discharge_efficiency
        requested_bus_kwh = params.discharge_rate_kw * dt
        drawn_requested = np.where(
            params.paper_exact,
            requested_bus_kwh * eta_dch,
            requested_bus_kwh / eta_dch,
        )
        bus_per_drawn = np.where(params.paper_exact, 1.0, eta_dch)
        available = np.maximum(soc - params.soc_min_kwh, 0.0)
        drawn = np.where(
            drawn_requested > available + 1e-12, available, drawn_requested
        )
        discharging = (actions == DISCHARGE) & (drawn > 0.0)
        drawn = np.where(discharging, drawn, 0.0)
        bus_discharge_kwh = np.where(discharging, drawn * bus_per_drawn, 0.0)

        applied = np.where(
            charging, CHARGE, np.where(discharging, DISCHARGE, IDLE)
        )
        p_bp = (bus_charge_kwh - bus_discharge_kwh) / dt
        new_soc = soc + stored - drawn

        p_cs = params.cs_power_kw(self.inputs.occupied[:, t])
        residual = p_bs + p_cs + p_bp - p_pv - p_wt
        p_grid = np.where(residual >= 0.0, residual, 0.0)
        surplus = np.where(residual >= 0.0, 0.0, -residual)

        return {
            "action": applied,
            "p_cs_kw": p_cs,
            "p_bp_kw": p_bp,
            "p_grid_kw": p_grid,
            "surplus_kw": surplus,
            "soc_kwh": new_soc,
            "throughput_kwh": stored + drawn,
        }

    def _blackout_branch(self, p_bs, p_pv, p_wt, dt):
        params = self.params
        soc = self.soc_kwh

        renewable = p_pv + p_wt
        deficit_kwh = np.maximum(p_bs - renewable, 0.0) * dt
        eta = np.where(params.paper_exact, 1.0, params.discharge_efficiency)
        drawn = np.minimum(deficit_kwh / eta, soc)
        served_kwh = drawn * eta
        return {
            "p_bp_kw": np.where(served_kwh > 0.0, -served_kwh / dt, 0.0),
            "surplus_kw": np.maximum(renewable - p_bs, 0.0),
            "soc_kwh": soc - drawn,
            "throughput_kwh": drawn,
            "unserved_kwh": deficit_kwh - served_kwh,
        }


def _timed_run(sim):
    sim.reset()
    start = time.perf_counter()
    (book,) = sim.run_jobs([FleetRuleBasedScheduler()])
    return book, time.perf_counter() - start


def test_bench_step_kernel():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 2)
    scenarios, fused = build_default_fleet(
        N_HUBS, n_days=n_days, seed=0, outage_probability=0.001
    )
    reference = ReferenceStepSimulation(
        fused.params,
        fused.inputs,
        feeders=fused.feeders,
        voll_per_kwh=fused.voll_per_kwh,
    )
    hub_slots = N_HUBS * fused.horizon

    books = {}

    def timed(sim):
        def run():
            books[sim], seconds = _timed_run(sim)
            return seconds

        return run

    fused_times, reference_times, speedups = timed_pairs(
        timed(fused), timed(reference), N_PAIRS
    )
    fused_book, reference_book = books[fused], books[reference]
    fused_s = statistics.median(fused_times)
    reference_s = statistics.median(reference_times)

    fused_rate = hub_slots / fused_s
    reference_rate = hub_slots / reference_s
    speedup = statistics.median(speedups)
    vs_recorded = fused_rate / PR3_BASELINE_RATE
    relaxed = perf_relaxed()
    floor = MIN_SPEEDUP_RELAXED if relaxed else MIN_SPEEDUP

    report = "\n".join(
        [
            "== step-kernel: fused planes kernel vs PR-3 per-slot step ==",
            f"workload: {N_HUBS} hubs x {fused.horizon} slots "
            f"({hub_slots} hub-slots), rule-based scheduler",
            f"fused     {fused_rate:>12,.0f} hub-slots/sec  ({fused_s:.3f}s)",
            f"reference {reference_rate:>12,.0f} hub-slots/sec  "
            f"({reference_s:.3f}s)",
            f"speedup   {speedup:>12.2f}x  median of {N_PAIRS} pairs, range "
            f"{min(speedups):.2f}-{max(speedups):.2f}x  (guard: >= {floor:.1f}x"
            f"{', relaxed' if relaxed else ''})",
            f"vs PR-3 recorded rate ({PR3_BASELINE_RATE:,.0f}/s): "
            f"{vs_recorded:.2f}x",
            f"profit agreement: fused ${fused_book.profit:,.1f} vs "
            f"reference ${reference_book.profit:,.1f}",
        ]
    )
    write_perf_report(
        "step-kernel",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "slots": fused.horizon,
                "hub_slots": hub_slots,
                "scheduler": "rule-based",
            },
            "fused_hub_slots_per_sec": fused_rate,
            "reference_hub_slots_per_sec": reference_rate,
            "speedup": speedup,
            "pr3_recorded_rate": PR3_BASELINE_RATE,
            "speedup_vs_pr3_recorded": vs_recorded,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Numerical safety net: the fused kernel books the same run as the
    # PR-3 step, at the scalar-equivalence tolerance.
    assert abs(fused_book.profit - reference_book.profit) < 1e-6
    for name in fused_book._FLOAT_COLUMNS:
        np.testing.assert_allclose(
            getattr(fused_book, name),
            getattr(reference_book, name),
            rtol=0,
            atol=1e-9,
            err_msg=name,
        )
    assert (fused_book.action == reference_book.action).all()

    assert speedup >= floor, report
