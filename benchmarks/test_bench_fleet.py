"""Benchmark: batched fleet engine vs the per-hub Python loop.

Simulates the same 100-hub scenario set under the rule-based scheduler
twice — once through :class:`repro.fleet.FleetSimulation` (one vectorized
step per slot) and once as 100 independent runs of the scalar
:class:`HubSimulation` frozen in ``tests/scalar_oracle`` — and reports throughput
in hub-slots/sec. A second case times the shared-grid coupled engine
(binding feeders, allocation + reserve routing live every slot) against
the uncoupled batched step: the guard is coupling < 2× the uncoupled
cost. Reports are persisted as ``fleet.{txt,json}`` (see
``conftest.write_perf_report``) so the perf trajectory is tracked across
PRs; the PR-1 acceptance floor of a ≥5× batched speedup still applies,
to the median over alternating batched/looped pairs.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from conftest import timed_pairs, write_perf_report
from fleet_oracle import hub_inputs
from repro.fleet import FleetRuleBasedScheduler, build_default_fleet
from scalar_oracle import HubSimulation, RuleBasedScheduler, build_hub

#: Fleet size pinned by the acceptance criterion; horizon scales instead.
N_HUBS = 100

#: Alternating batched/looped pairs the speedup guard takes the median of.
N_PAIRS = 3

#: Same-hardware floor of the batched engine over the per-hub loop.
MIN_SPEEDUP = 5.0

#: Alternating uncoupled/coupled pairs the coupling guard takes the median of.
N_PAIRS_COUPLING = 11


def test_bench_fleet_throughput():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 2)
    scenarios, sim = build_default_fleet(
        N_HUBS, n_days=n_days, seed=0, outage_probability=0.001
    )
    hub_slots = N_HUBS * sim.horizon
    results = {}

    def batched():
        sim.reset()
        start = time.perf_counter()
        results["batched"] = sim.run_jobs([FleetRuleBasedScheduler()])[0]
        return time.perf_counter() - start

    def looped():
        start = time.perf_counter()
        profit = 0.0
        for index, scenario in enumerate(scenarios):
            one = HubSimulation(build_hub(scenario), hub_inputs(sim.inputs, index))
            one.run(RuleBasedScheduler())
            profit += one.book.profit
        results["looped"] = profit
        return time.perf_counter() - start

    # The looped side takes seconds a run, so a few pairs and no warm-up.
    batched_times, looped_times, speedups = timed_pairs(
        batched, looped, N_PAIRS, warmup=False
    )
    batched_book, looped_profit = results["batched"], results["looped"]
    batched_s = statistics.median(batched_times)
    looped_s = statistics.median(looped_times)
    batched_rate = hub_slots / batched_s
    looped_rate = hub_slots / looped_s
    speedup = statistics.median(speedups)

    report = "\n".join(
        [
            "== fleet: batched vs looped throughput ==",
            f"workload: {N_HUBS} hubs x {sim.horizon} slots "
            f"({hub_slots} hub-slots), rule-based scheduler",
            f"batched   {batched_rate:>12,.0f} hub-slots/sec  ({batched_s:.3f}s)",
            f"looped    {looped_rate:>12,.0f} hub-slots/sec  ({looped_s:.3f}s)",
            f"speedup   {speedup:>12.1f}x  median of {N_PAIRS} pairs, range "
            f"{min(speedups):.1f}-{max(speedups):.1f}x  (guard: >= "
            f"{MIN_SPEEDUP:.0f}x)",
            f"network profit agreement: batched ${batched_book.profit:,.1f} "
            f"vs looped ${looped_profit:,.1f}",
        ]
    )
    write_perf_report(
        "fleet",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "slots": sim.horizon,
                "hub_slots": hub_slots,
                "scheduler": "rule-based",
            },
            "batched_hub_slots_per_sec": batched_rate,
            "looped_hub_slots_per_sec": looped_rate,
            "speedup": speedup,
        },
    )
    print("\n" + report)

    # The engines must agree (the real equivalence suite lives in tests/).
    assert abs(batched_book.profit - looped_profit) < 1e-6
    # Acceptance floor: the batched engine is at least 5x the Python loop,
    # as the median over alternating batched/looped pairs.
    assert speedup >= MIN_SPEEDUP, report


def test_bench_fleet_coupling_overhead():
    """Shared-grid coupling must cost < 2x the uncoupled batched step.

    Both runs use ``congestion_aware=False`` so the action streams start
    identical and the congested run cannot schedule its way around the
    binding limit — the timing difference is the allocation + reserve
    routing itself, exercised on real contention at every scale. The
    timed horizon is floored at 14 days: this ratio gates CI, and a
    sub-50 ms numerator would make the guard a coin flip on shared
    runners. The guard reads the median ratio over alternating
    uncoupled/coupled pairs, so load on a shared host slows both sides
    of a pair instead of one side's whole timing.
    """
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 14)
    n_feeders = 4

    def build(feeder_capacity_kw):
        _, sim = build_default_fleet(
            N_HUBS,
            n_days=n_days,
            seed=0,
            outage_probability=0.001,
            n_feeders=n_feeders,
            feeder_capacity_kw=feeder_capacity_kw,
        )
        return sim

    books = {}

    def timed(name, sim):
        def run():
            sim.reset()
            start = time.perf_counter()
            (books[name],) = sim.run_jobs(
                [FleetRuleBasedScheduler(congestion_aware=False)]
            )
            return time.perf_counter() - start

        return run

    # Reference: the same 4-feeder topology, unlimited capacity (the
    # engine's fast path), peaks read off the book's feeder rollup.
    run_uncoupled = timed("uncoupled", build(np.inf))
    run_uncoupled()
    capacity = 0.7 * float(
        books["uncoupled"].feeder_aggregates()["feeder_peak_import_kw"].max()
    )
    uncoupled_times, coupled_times, overheads = timed_pairs(
        run_uncoupled, timed("coupled", build(capacity)), N_PAIRS_COUPLING
    )
    reference_book, coupled_book = books["uncoupled"], books["coupled"]
    uncoupled_s = statistics.median(uncoupled_times)
    coupled_s = statistics.median(coupled_times)

    hub_slots = N_HUBS * reference_book.horizon
    overhead = statistics.median(overheads)
    congested = coupled_book.feeder_aggregates()["congested_feeder_slots"]
    report = "\n".join(
        [
            "== fleet: shared-grid coupling overhead ==",
            f"workload: {N_HUBS} hubs x {reference_book.horizon} slots, "
            f"{n_feeders} feeders @ {capacity:,.0f} kW (70% of peak), "
            "rule-based scheduler (congestion-blind)",
            f"uncoupled {hub_slots / uncoupled_s:>12,.0f} hub-slots/sec  "
            f"({uncoupled_s:.3f}s)",
            f"coupled   {hub_slots / coupled_s:>12,.0f} hub-slots/sec  "
            f"({coupled_s:.3f}s)",
            f"overhead  {overhead:>12.2f}x  median of {N_PAIRS_COUPLING} pairs, "
            f"range {min(overheads):.2f}-{max(overheads):.2f}x  (guard: < 2x)",
            f"congestion: {coupled_book.total_import_shortfall_kwh:,.1f} kWh "
            f"curtailed over {congested} "
            "congested feeder-slots",
        ]
    )
    # Own section file: repeated/partial bench runs stay deterministic.
    write_perf_report(
        "fleet-coupling",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "slots": reference_book.horizon,
                "hub_slots": hub_slots,
                "n_feeders": n_feeders,
                "feeder_capacity_kw": capacity,
                "scheduler": "rule-based (congestion-blind)",
            },
            "uncoupled_hub_slots_per_sec": hub_slots / uncoupled_s,
            "coupled_hub_slots_per_sec": hub_slots / coupled_s,
            "overhead": overhead,
            "congested_feeder_slots": congested,
            "curtailed_kwh": coupled_book.total_import_shortfall_kwh,
        },
    )
    print("\n" + report)

    # The congested run must actually exercise the coupling path.
    assert congested > 0
    # Guard: the allocation step costs less than the batched step itself.
    assert overhead < 2.0, report
