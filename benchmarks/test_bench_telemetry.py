"""Benchmark: telemetry overhead on the fused step kernel.

The telemetry design promise is *near-zero cost when disabled*: a run
without a session pays exactly one ``is not None`` branch per slot, and
an attached session books counters per slot (not per hub-slot), so even
enabled overhead stays small on wide fleets. This bench measures both on
the canonical step-kernel workload (100 hubs x 336 slots, rule-based
scheduler):

* **disabled** — plain :class:`~repro.fleet.FleetSimulation` run, the
  rate every other bench reports; regressions here are already gated by
  the step-kernel bench's fused-vs-reference speedup guard;
* **enabled** — the same engine with a :class:`~repro.telemetry.session.
  Telemetry` session attached, guarded to stay within a bounded slowdown
  of the disabled rate.

Both runs must book identical economics (telemetry is observational
only). Thresholds relax under ``ECT_PERF_RELAXED=1`` / scaled-down
workloads, where per-slot hook cost is amplified relative to the
shrunken arithmetic and timer noise dominates.
"""

from __future__ import annotations

import os
import statistics
import time

from conftest import perf_relaxed, timed_pairs, write_perf_report
from repro.fleet import FleetRuleBasedScheduler, build_default_fleet
from repro.telemetry import Telemetry

N_HUBS = 100

#: Alternating disabled/enabled pairs the overhead guard takes the median of.
N_PAIRS = 21

#: Max tolerated enabled-telemetry slowdown vs the disabled run.
MAX_OVERHEAD = 0.15
MAX_OVERHEAD_RELAXED = 0.60


def _timed_run(sim, telemetry):
    sim.attach_telemetry(telemetry)
    sim.reset()
    start = time.perf_counter()
    book = sim.run(FleetRuleBasedScheduler())
    seconds = time.perf_counter() - start
    sim.attach_telemetry(None)
    return book, seconds


def test_bench_telemetry_overhead():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 2)
    _, sim = build_default_fleet(
        N_HUBS, n_days=n_days, seed=0, outage_probability=0.001
    )
    hub_slots = N_HUBS * sim.horizon

    telemetry = Telemetry()
    books = {}

    def timed(session):
        def run():
            books[session], seconds = _timed_run(sim, session)
            return seconds

        return run

    # One untimed, session-less warm-up run, so the session sees only the
    # timed enabled runs.
    _timed_run(sim, None)
    disabled_times, enabled_times, ratios = timed_pairs(
        timed(None), timed(telemetry), N_PAIRS, warmup=False
    )
    disabled_book, enabled_book = books[None], books[telemetry]
    disabled_s = statistics.median(disabled_times)
    enabled_s = statistics.median(enabled_times)
    overheads = [ratio - 1.0 for ratio in ratios]

    disabled_rate = hub_slots / disabled_s
    enabled_rate = hub_slots / enabled_s
    overhead = statistics.median(overheads)
    relaxed = perf_relaxed()
    ceiling = MAX_OVERHEAD_RELAXED if relaxed else MAX_OVERHEAD

    record = telemetry.to_dict()
    step_stats = record["histograms"]["engine.step_seconds"]

    report = "\n".join(
        [
            "== telemetry: step-kernel overhead, disabled vs enabled ==",
            f"workload: {N_HUBS} hubs x {sim.horizon} slots "
            f"({hub_slots} hub-slots), rule-based scheduler",
            f"disabled  {disabled_rate:>12,.0f} hub-slots/sec  "
            f"({disabled_s:.3f}s)",
            f"enabled   {enabled_rate:>12,.0f} hub-slots/sec  "
            f"({enabled_s:.3f}s)",
            f"overhead  {overhead:>12.1%}  median of {N_PAIRS} pairs, range "
            f"{min(overheads):.1%} to {max(overheads):.1%}  (guard: <= {ceiling:.0%}"
            f"{', relaxed' if relaxed else ''})",
            f"booked step histogram: {step_stats['count']} slots, "
            f"mean {step_stats['mean'] * 1e6:,.1f} us",
        ]
    )
    write_perf_report(
        "telemetry-overhead",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "slots": sim.horizon,
                "hub_slots": hub_slots,
                "scheduler": "rule-based",
            },
            "disabled_hub_slots_per_sec": disabled_rate,
            "enabled_hub_slots_per_sec": enabled_rate,
            "overhead": overhead,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Telemetry is observational only: identical economics either way.
    assert enabled_book.profit == disabled_book.profit

    # The session saw every slot of the timed enabled runs, and no other.
    assert record["counters"]["engine.slots"] == N_PAIRS * sim.horizon
    assert record["counters"]["engine.hub_slots"] == N_PAIRS * hub_slots
    assert record["counters"]["engine.resets"] == N_PAIRS
    assert step_stats["count"] == N_PAIRS * sim.horizon

    assert overhead <= ceiling, report
