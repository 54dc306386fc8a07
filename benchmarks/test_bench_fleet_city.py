"""Benchmark: the city-scale fleet run and the windowed cost book.

The city-scale workload: a multi-feeder fleet (default 2k hubs x 7
days, scaled by ``ECT_BENCH_SCALE``) run once through the batched
engine, with its throughput reported. One guard:

* **memory**: the windowed cost book must compile to at most 25% of the
  dense book's bytes at this horizon (the windowed ring is
  horizon-independent, so the margin only grows with longer runs).

The throughput line is a report, not a floor: end-to-end speed is
measured by ``e2ebench`` (``city`` workload).
"""

from __future__ import annotations

import time

from conftest import bench_scale, write_perf_report
from repro import api
from repro.parallel import _available_cpus
from repro.spec.compiler import spec_from_fleet_flags

N_HUBS = 2000
DAYS = 7
N_FEEDERS = 20
FEEDER_CAPACITY_KW = 400.0

#: Windowed book bytes as a fraction of the dense book at this horizon.
MAX_WINDOWED_FRACTION = 0.25


def _spec(scale: float):
    n_hubs = max(int(round(N_HUBS * scale)), 40)
    days = max(int(round(DAYS * scale)), 2)
    return spec_from_fleet_flags(n_hubs=n_hubs, days=days).with_overrides(
        {
            "grid.n_feeders": min(N_FEEDERS, n_hubs),
            "grid.feeder_capacity_kw": FEEDER_CAPACITY_KW,
        }
    )


def test_bench_fleet_city():
    scale = bench_scale(1.0)
    spec = _spec(scale)
    cores = _available_cpus()

    start = time.perf_counter()
    single = api.run(spec)
    single_s = time.perf_counter() - start

    # Memory guard inputs: compiled-but-unrun books, dense vs windowed.
    # Always measured at the full 7-day horizon — the windowed ring is
    # horizon-independent, so shrinking the days under ECT_BENCH_SCALE
    # would shrink only the dense side and make the fraction meaningless.
    mem_spec = spec.with_overrides({"run.days": DAYS})
    dense_book = api.build(mem_spec).simulation.books[0]
    windowed_book = api.build(
        mem_spec.with_overrides({"run.storage": "windowed"})
    ).simulation.books[0]
    fraction = windowed_book.nbytes / dense_book.nbytes

    n_hubs = single.data["n_hubs"]
    horizon = dense_book.horizon // DAYS * spec.run.days
    hub_slots = n_hubs * horizon

    report = "\n".join(
        [
            "== fleet-city: city-scale run and windowed cost book ==",
            f"workload: {n_hubs} hubs x {spec.run.days} days "
            f"({hub_slots:,} hub-slots), {spec.grid.n_feeders} feeders x "
            f"{FEEDER_CAPACITY_KW:,.0f} kW ({cores} cores visible)",
            f"single process {hub_slots / single_s:>12,.0f} hub-slots/sec  "
            f"({single_s:.3f}s, spec to result)",
            f"windowed book {windowed_book.nbytes:,} B vs dense "
            f"{dense_book.nbytes:,} B at {DAYS} days ({100 * fraction:.1f}%, "
            f"guard: <= {100 * MAX_WINDOWED_FRACTION:.0f}%)",
        ]
    )
    write_perf_report(
        "fleet-city",
        report,
        {
            "workload": {
                "n_hubs": n_hubs,
                "days": spec.run.days,
                "horizon": horizon,
                "n_feeders": spec.grid.n_feeders,
                "feeder_capacity_kw": FEEDER_CAPACITY_KW,
                "cores": cores,
            },
            "single_hub_slots_per_sec": hub_slots / single_s,
            "single_s": single_s,
            "windowed_book_bytes": windowed_book.nbytes,
            "dense_book_bytes": dense_book.nbytes,
            "windowed_fraction": fraction,
        },
    )
    print("\n" + report)

    # Memory guard: windowed storage must cap the book well below dense.
    assert fraction <= MAX_WINDOWED_FRACTION, report
