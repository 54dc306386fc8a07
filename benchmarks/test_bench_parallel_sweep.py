"""Benchmark: process-parallel sweep executor vs the serial loop.

Runs the same 8-job seed grid twice through ``api.run_sweep`` — serially
and over a worker pool driving the PR-9 chunked executor (two jobs per
worker task, so each submission amortises its IPC round-trip and the
per-worker assembly cache gets consecutive hits) — and reports jobs/sec
both ways. Two guards:

* **equivalence** (always): the parallel results must be byte-identical
  to the serial ones, in the same order, down to the ``--out`` JSON; and
* **speedup** (multi-core hosts only): the pool must beat the serial
  loop. The guard reads the median over :data:`N_PAIRS` serial/parallel
  pairs, not one shot, so a single run slowed by host load cannot fail
  it; the order inside a pair alternates, so neither executor always
  runs second on a warmed-up host. On a single-core host process parallelism cannot
  win, so the guard is reported as skipped rather than asserted against
  physics; thresholds also relax under ``ECT_PERF_RELAXED=1`` / scaled
  workloads so CI smoke runs stay un-flaky.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from conftest import perf_relaxed, timed_pairs, write_perf_report
from repro import api
from repro.parallel import _available_cpus
from repro.spec import SweepSpec
from repro.spec.compiler import spec_from_fleet_flags

N_JOBS = 8
#: Sized so the pool's fixed cost (worker start and IPC, about 0.05 s on
#: a 2-core host) stays a small share of the serial sweep (0.4-0.8 s
#: there): the floor then measures the executor, not how fast a job steps.
N_HUBS = 48
DAYS = 28
POOL_SIZE = 4
CHUNK_SIZE = 2
#: Alternating serial/parallel pairs the speedup guard takes the median
#: of (the whole bench stays under 10 s).
N_PAIRS = 9

# Tightened with the chunked executor: batching jobs per worker task
# cut the IPC overhead the old floors priced in.
MIN_SPEEDUP = 1.3
MIN_SPEEDUP_RELAXED = 0.9


def _sweep(scale: float) -> SweepSpec:
    days = max(int(round(DAYS * scale)), 2)
    base = spec_from_fleet_flags(n_hubs=N_HUBS, days=days)
    return SweepSpec(
        base=base,
        parameters={"run.seed": tuple(range(N_JOBS))},
        name="parallel-bench",
    )


def test_bench_parallel_sweep():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    sweep = _sweep(scale)
    cores = _available_cpus()
    # Always run the real pool (even single-core hosts must produce
    # byte-identical results through it); only the speedup guard needs
    # genuine parallel hardware.
    workers = POOL_SIZE

    results = {}

    def timed(name, **options):
        def run():
            start = time.perf_counter()
            results[name] = api.run_sweep(sweep, **options)
            return time.perf_counter() - start

        return run

    parallel_times, serial_times, speedups = timed_pairs(
        timed("parallel", jobs=workers, chunk_size=CHUNK_SIZE),
        timed("serial"),
        N_PAIRS,
        warmup=False,
    )
    serial, parallel = results["serial"], results["parallel"]
    speedup = statistics.median(speedups)
    serial_s = statistics.median(serial_times)
    parallel_s = statistics.median(parallel_times)
    multi_core = cores >= 2
    relaxed = perf_relaxed()
    floor = MIN_SPEEDUP_RELAXED if relaxed else MIN_SPEEDUP
    if not multi_core:
        guard = "skipped (single-core host)"
    else:
        guard = f">= {floor:.1f}x{' relaxed' if relaxed else ''}"

    report = "\n".join(
        [
            "== parallel-sweep: worker pool vs serial sweep ==",
            f"workload: {N_JOBS} jobs x {N_HUBS} hubs x "
            f"{sweep.base.run.days} days, {workers} workers requested "
            f"({min(workers, cores)} started), "
            f"chunks of {CHUNK_SIZE} ({cores} cores visible)",
            f"serial    {N_JOBS / serial_s:>8.2f} jobs/sec  ({serial_s:.3f}s median)",
            f"parallel  {N_JOBS / parallel_s:>8.2f} jobs/sec  ({parallel_s:.3f}s median)",
            f"speedup   {speedup:>8.2f}x  median of {N_PAIRS} pairs, range "
            f"{min(speedups):.2f}-{max(speedups):.2f}x  (guard: {guard})",
            "results byte-identical to serial: checked below",
        ]
    )
    write_perf_report(
        "parallel-sweep",
        report,
        {
            "workload": {
                "n_jobs": N_JOBS,
                "n_hubs": N_HUBS,
                "days": sweep.base.run.days,
                "workers": workers,
                "chunk_size": CHUNK_SIZE,
                "cores": cores,
            },
            "serial_jobs_per_sec": N_JOBS / serial_s,
            "parallel_jobs_per_sec": N_JOBS / parallel_s,
            "speedup": speedup,
            "pair_speedups": speedups,
            "speedup_guard": guard,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Equivalence guard: same jobs, same order, same bytes.
    serial_json = json.dumps(
        [result.to_json_dict() for result in serial], sort_keys=True
    )
    parallel_json = json.dumps(
        [result.to_json_dict() for result in parallel], sort_keys=True
    )
    assert serial_json == parallel_json

    if multi_core:
        assert speedup >= floor, report
