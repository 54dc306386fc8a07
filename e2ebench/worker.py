"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 e2ebench/worker.py --workload city --seed 0 \\
        --out .e2ebench_out/city.json --result .e2ebench_out/city.result.json

Measures the set-up (importing ``repro.api`` and ``write_results_json``),
then the timed region (spec to ``--out`` JSON on disk), checks the
export, and writes one JSON record to ``--result``. ``--trace PATH``
runs the timed region under the outside-in tracer and writes the spans
to ``PATH``; ``--setup-only`` records the environment fingerprint
instead and stops after the imports. Both regions run under
``pace.Gauge``, and the record carries how much slower than the
reference the core ran during each (``setup_pace``, ``pace``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402


def _cpu_s() -> float:
    """Process CPU time so far, children included."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.setup_only and None in (args.workload, args.seed, args.out):
        parser.error("--workload, --seed and --out are required unless --setup-only")

    with pace.Gauge() as gauge:
        return _measure(args, gauge)


def _measure(args: argparse.Namespace, gauge: pace.Gauge) -> int:
    """Set-up, then the timed region; each split off the gauge."""
    setup_start = time.perf_counter()
    from repro import api  # noqa: F401
    from repro.experiments.base import write_results_json  # noqa: F401

    setup_s = time.perf_counter() - setup_start
    record: dict = {"setup_s": setup_s, "setup_pace": gauge.split()}
    if args.setup_only:
        from repro.telemetry import run_metadata

        record["fingerprint"] = run_metadata()
        del record["fingerprint"]["peak_rss_mb"]
        args.result.write_text(json.dumps(record))
        return 0

    import tracer as tracing
    from workloads import WORKLOADS, deliver

    workload = WORKLOADS[args.workload]
    prepared = workload.prepare(args.seed)

    tracer = None
    if args.trace is not None:
        tracer = tracing.Tracer(run_id=f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    gauge.split()  # drop the probes taken while preparing
    cpu_start = _cpu_s()
    wall_start = time.perf_counter()
    if tracer is None:
        deliver(workload, prepared, args.out)
    else:
        with tracing.installed(tracer) as missing:
            deliver(workload, prepared, args.out)
    wall_s = time.perf_counter() - wall_start
    cpu_s = _cpu_s() - cpu_start
    run_pace = gauge.split()

    export = args.out.read_bytes()
    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        pace=run_pace,
        # The largest process, so memory moved into a child still shows.
        peak_rss_mb=max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        / 1024,
        export_sha256=hashlib.sha256(export).hexdigest(),
        failures=workload.check(json.loads(export)),
    )
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, wall_s)
        record["self_s"] = tracer.self_times()
        record["missing_targets"] = missing
        payload = tracer.to_json()
        payload["missing_targets"] = missing
        args.trace.write_text(json.dumps(payload))
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
