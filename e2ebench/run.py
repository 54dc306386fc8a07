"""The repo benchmark: spec-to-``--out`` wall time on four workloads.

    python3 e2ebench/run.py --workload city --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each repetition is a fresh interpreter
(``e2ebench/worker.py``) that imports the program, resolves the
workload's spec from ``--seed``, makes one ``repro.api`` call, writes
the ``--out`` JSON and checks it. Repetitions run one after another (a
closed loop with one client, no worker pools) until ``--seconds`` is
spent, with at least :data:`MIN_REPS` of them; the end-to-end metrics
are their medians. Each worker runs NumPy's BLAS on one thread, so a run
keeps to one core of the host's few and does not contend with itself.

The times (``setup_s``, ``wall_s``, ``cpu_s`` and the ``hub_slots_per_s``
derived from ``wall_s``) are paced: each repetition's seconds are divided
by how much slower than the reference the core ran during that region,
as sampled inside the worker by ``e2ebench/pace.py``. They read in
seconds at the reference speed, so the drift of a shared host cancels
out of them and a change to the program does not. ``--save`` keeps the
raw seconds and the pace factors next to them.

``--trace 1`` spends the last repetition of the budget under the
outside-in tracer (``e2ebench/tracer.py``) and reports the per-layer
metrics instead, plus ``trace.overhead_share``: the traced ``wall_s``
against the untraced median.

A repetition fails when it raises, fails a check of its export, or
writes an export that differs byte for byte from the seed's first one
(the traced export included). The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--save DIR`` also writes the full record (raw samples, both metric
sets, environment fingerprint) for ``e2ebench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fewest untraced repetitions a run reports a median over.
MIN_REPS = 3
#: A run must exit within this many seconds.
RUN_DEADLINE_S = 170.0
#: Directory for exports, results and traces, inside the checkout.
OUT_DIR = ".e2ebench_out"

#: Environment variables that cap the BLAS thread pools NumPy may use.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_METRICS = {
    "wall_s": "s",
    "hub_slots_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class RepFailed(Exception):
    """A repetition that produced no usable record."""


def _worker(root: Path, args: list[str], result: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # One client, one thread: BLAS threads would compete for the host's
    # few cores and measure the scheduler.
    env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    result.unlink(missing_ok=True)
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"timed out after {exc.timeout:.0f}s") from exc
    if completed.returncode != 0 or not result.is_file():
        raise RepFailed(f"worker exited with code {completed.returncode}")
    record = json.loads(result.read_text())
    result.unlink()
    return record


def _rep(root: Path, out: Path, name: str, seed: int, index: int, deadline: float,
         trace: Path | None = None) -> dict:
    export = out / f"{name}-seed{seed}-{index}.json"
    args = ["--workload", name, "--seed", str(seed), "--out", str(export)]
    if trace is not None:
        args += ["--trace", str(trace)]
    try:
        return _worker(root, args, out / f"{name}-seed{seed}-{index}.result.json", deadline)
    finally:
        export.unlink(missing_ok=True)


def fingerprint(root: Path, out: Path, deadline: float) -> dict:
    """Environment fingerprint: run_metadata + nproc + load at start."""
    load_1m = os.getloadavg()[0]
    record = _worker(root, ["--setup-only"], out / "fingerprint.json",
                     deadline)
    record["fingerprint"].update(
        nproc=len(os.sched_getaffinity(0)), load_1m_at_start=load_1m
    )
    return record["fingerprint"]


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one run, summarised."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    # An untimed first interpreter warms the file cache (and compiles
    # bytecode where Python writes it) and records the fingerprint.
    env_fingerprint = fingerprint(root, out, deadline)

    records: list[dict] = []
    errors: list[str] = []
    attempted = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        per_rep = elapsed / attempted if attempted else 0.0
        # A traced run keeps room for its traced repetition.
        if attempted >= MIN_REPS and elapsed + per_rep * (1 + trace) > seconds:
            break
        if attempted and time.monotonic() + 2 * per_rep > deadline:
            break
        attempted += 1
        try:
            records.append(_rep(root, out, name, seed, attempted, deadline))
        except RepFailed as exc:
            errors.append(f"rep {attempted}: {exc}")

    traced = None
    if trace:
        attempted += 1
        try:
            traced = _rep(root, out, name, seed, 0, deadline,
                          trace=out / f"{name}-seed{seed}.trace.json")
        except RepFailed as exc:
            errors.append(f"traced rep: {exc}")

    reference = records[0]["export_sha256"] if records else None
    failed = len(errors)
    labelled = [(f"rep {index}", record) for index, record in enumerate(records, 1)]
    if traced is not None:
        labelled.append(("traced rep", traced))
    for label, record in labelled:
        problems = list(record["failures"])
        if record["export_sha256"] != reference:
            problems.append("export differs from the seed's first export")
        if problems:
            failed += 1
            errors.append(f"{label}: " + "; ".join(problems))

    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "fingerprint": env_fingerprint,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "samples": {
            key: [record[key] for record in records]
            for key in (
                "setup_s", "setup_pace", "wall_s", "cpu_s", "pace", "peak_rss_mb"
            )
        },
    }
    if records:
        paced = {
            "setup_s": [r["setup_s"] / r["setup_pace"] for r in records],
            "wall_s": [r["wall_s"] / r["pace"] for r in records],
            "cpu_s": [r["cpu_s"] / r["pace"] for r in records],
            "peak_rss_mb": summary["samples"]["peak_rss_mb"],
        }
        summary["end_to_end"] = {
            key: statistics.median(values) for key, values in paced.items()
        }
        wall = summary["end_to_end"]["wall_s"]
        summary["end_to_end"]["hub_slots_per_s"] = WORKLOADS[name].hub_slots / wall
    if traced is not None and records:
        layers = dict(traced["layers"])
        traced_wall = traced["wall_s"] / traced["pace"]
        layers["trace.overhead_share"] = (traced_wall - wall) / wall
        summary["per_layer"] = layers
        summary["self_s"] = traced["self_s"]
        summary["missing_targets"] = traced["missing_targets"]
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="directory for the full record")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the repetition in flight.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "api.py").is_file():
        print(f"e2ebench: no program under {root / 'src' / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    try:
        summary = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"e2ebench: the set-up interpreter failed: {exc}", file=sys.stderr)
        return 1
    for error in summary["errors"]:
        print(f"e2ebench: {error}", file=sys.stderr)
    wanted = "per_layer" if args.trace else "end_to_end"
    if wanted not in summary:
        print("e2ebench: no repetition completed; no result", file=sys.stderr)
        return 1

    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
        (args.save / f"{stem}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n"
        )

    metrics = {
        key: {"value": value, "unit": E2E_METRICS.get(key) or layer_unit(key)}
        for key, value in summary[wanted].items()
    }
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    for suffix, unit in (
        (".self_share", "ratio"),
        (".calls", "count"),
        (".hub_slots_per_s", "1/s"),
        (".hub_slots", "count"),
        (".bytes", "B"),
    ):
        if name.endswith(suffix):
            return unit
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
