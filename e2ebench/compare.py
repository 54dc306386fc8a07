"""Diff two sets of saved benchmark records, workload by workload.

    python3 e2ebench/compare.py BASE_DIR HEAD_DIR

Each directory holds the records ``e2ebench/run.py --save DIR`` wrote,
one per run. For every workload in both sets this prints the end-to-end
rows first (median and quartiles of the per-run medians, the change,
the metric's bound from ``BENCHMARK.json``, and a verdict), then the
error rate, then the per-layer self-time rows of the traced runs.

A row is ``unresolved`` when either side's spread (quartile distance
over median) exceeds its bound — unless every head run reads better
than every base run. Per-layer rows have no bound in ``BENCHMARK.json``
and use :data:`LAYER_BOUND`.

Records from different environments do not compare: the command
refuses (exit code 2) when the fingerprints differ in host, platform,
Python or numpy version, ``ECT_PERF_RELAXED`` or ``nproc``, or when the
two sets' median load average per core at start differs by more than
:data:`LOAD_PER_CORE_TOLERANCE`. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Fingerprint fields that must match exactly (git_commit may differ).
STATIC_FIELDS = (
    "hostname",
    "platform",
    "python_version",
    "numpy_version",
    "ect_perf_relaxed",
    "nproc",
)
#: Bound on the per-layer self-time rows.
LAYER_BOUND = 0.10
#: Largest difference in median 1-minute load per core between the sets.
LOAD_PER_CORE_TOLERANCE = 0.5


class Refused(Exception):
    """The two sets were measured in different environments."""


def load_records(directory: Path) -> list[dict]:
    records = [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"compare: no records in {directory}")
    return records


def check_fingerprints(base: list[dict], head: list[dict]) -> None:
    """Raise :class:`Refused` unless both sets share one environment."""
    static = {
        json.dumps({key: record["fingerprint"].get(key) for key in STATIC_FIELDS},
                   sort_keys=True)
        for record in base + head
    }
    if len(static) > 1:
        raise Refused("environment fingerprints differ:\n  " + "\n  ".join(sorted(static)))

    def load_per_core(records: list[dict]) -> float:
        return statistics.median(
            r["fingerprint"]["load_1m_at_start"] / r["fingerprint"]["nproc"]
            for r in records
        )

    base_load, head_load = load_per_core(base), load_per_core(head)
    if abs(base_load - head_load) > LOAD_PER_CORE_TOLERANCE:
        raise Refused(
            f"load per core at start differs: base {base_load:.2f}, "
            f"head {head_load:.2f} (tolerance {LOAD_PER_CORE_TOLERANCE})"
        )


def summarise(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; a single value is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summarise(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], head: list[float], bound: float, better: str) -> str:
    """better / worse / same / unresolved, by the bound on the medians."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    if base_median == 0:
        return "same" if statistics.median(head) == 0 else "unresolved"
    change = sign * (statistics.median(head) - base_median) / abs(base_median)
    all_better = min(sign * v for v in head) > max(sign * v for v in base)
    if max(spread(base), spread(head)) > bound and not all_better:
        return "unresolved"
    if change > bound or (all_better and change > 0):
        return "better"
    if change < -bound:
        return "WORSE"
    return "same"


def _cell(values: list[float]) -> str:
    """``median [q1, q3]`` in a fixed width."""
    median, q1, q3 = summarise(values)
    return f"{median:>10.4g} [{q1:.4g}, {q3:.4g}]".ljust(34)


def _row(name: str, unit: str, base: list[float], head: list[float], bound: float,
         better: str) -> str:
    b, h = statistics.median(base), statistics.median(head)
    change = (h - b) / abs(b) if b else 0.0
    return (
        f"  {name:<40}{_cell(base)}{_cell(head)}{change:+8.1%}  {bound:>4.0%}  "
        f"{unit:<6} {verdict(base, head, bound, better)}"
    )


def compare(base: list[dict], head: list[dict]) -> list[str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    lines = [
        f"  {'metric':<40}{'base median [q1, q3]':<34}{'head median [q1, q3]':<34}"
        "  change  bound unit   verdict"
    ]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in head})
    for workload in workloads:
        sides = [[r for r in records if r["workload"] == workload]
                 for records in (base, head)]
        lines.append(f"{workload}  (base {len(sides[0])} runs, head {len(sides[1])} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values, head_values = (
                [r["end_to_end"][name] for r in side if name in r.get("end_to_end", {})]
                for side in sides
            )
            if base_values and head_values:
                lines.append(_row(name, metric["unit"], base_values, head_values,
                                  metric["bound"], metric["better"]))
        rates = [
            sum(r["failed"] for r in side) / max(sum(r["attempted"] for r in side), 1)
            for side in sides
        ]
        lines.append(f"  {'error_rate':<40}{rates[0]:>10.4g}{rates[1]:>34.4g}")
        traced = [[r["self_s"] for r in side if "self_s" in r] for side in sides]
        if not all(traced):
            continue
        def values(side: list[dict], name: str) -> list[float]:
            return [run.get(name, 0.0) for run in side]

        names = {name for side in traced for run in side for name in run}
        for name in sorted(names, key=lambda n: -statistics.median(values(traced[0], n))):
            lines.append(_row(f"{name}.self_s", "s", values(traced[0], name),
                              values(traced[1], name), LAYER_BOUND, "lower"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    base, head = load_records(args.base), load_records(args.head)
    try:
        check_fingerprints(base, head)
    except Refused as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(compare(base, head)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
