"""Benchmark harness configuration.

Each bench regenerates one paper artifact via the experiment registry and
prints the paper-vs-measured report. ``pedantic`` single-round execution is
used because the workloads are full experiments, not micro-kernels.

Scale: set ``ECT_BENCH_SCALE`` (default shown per bench) to trade fidelity
for runtime; EXPERIMENTS.md records results at the defaults.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Callable

import pytest

from repro.experiments import run_experiment
from repro.telemetry import run_metadata

#: Rendered artifact reports are also persisted here.
REPORT_DIR = Path(__file__).parent / "reports"
#: Where the timing reports (:func:`write_perf_report`) land: a
#: git-ignored directory, so a test run leaves the tracked tree clean.
TIMING_DIR = Path(__file__).parent / "timing"

# The throughput benches time the fleet engine against the scalar engine
# frozen in tests/scalar_oracle; put tests/ on the path so they import it
# also when ``pytest benchmarks`` runs alone.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

#: Reports collected this session, replayed in the terminal summary.
_SESSION_REPORTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print every regenerated artifact after the benchmark table."""
    for report in _SESSION_REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(report)


def bench_scale(default: float) -> float:
    """Benchmark scale factor, overridable via the environment."""
    return float(os.environ.get("ECT_BENCH_SCALE", default))


def perf_relaxed() -> bool:
    """Whether perf guards should use relaxed thresholds.

    True when ``ECT_PERF_RELAXED=1`` (the CI perf-smoke setting) or when
    the workload is scaled away from its default size — shrunken
    workloads make absolute rates and speedup ratios too noisy to gate
    on hard numbers.
    """
    return os.environ.get("ECT_PERF_RELAXED", "") == "1" or (
        "ECT_BENCH_SCALE" in os.environ and bench_scale(1.0) != 1.0
    )


def timed_pairs(
    first: Callable[[], float],
    second: Callable[[], float],
    pairs: int,
    *,
    warmup: bool = True,
) -> tuple[list[float], list[float], list[float]]:
    """Time ``first()`` and ``second()`` in adjacent, order-alternating pairs.

    Each callable runs its workload and returns the seconds of its own
    timed region. With ``warmup``, one untimed call of each comes first:
    the initial pass pays page faults, allocator growth and frequency ramp
    that would otherwise skew whichever side happens to run first. The two
    runs of a pair share the host's state at that moment, so their ratio
    cancels slowdowns from other load on the host, and a median over the
    pairs drops the pairs a load spike split. Returns both time lists and
    the per-pair ``second / first`` ratios.
    """
    if warmup:
        first()
        second()
    first_times, second_times = [], []
    for i in range(pairs):
        if i % 2 == 0:
            first_times.append(first())
            second_times.append(second())
        else:
            second_times.append(second())
            first_times.append(first())
    ratios = [b / a for a, b in zip(first_times, second_times)]
    return first_times, second_times, ratios


def write_perf_report(name: str, text: str, payload: dict) -> None:
    """Persist one perf benchmark as twin ``<name>.{txt,json}`` reports.

    The txt file is the human-readable trend the repo has always kept;
    the JSON carries the same numbers machine-readably (workload,
    hub-slots/sec, speedups) so the perf trajectory is diffable across
    PRs without parsing prose. Every JSON report is stamped with the
    environment fingerprint (host, python/numpy versions, git commit,
    ECT_PERF_RELAXED) so numbers from different machines never get
    compared as like-for-like. They land in :data:`TIMING_DIR`.
    """
    TIMING_DIR.mkdir(exist_ok=True)
    (TIMING_DIR / f"{name}.txt").write_text(text + "\n")
    payload = dict(payload, meta=run_metadata())
    (TIMING_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture()
def run_artifact(benchmark):
    """Run one experiment under pytest-benchmark and print its report."""

    def _run(experiment_id: str, *, scale: float, seed: int = 0):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        report = result.rendered()
        REPORT_DIR.mkdir(exist_ok=True)
        (REPORT_DIR / f"{experiment_id}.txt").write_text(report + "\n")
        _SESSION_REPORTS.append(report)
        return result

    return _run
