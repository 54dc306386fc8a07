"""Tests of the benchmark's own machinery; none asserts on wall-clock time.

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import pace  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, check_fleet_data, deliver  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class ScriptedClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants: float):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


# --------------------------------------------------------------------- #
# Tracer arithmetic                                                      #
# --------------------------------------------------------------------- #


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; inner [1, 3]
    # holds leaf [1.5, 2].
    tracer = tracing.Tracer("t", clock=ScriptedClock(0, 1, 1.5, 2, 3, 4, 5, 10))
    outer = tracer.open("outer")
    first = tracer.open("inner")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(first)
    second = tracer.open("inner")
    tracer.close(second)
    tracer.close(outer)

    assert tracer.self_times() == {"outer": 7.0, "inner": 2.5, "leaf": 0.5}
    assert tracer.total_times() == {"outer": 10.0, "inner": 3.0, "leaf": 0.5}
    assert tracer.calls() == {"outer": 1, "inner": 2, "leaf": 1}
    assert [span.parent for span in tracer.spans] == [None, 0, 1, 0]
    assert {span.run_id for span in tracer.spans} == {"t"}
    # Self times partition the root span exactly.
    assert sum(tracer.self_times().values()) == 10.0


def test_recursive_spans_are_not_double_counted():
    tracer = tracing.Tracer("t", clock=ScriptedClock(0, 2, 5, 9))

    def recurse(depth):
        if depth:
            return recurse_traced(depth - 1)
        return "done"

    recurse_traced = tracer.wrap("f", recurse)
    assert recurse_traced(1) == "done"
    assert tracer.total_times() == {"f": 9.0}
    assert tracer.self_times() == {"f": 9.0}
    assert tracer.calls() == {"f": 2}


def test_wrap_closes_span_when_the_call_raises():
    tracer = tracing.Tracer("t", clock=ScriptedClock(0, 4))

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].end == 4
    assert tracer._stack == []


def test_spans_and_counters_serialise():
    tracer = tracing.Tracer("run-1", clock=ScriptedClock(0, 1))
    tracer.close(tracer.open("a"))
    tracer.count("a.items", 3)
    tracer.peak("a.bytes", 10)
    tracer.peak("a.bytes", 4)
    payload = json.loads(json.dumps(tracer.to_json()))
    assert payload["spans"] == [
        {"name": "a", "start": 0, "end": 1, "parent": None, "run_id": "run-1"}
    ]
    assert payload["counters"] == {"a.bytes": 10, "a.items": 3}


# --------------------------------------------------------------------- #
# Patching                                                               #
# --------------------------------------------------------------------- #


def _current_targets() -> dict[str, object]:
    return {
        f"{module}.{path}": owner.__dict__[attribute]
        for entry in tracing.ENTRY_POINTS
        for module, path in entry.targets
        for owner, attribute in [tracing._resolve(module, path)]
    }


def test_every_entry_point_resolves():
    with tracing.installed(tracing.Tracer("t")) as missing:
        assert missing == []


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from repro.spec import spec_from_fleet_flags

    spec = spec_from_fleet_flags(
        n_hubs=4, days=7, n_feeders=2, feeder_capacity_kw=60.0
    )
    workload = WORKLOADS["city"]
    tiny = type(workload)(
        name="tiny",
        prepare=lambda seed: spec,
        run=workload.run,
        check=lambda payload: [],
        hub_slots=4 * 7 * 24,
    )
    before = _current_targets()
    tracer = tracing.Tracer("tiny")
    with tracing.installed(tracer):
        assert _current_targets() != before
        deliver(tiny, spec, tmp_path / "traced.json")
    assert _current_targets() == before

    deliver(tiny, spec, tmp_path / "plain.json")
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    calls = tracer.calls()
    assert calls["api.run"] == calls["api.export"] == calls["spec.build"] == 1
    assert calls["synth.build_scenario"] == 4
    assert calls["fleet.step"] == calls["fleet.allocate"] == 7 * 24
    layers = tracing.layer_metrics(tracer, traced_wall_s=1.0)
    assert layers["synth.build_scenario.hub_slots"] == 4 * 7 * 24
    assert layers["synth.build_scenario.distinct_share"] == 1.0
    assert layers["fleet.planes.bytes"] > 0 and layers["fleet.book.bytes"] > 0


def test_wrappers_are_removed_when_the_run_raises():
    api = importlib.import_module("repro.api")
    before = _current_targets()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer("t")):
            assert api.run is not before["repro.api.run"]
            raise RuntimeError("stop")
    assert _current_targets() == before


# --------------------------------------------------------------------- #
# Workloads                                                              #
# --------------------------------------------------------------------- #


def test_city_workload_sizes():
    from repro.spec.compiler import assemble_sites

    spec = WORKLOADS["city"].prepare(7)
    _, _, feeders, n_hubs, days, horizon = assemble_sites(spec)
    assert (n_hubs, days, horizon) == (2000, 7, 168)
    assert feeders.n_feeders == 20
    assert spec.grid.feeder_capacity_kw == 4000.0
    assert spec.run.seed == 7
    assert WORKLOADS["city"].hub_slots == 336_000


def test_sweep_workload_sizes():
    sweep = WORKLOADS["sweep"].prepare(7)
    jobs = sweep.jobs()
    assert len(jobs) == 8
    assert {
        (job.spec.scheduler.name, job.spec.grid.allocation) for job in jobs
    } == {
        (s, a)
        for s in ("rule-based", "greedy-renewable", "idle", "random")
        for a in ("proportional", "priority")
    }
    for job in jobs:
        assert job.spec.fleet.resolved_n_hubs == 48
        assert job.spec.run.days == 28 and job.spec.run.scale == 1.0
        assert job.spec.run.seed == 7
    assert WORKLOADS["sweep"].hub_slots == 258_048


def test_pricing_workload_sizes():
    from repro.spec.compiler import assemble_sites

    spec = WORKLOADS["pricing"].prepare(7)
    _, _, _, n_hubs, days, _ = assemble_sites(spec)
    assert (n_hubs, days) == (50, 4)
    assert (spec.pricing.train_days, spec.pricing.epochs) == (15, 15)
    assert spec.run.seed == 7
    assert WORKLOADS["pricing"].hub_slots == 6 * 50 * 4 * 24


def test_train_workload_sizes():
    spec = WORKLOADS["train"].prepare(7)
    assert spec.fleet.resolved_n_hubs == 6
    assert spec.rl.episode_days == 5
    assert (spec.rl.train_episodes, spec.rl.eval_episodes) == (40, 5)
    assert spec.run.seed == 7
    assert WORKLOADS["train"].hub_slots == 43_200


def test_fleet_check_catches_profit_and_size_errors():
    data = {
        "n_hubs": 2,
        "days": 7,
        "network_profit": 10.0,
        "network_charging_revenue": 30.0,
        "network_operating_cost": 15.0,
        "network_voll_cost": 5.0,
        "profit_per_hub": [4.0, 6.0],
    }
    assert check_fleet_data(data, n_hubs=2, days=7, label="x") == []
    assert len(check_fleet_data({**data, "network_profit": 10.001},
                                n_hubs=2, days=7, label="x")) == 1
    assert len(check_fleet_data(data, n_hubs=3, days=8, label="x")) == 3


# --------------------------------------------------------------------- #
# The contract between run.py, tracer.py and BENCHMARK.json              #
# --------------------------------------------------------------------- #


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(bench_run.E2E_METRICS)
    layer_names = set(tracing.layer_metrics(tracing.Tracer("t"), 1.0))
    layer_names.add("trace.overhead_share")
    assert {m["name"] for m in BENCHMARK["per_layer"]} == layer_names
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == bench_run.layer_unit(metric["name"])


# --------------------------------------------------------------------- #
# Pacing                                                                 #
# --------------------------------------------------------------------- #


def test_gauge_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Gauge() as gauge:
        assert signal.getsignal(signal.SIGALRM) != before
        # Nothing sampled yet: the split runs one probe inline.
        assert gauge.split() > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_times_are_medians_of_paced_repetitions(tmp_path, monkeypatch):
    # (wall_s, pace): raw median 3.0, paced 2.0, 3.0, 2.0 -> median 2.0.
    reps = iter([(4.0, 2.0), (3.0, 1.0), (1.0, 0.5)])

    def scripted_rep(*args, **kwargs):
        wall, factor = next(reps)
        return {
            "setup_s": 0.5 * factor, "setup_pace": factor,
            "wall_s": wall, "cpu_s": wall, "pace": factor, "peak_rss_mb": 10.0,
            "export_sha256": "same", "failures": [],
        }

    monkeypatch.setattr(bench_run, "fingerprint", lambda *args: {})
    monkeypatch.setattr(bench_run, "_rep", scripted_rep)
    summary = bench_run.measure(tmp_path, "city", 0, 0.0, trace=False)
    assert (summary["attempted"], summary["failed"]) == (3, 0)
    assert summary["samples"]["wall_s"] == [4.0, 3.0, 1.0]
    assert summary["end_to_end"] == {
        "setup_s": 0.5,
        "wall_s": 2.0,
        "cpu_s": 2.0,
        "peak_rss_mb": 10.0,
        "hub_slots_per_s": WORKLOADS["city"].hub_slots / 2.0,
    }


# --------------------------------------------------------------------- #
# compare.py                                                             #
# --------------------------------------------------------------------- #


def _record(workload="city", wall=1.0, load=0.2, **fingerprint):
    return {
        "workload": workload,
        "attempted": 3,
        "failed": 0,
        "fingerprint": {
            "hostname": "h", "platform": "p", "python_version": "3",
            "numpy_version": "2", "ect_perf_relaxed": False, "nproc": 2,
            "git_commit": "abc", "load_1m_at_start": load, **fingerprint,
        },
        "end_to_end": {"wall_s": wall},
    }


def test_compare_refuses_other_environments():
    base = [_record()]
    compare.check_fingerprints(base, [_record(git_commit="def")])
    with pytest.raises(compare.Refused):
        compare.check_fingerprints(base, [_record(nproc=4)])
    with pytest.raises(compare.Refused):
        compare.check_fingerprints(base, [_record(load=3.0)])


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(steady, [0.8, 0.81, 0.79, 0.8], 0.1, "lower") == "better"
    assert compare.verdict(steady, [1.2, 1.21, 1.19, 1.2], 0.1, "lower") == "WORSE"
    assert compare.verdict(steady, [1.02, 1.0, 1.01, 0.99], 0.1, "lower") == "same"
    noisy = [0.6, 1.0, 1.4, 1.0]
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"
    # Wide spread, but every head run beats every base run.
    assert compare.verdict(noisy, [0.3, 0.5, 0.4, 0.5], 0.1, "lower") == "better"
