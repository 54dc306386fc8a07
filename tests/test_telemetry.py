"""Telemetry subsystem: metrics registry, tracer, session wiring, logger.

The contracts under test:

* the registry and tracer are correct in isolation (counter/gauge/
  histogram/timer arithmetic, span nesting, export round-trips);
* attaching a session to ``api.run`` / ``api.train_fleet`` never changes
  the simulated numbers — telemetry is observational only, and the
  record's counters agree with the cost book's own aggregates;
* sweep aggregation is executor-independent: serial and parallel runs of
  the same grid produce byte-identical aggregated counters;
* worker failures carry the remote traceback (``ParallelError.
  job_traceback``) and the CLI surfaces it;
* the CLI flags (``--telemetry``, ``--trace-out``, ``-v``/``-q``) drive
  the summary, the export files, and the logger threshold.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.errors import ConfigError, ParallelError
from repro.spec import SweepSpec
from repro.spec.compiler import spec_from_fleet_flags, spec_from_train_fleet_flags
from repro.telemetry import (
    HistogramStats,
    MetricsRegistry,
    Telemetry,
    Tracer,
    log,
    run_metadata,
    telemetry_sidecar_path,
    write_telemetry_json,
)


# --------------------------------------------------------------------- #
# Metrics registry                                                        #
# --------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("events")
        registry.inc("events", 2.5)
        assert registry.counters["events"] == 3.5

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError, match="cannot decrease"):
            registry.inc("events", -1)

    def test_gauge_keeps_latest(self):
        registry = MetricsRegistry()
        registry.set_gauge("rate", 10.0)
        registry.set_gauge("rate", 20.0)
        assert registry.gauges["rate"] == 20.0

    def test_histogram_streaming_stats(self):
        registry = MetricsRegistry()
        values = [1.0, 2.0, 3.0, 4.0]
        for value in values:
            registry.observe("lat", value)
        stats = registry.histograms["lat"]
        assert stats.count == 4
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.std == pytest.approx(np.std(values))
        assert stats.min == 1.0 and stats.max == 4.0

    def test_timer_context_manager_counts_calls(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with registry.time("work"):
                pass
        seconds, count = registry.timers["work"]
        assert count == 3 and seconds >= 0.0

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("h", 1.0)
        registry.add_time("t", 0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)  # must serialize without custom encoders

    def test_merge_adds_counters_and_combines_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("n", 2)
        right.inc("n", 3)
        left.observe("h", 1.0)
        right.observe("h", 3.0)
        right.add_time("t", 0.25)
        left.merge(right.snapshot())
        assert left.counters["n"] == 5
        assert left.histograms["h"].count == 2
        assert left.histograms["h"].mean == pytest.approx(2.0)
        assert left.timers["t"] == [0.25, 1]

    def test_histogram_merge_from_dict_roundtrip(self):
        stats = HistogramStats()
        for value in (2.0, 6.0):
            stats.observe(value)
        other = HistogramStats()
        other.merge(stats.to_dict())
        assert other.to_dict() == stats.to_dict()


# --------------------------------------------------------------------- #
# Tracer                                                                  #
# --------------------------------------------------------------------- #


class TestTracer:
    def test_span_nesting_round_trip(self):
        tracer = Tracer()
        with tracer.span("run", scenario="x"):
            with tracer.span("compile"):
                pass
            with tracer.span("step", slots=48):
                pass
        trace = tracer.to_list()
        assert [span["name"] for span in trace] == ["run"]
        assert [c["name"] for c in trace[0]["children"]] == ["compile", "step"]
        assert trace[0]["fields"] == {"scenario": "x"}
        assert trace[0]["wall_s"] >= trace[0]["children"][0]["wall_s"]
        json.dumps(trace)

    def test_export_with_open_span_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigError, match="open"):
            with tracer.span("run"):
                tracer.to_list()

    def test_phase_totals_aggregate_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        totals = tracer.phase_totals()
        assert totals["step"]["count"] == 3
        assert totals["step"]["wall_s"] >= 0.0

    def test_attach_grafts_worker_trace(self):
        worker = Tracer()
        with worker.span("step"):
            pass
        parent = Tracer()
        parent.attach("sweep-job", worker.to_list(), index=0)
        trace = parent.to_list()
        assert trace[0]["name"] == "sweep-job"
        assert trace[0]["children"][0]["name"] == "step"
        assert parent.phase_totals()["step"]["count"] == 1

    def test_summary_lines_render_tree(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("step"):
                pass
        lines = tracer.summary_lines()
        assert lines[0].startswith("run:")
        assert lines[1].startswith("  step:")


# --------------------------------------------------------------------- #
# Structured logger                                                       #
# --------------------------------------------------------------------- #


class TestLog:
    @pytest.fixture(autouse=True)
    def _restore_threshold(self):
        yield
        log.configure()

    def test_default_threshold_hides_debug(self, capsys):
        log.configure()
        log.debug("hidden")
        log.info("shown")
        captured = capsys.readouterr()
        assert "hidden" not in captured.out and "shown" in captured.out

    def test_verbose_shows_debug_with_fields(self, capsys):
        log.configure(verbose=True)
        log.debug("expanding sweep", jobs=4)
        assert "[debug] expanding sweep jobs=4" in capsys.readouterr().out

    def test_quiet_keeps_warnings_on_stderr(self, capsys):
        log.configure(quiet=True)
        log.info("silenced")
        log.warning("kept")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[warning] kept" in captured.err

    def test_verbose_wins_over_quiet(self):
        assert log.configure(verbose=True, quiet=True) == log.DEBUG


# --------------------------------------------------------------------- #
# Run metadata                                                            #
# --------------------------------------------------------------------- #


class TestRunMetadata:
    def test_fingerprint_fields_present(self):
        meta = run_metadata()
        assert set(meta) == {
            "hostname",
            "platform",
            "python_version",
            "numpy_version",
            "git_commit",
            "ect_perf_relaxed",
            "peak_rss_mb",
        }
        json.dumps(meta)

    def test_static_part_cached_live_gauge_fresh(self):
        # The expensive fields (git subprocess) are computed once; the
        # record itself is a fresh dict so the peak-RSS gauge is live.
        first, second = run_metadata(), run_metadata()
        assert first is not second
        static = {k: v for k, v in first.items() if k != "peak_rss_mb"}
        assert static == {k: v for k, v in second.items() if k != "peak_rss_mb"}

    def test_peak_rss_is_positive_where_supported(self):
        from repro.telemetry.runinfo import peak_rss_mb

        peak = peak_rss_mb()
        if peak is not None:
            assert peak > 0
            # Monotone high-water mark.
            assert peak_rss_mb() >= peak


# --------------------------------------------------------------------- #
# api.run integration                                                     #
# --------------------------------------------------------------------- #


def fleet_spec(**overrides):
    return spec_from_fleet_flags(n_hubs=6, days=2, **overrides)


class TestApiRunTelemetry:
    def test_record_attached_and_phases_traced(self):
        telemetry = Telemetry()
        result = api.run(fleet_spec(), telemetry=telemetry)
        record = result.telemetry
        assert record is not None
        assert {"compile", "reset", "step"} <= set(record["phases"])
        assert [span["name"] for span in record["trace"]] == [
            "compile",
            "reset",
            "step",
        ]
        assert record["meta"]["numpy_version"] == np.__version__

    def test_results_identical_with_and_without_telemetry(self):
        plain = api.run(fleet_spec())
        traced = api.run(fleet_spec(), telemetry=Telemetry())
        assert json.dumps(plain.to_json_dict(), sort_keys=True) == json.dumps(
            traced.to_json_dict(), sort_keys=True
        )

    def test_telemetry_stays_out_of_json_export(self):
        result = api.run(fleet_spec(), telemetry=Telemetry())
        assert result.telemetry is not None
        assert "telemetry" not in result.to_json_dict()

    def test_counters_agree_with_the_cost_book(self):
        telemetry = Telemetry()
        result = api.run(fleet_spec(), telemetry=telemetry)
        counters = result.telemetry["counters"]
        horizon = 2 * 24
        assert counters["engine.slots"] == horizon
        assert counters["engine.hub_slots"] == 6 * horizon
        assert counters.get("engine.blackout_hub_slots", 0) == result.data[
            "blackout_slots"
        ]
        assert counters["engine.unserved_kwh"] == pytest.approx(
            result.data["network_unserved_kwh"]
        )
        assert counters["engine.congested_feeder_slots"] == result.data[
            "congested_feeder_slots"
        ]

    def test_congestion_counters_on_a_coupled_fleet(self):
        telemetry = Telemetry()
        result = api.run(
            fleet_spec(n_feeders=2, feeder_capacity_kw=30.0),
            telemetry=telemetry,
        )
        counters = result.telemetry["counters"]
        assert counters["engine.congested_hub_slots"] > 0
        assert counters["engine.curtailed_kwh"] == pytest.approx(
            result.data["import_shortfall_kwh"]
        )
        assert counters["engine.reserve_dispatches"] > 0
        # Coupled runs time the per-slot feeder allocation.
        assert result.telemetry["timers"]["allocation"]["count"] == 2 * 24

    def test_throughput_gauge_booked(self):
        result = api.run(fleet_spec(), telemetry=Telemetry())
        assert result.telemetry["gauges"]["engine.hub_slots_per_sec"] > 0.0


# --------------------------------------------------------------------- #
# Sweep aggregation                                                       #
# --------------------------------------------------------------------- #


def small_sweep(n_jobs: int = 3) -> SweepSpec:
    return SweepSpec(
        base=fleet_spec(),
        parameters={"run.seed": tuple(range(n_jobs))},
        name="telemetry-sweep",
    )


class TestSweepAggregation:
    def test_serial_counters_sum_over_jobs(self):
        telemetry = Telemetry()
        results = api.run_sweep(small_sweep(3), telemetry=telemetry)
        record = telemetry.to_dict()
        assert record["counters"]["runs"] == 3
        assert record["counters"]["sweep-jobs"] == 3
        assert record["counters"]["engine.hub_slots"] == 3 * 6 * 48
        assert record["phases"]["sweep-job"]["count"] == 3
        assert all(r.telemetry is not None for r in results)

    def test_serial_and_parallel_counters_byte_identical(self):
        serial, parallel = Telemetry(), Telemetry()
        api.run_sweep(small_sweep(3), telemetry=serial)
        api.run_sweep(small_sweep(3), jobs=3, telemetry=parallel)
        serial_record, parallel_record = serial.to_dict(), parallel.to_dict()
        for section in ("counters", "histograms"):
            # Timings differ run to run; the deterministic sections must
            # not. Histogram counts are deterministic, sums are not.
            if section == "counters":
                assert json.dumps(
                    serial_record[section], sort_keys=True
                ) == json.dumps(parallel_record[section], sort_keys=True)
        assert (
            serial_record["histograms"]["engine.step_seconds"]["count"]
            == parallel_record["histograms"]["engine.step_seconds"]["count"]
        )
        assert parallel_record["workers"] == 3

    def test_stacked_jobs_book_their_standalone_counters(self):
        """A same-fleet sweep steps as one engine, yet each job's counters
        and step-histogram count equal its standalone run's."""
        sweep = SweepSpec(
            base=fleet_spec(n_feeders=2, feeder_capacity_kw=20.0).with_overrides(
                {"blackout.outage_probability_per_hour": 0.2}
            ),
            parameters={
                "scheduler.name": ("rule-based", "random"),
                "grid.allocation": ("proportional", "priority"),
            },
            name="stacked-telemetry",
        )
        telemetry = Telemetry()
        results = api.run_sweep(sweep, telemetry=telemetry)
        for result, job in zip(results, sweep.jobs()):
            alone = api.run(job.spec, telemetry=Telemetry(include_meta=False))
            got, want = result.telemetry, alone.telemetry
            assert json.dumps(got["counters"], sort_keys=True) == json.dumps(
                want["counters"], sort_keys=True
            )
            for name in ("engine.step_seconds",):
                assert got["histograms"][name]["count"] == want["histograms"][name]["count"]
            assert got["timers"]["allocation"]["count"] == 2 * 24
            assert set(got["phases"]) == set(want["phases"])
        assert telemetry.to_dict()["counters"]["engine.blackout_hub_slots"] > 0
        assert telemetry.to_dict()["counters"]["engine.congested_hub_slots"] > 0

    def test_sweep_without_telemetry_attaches_nothing(self):
        results = api.run_sweep(small_sweep(2))
        assert all(r.telemetry is None for r in results)


# --------------------------------------------------------------------- #
# Worker failure traceback                                                #
# --------------------------------------------------------------------- #


def doomed_sweep() -> SweepSpec:
    # 999 feeders for 5 hubs compiles past SweepSpec validation but
    # fails inside the worker (same trigger as test_parallel.py).
    return SweepSpec(
        base=spec_from_fleet_flags(n_hubs=5, days=2),
        parameters={"grid.n_feeders": (3, 999)},
        name="doomed",
    )


class TestWorkerTraceback:
    def test_parallel_error_carries_remote_traceback(self):
        with pytest.raises(ParallelError) as excinfo:
            api.run_sweep(doomed_sweep(), jobs=2)
        trace = excinfo.value.job_traceback
        assert trace is not None
        assert "Traceback" in trace
        assert "feeders" in trace  # the worker-side raise site

    def test_cli_surfaces_worker_traceback_on_stderr(self, capsys):
        code = main(
            [
                "sweep",
                "--preset",
                "paper-default",
                "--set",
                "fleet.n_hubs=5",
                "--set",
                "run.days=2",
                "--param",
                "grid.n_feeders=3,999",
                "--jobs",
                "2",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "failed in a worker" in err
        assert "worker traceback" in err and "Traceback" in err


# --------------------------------------------------------------------- #
# RL training metrics                                                     #
# --------------------------------------------------------------------- #


class TestTrainFleetTelemetry:
    @pytest.fixture(scope="class")
    def trained(self):
        telemetry = Telemetry()
        spec = spec_from_train_fleet_flags(
            n_hubs=3, days=2, train_episodes=2, eval_episodes=1
        )
        result = api.train_fleet(spec, telemetry=telemetry)
        return result, telemetry

    def test_one_rl_record_per_update(self, trained):
        result, _ = trained
        record = result.telemetry
        assert len(record["rl"]) == result.data["train_episodes"] == 2
        expected_keys = {
            "approx_kl",
            "clip_fraction",
            "entropy",
            "policy_loss",
            "reward_mean",
            "reward_std",
            "value_loss",
        }
        assert all(set(update) == expected_keys for update in record["rl"])

    def test_rl_metrics_agree_with_history(self, trained):
        result, _ = trained
        last = result.telemetry["rl"][-1]
        assert last["entropy"] == pytest.approx(result.data["final_entropy"])
        assert last["clip_fraction"] == pytest.approx(
            result.data["final_clip_fraction"]
        )
        assert np.isfinite(last["approx_kl"])

    def test_train_phases_and_counters(self, trained):
        result, _ = trained
        record = result.telemetry
        assert {"compile", "eval", "train", "ppo-update"} <= set(
            record["phases"]
        )
        assert record["phases"]["ppo-update"]["count"] == 2
        assert record["timers"]["rl.rollout"]["count"] == 2
        assert record["counters"]["rl.train_episodes"] == 2
        assert record["gauges"]["rl.train_hub_slots_per_sec"] > 0.0

    def test_seeded_rl_metrics_deterministic(self):
        def run_once():
            telemetry = Telemetry()
            spec = spec_from_train_fleet_flags(
                n_hubs=3, days=2, train_episodes=2, eval_episodes=1, seed=7
            )
            api.train_fleet(spec, telemetry=telemetry)
            return telemetry.to_dict()["rl"]

        assert json.dumps(run_once()) == json.dumps(run_once())

    def test_training_identical_with_and_without_telemetry(self):
        spec = spec_from_train_fleet_flags(
            n_hubs=3, days=2, train_episodes=2, eval_episodes=1
        )
        plain = api.train_fleet(spec)
        traced = api.train_fleet(spec, telemetry=Telemetry())
        assert json.dumps(plain.to_json_dict(), sort_keys=True) == json.dumps(
            traced.to_json_dict(), sort_keys=True
        )


# --------------------------------------------------------------------- #
# CLI flags and exports                                                   #
# --------------------------------------------------------------------- #


FLEET_ARGV = ["fleet", "--n-hubs", "5", "--days", "2"]


class TestCliTelemetry:
    def test_telemetry_flag_prints_summary(self, capsys):
        assert main([*FLEET_ARGV, "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "-- telemetry --" in out
        assert "phase compile" in out and "phase step" in out
        assert "counter engine.hub_slots = 240" in out

    def test_trace_out_writes_nested_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main([*FLEET_ARGV, "--trace-out", str(trace_path)]) == 0
        assert f"wrote {trace_path}" in capsys.readouterr().out
        record = json.loads(trace_path.read_text())
        assert [span["name"] for span in record["trace"]] == [
            "compile",
            "reset",
            "step",
        ]
        assert record["counters"]["engine.slots"] == 48

    def test_out_gains_telemetry_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main([*FLEET_ARGV, "--telemetry", "--out", str(out_path)]) == 0
        sidecar = telemetry_sidecar_path(out_path)
        assert sidecar == tmp_path / "results.telemetry.json"
        assert sidecar.exists()
        # The --out payload itself stays telemetry-free (deterministic).
        assert "telemetry" not in json.loads(out_path.read_text())
        assert f"wrote {sidecar}" in capsys.readouterr().out

    def test_no_flag_means_no_telemetry_output(self, capsys):
        assert main(FLEET_ARGV) == 0
        assert "-- telemetry --" not in capsys.readouterr().out

    def test_quiet_suppresses_report(self, capsys):
        assert main([*FLEET_ARGV, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        log.configure()

    def test_verbose_shows_debug_lines(self, capsys):
        assert main([*FLEET_ARGV, "--verbose"]) == 0
        assert "[debug] compiled scenario" in capsys.readouterr().out
        log.configure()

    def test_run_experiment_telemetry_passthrough(self, capsys):
        assert (
            main(["run", "fleet", "--scale", "0.1", "--telemetry"]) == 0
        )
        assert "-- telemetry --" in capsys.readouterr().out

    def test_run_experiment_without_support_rejects_flag(self, capsys):
        assert main(["run", "fig5", "--telemetry"]) == 1
        assert "does not support --telemetry" in capsys.readouterr().err


class TestExportHelpers:
    def test_write_telemetry_json_round_trips(self, tmp_path):
        record = {"counters": {"runs": 1.0}, "trace": []}
        path = write_telemetry_json(record, tmp_path / "sub" / "t.json")
        assert json.loads(path.read_text()) == record

    def test_sidecar_path_rewrites_suffix(self):
        assert (
            telemetry_sidecar_path("a/b/results.json").as_posix()
            == "a/b/results.telemetry.json"
        )
