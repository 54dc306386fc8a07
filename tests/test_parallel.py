"""Parallel sweep executor: serial/parallel byte-identity + failure modes.

The contract under test: ``api.run_sweep(sweep, jobs=N)`` is an
*executor* choice, never a *semantics* choice — the same jobs run, the
same scheduler lifecycle applies (one ``reset`` per job), the results
come back in job-index order, and even the ``--out`` JSON export is byte
for byte the file the serial path writes. Failures must name the job
that died, not just propagate a bare worker traceback.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import api
from repro.cli import main
from repro.errors import ConfigError, ParallelError
from repro.experiments.base import write_results_json
from repro.fleet.schedulers import FleetIdleScheduler
from repro.parallel import chunk_jobs, resolve_chunk_size, resolve_jobs, stack_groups
from repro.spec import SweepSpec
from repro.spec.compiler import spec_from_fleet_flags


def small_sweep(n_jobs: int = 4, *, n_hubs: int = 5, days: int = 2) -> SweepSpec:
    base = spec_from_fleet_flags(n_hubs=n_hubs, days=days)
    return SweepSpec(
        base=base,
        parameters={"run.seed": tuple(range(n_jobs))},
        name="parallel-test",
    )


def stacked_sweep() -> SweepSpec:
    """8 same-fleet jobs (4 schedulers x 2 allocations): one stack group."""
    base = spec_from_fleet_flags(n_hubs=5, days=2, n_feeders=2, feeder_capacity_kw=20.0)
    return SweepSpec(
        base=base,
        parameters={
            "scheduler.name": ("rule-based", "greedy-renewable", "idle", "random"),
            "grid.allocation": ("proportional", "priority"),
        },
        name="stacked",
    )


def engines_per_chunking(chunks) -> int:
    """Stacked engines a chunking steps: one per stack group per chunk."""
    return sum(len(stack_groups([job.spec for job in chunk])) for chunk in chunks)


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_affinity_set(self, monkeypatch):
        """jobs=0 honours the scheduler affinity mask, not the raw count.

        A container pinned to 2 of 64 cores must get 2 workers.
        """
        from repro import parallel

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 5}, raising=True
            )
            assert resolve_jobs(0) == 2
        else:  # pragma: no cover - non-Linux fallback
            assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert parallel._available_cpus() == resolve_jobs(0)

    def test_zero_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-1)


class TestResolveChunkSize:
    def test_explicit_passes_through(self):
        assert resolve_chunk_size(7, n_jobs=100, workers=4) == 7

    def test_auto_targets_four_chunks_per_worker(self):
        assert resolve_chunk_size(None, n_jobs=32, workers=4) == 2
        assert resolve_chunk_size(None, n_jobs=100, workers=4) == 7

    def test_auto_never_below_one(self):
        assert resolve_chunk_size(None, n_jobs=2, workers=8) == 1

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            resolve_chunk_size(0, n_jobs=4, workers=2)

    def test_auto_chunks_of_a_seed_grid_use_the_auto_size(self):
        jobs = small_sweep(10).jobs()
        size = resolve_chunk_size(None, n_jobs=10, workers=2)
        chunks = chunk_jobs(jobs, 2)
        assert [[job.index for job in chunk] for chunk in chunks] == [
            list(range(i, min(i + size, 10))) for i in range(0, 10, size)
        ]

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_auto_chunks_keep_a_stack_group_to_one_run_per_worker(self, workers):
        jobs = stacked_sweep().jobs()
        assert len(stack_groups([job.spec for job in jobs])) == 1
        chunks = chunk_jobs(jobs, workers)
        assert [job.index for chunk in chunks for job in chunk] == list(range(8))
        assert engines_per_chunking(chunks) <= workers
        # Cutting every auto-size jobs would step one engine per job.
        assert engines_per_chunking(chunk_jobs(jobs, workers, 1)) == 8

    def test_explicit_size_cuts_groups_anywhere(self):
        chunks = chunk_jobs(stacked_sweep().jobs(), 2, chunk_size=3)
        assert [len(chunk) for chunk in chunks] == [3, 3, 2]


class TestSerialParallelEquivalence:
    def test_results_byte_identical_and_ordered(self, tmp_path):
        sweep = small_sweep(4)
        serial = api.run_sweep(sweep)
        parallel = api.run_sweep(sweep, jobs=4)

        assert [r.experiment_id for r in parallel] == [
            f"fleet[{i}]" for i in range(4)
        ]
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        write_results_json(serial, serial_path)
        write_results_json(parallel, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, None])
    def test_chunked_executor_byte_identical(self, tmp_path, chunk_size):
        """Chunk size is pure batching — any size matches serial exactly."""
        sweep = small_sweep(5)
        serial = api.run_sweep(sweep)
        chunked = api.run_sweep(sweep, jobs=2, chunk_size=chunk_size)
        serial_path = tmp_path / "serial.json"
        chunked_path = tmp_path / "chunked.json"
        write_results_json(serial, serial_path)
        write_results_json(chunked, chunked_path)
        assert serial_path.read_bytes() == chunked_path.read_bytes()

    @pytest.mark.parametrize("chunk_size", [3, None])
    def test_stacked_same_fleet_grid_byte_identical(self, tmp_path, chunk_size):
        """A same-fleet grid steps as one stacked engine per chunk; a
        chunk size of 3 splits the 8-job group across tasks and workers,
        the auto size into one run per worker (at most 2 engines)."""
        sweep = stacked_sweep()
        if chunk_size is None:
            assert engines_per_chunking(chunk_jobs(sweep.jobs(), 2)) <= 2
        serial = api.run_sweep(sweep)
        chunked = api.run_sweep(sweep, jobs=2, chunk_size=chunk_size)
        serial_path = tmp_path / "serial.json"
        chunked_path = tmp_path / "chunked.json"
        write_results_json(serial, serial_path)
        write_results_json(chunked, chunked_path)
        assert serial_path.read_bytes() == chunked_path.read_bytes()

    def test_cli_sweep_jobs_export_matches_serial(self, tmp_path):
        argv = [
            "sweep",
            "--preset",
            "paper-default",
            "--set",
            "run.days=2",
            "--set",
            "fleet.n_hubs=4",
            "--param",
            "run.seed=0,1",
        ]
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main([*argv, "--out", str(serial_path)]) == 0
        assert main([*argv, "--jobs", "2", "--out", str(parallel_path)]) == 0
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_empty_parameter_grid_runs_the_base_once(self):
        sweep = SweepSpec(base=small_sweep(1).base, parameters={}, name="solo")
        serial = api.run_sweep(sweep)
        parallel = api.run_sweep(sweep, jobs=4)
        assert len(serial) == len(parallel) == 1
        assert json.dumps(serial[0].to_json_dict(), sort_keys=True) == json.dumps(
            parallel[0].to_json_dict(), sort_keys=True
        )
        assert parallel[0].data["sweep_overrides"] == {}

    def test_fleet_grid_experiment_matches_serial(self):
        from repro.experiments import run_experiment
        from repro.experiments.base import jsonable

        serial = run_experiment("fleet-grid", scale=0.25)
        parallel = run_experiment("fleet-grid", scale=0.25, jobs=2)
        assert json.dumps(jsonable(serial.data), sort_keys=True) == json.dumps(
            jsonable(parallel.data), sort_keys=True
        )

    def test_non_sweep_experiment_rejects_jobs(self):
        from repro.errors import ExperimentError
        from repro.experiments import run_experiment

        with pytest.raises(ExperimentError, match="does not support"):
            run_experiment("fleet", scale=0.25, jobs=2)


class TestWorkerFailure:
    def test_failure_names_the_job_and_its_overrides(self):
        base = spec_from_fleet_flags(n_hubs=5, days=2)
        sweep = SweepSpec(
            base=base,
            # 3 feeders compiles; 999 feeders for 5 hubs fails in the
            # worker (999 is a valid GridSpec value on its own, so
            # SweepSpec's validation lets it through).
            parameters={"grid.n_feeders": (3, 999)},
            name="doomed",
        )
        with pytest.raises(ParallelError) as excinfo:
            api.run_sweep(sweep, jobs=2)
        message = str(excinfo.value)
        assert "grid.n_feeders=999" in message
        assert "job 1" in message
        assert isinstance(excinfo.value.__cause__, ConfigError)

    def test_failure_inside_a_chunk_names_the_right_job(self):
        """With several jobs per chunk, the *offset* job is named, the
        completed jobs before it are not blamed."""
        base = spec_from_fleet_flags(n_hubs=5, days=2)
        sweep = SweepSpec(
            base=base,
            parameters={"grid.n_feeders": (1, 2, 999, 3)},
            name="doomed-chunk",
        )
        with pytest.raises(ParallelError) as excinfo:
            api.run_sweep(sweep, jobs=2, chunk_size=4)
        message = str(excinfo.value)
        assert "job 2" in message
        assert "grid.n_feeders=999" in message
        assert isinstance(excinfo.value.__cause__, ConfigError)
        assert excinfo.value.job_traceback


    def test_failure_inside_a_stacked_group_names_the_right_job(self, monkeypatch):
        """A stacked group that fails is re-run one job at a time, so the
        job to blame is named and the jobs before it still return."""
        from repro import parallel
        from repro.spec import compiler

        make_scheduler = compiler.make_scheduler

        def no_random(scheduler, **kwargs):
            if scheduler.name == "random":
                raise ConfigError("no random scheduler here")
            return make_scheduler(scheduler, **kwargs)

        monkeypatch.setattr(compiler, "make_scheduler", no_random)
        base = spec_from_fleet_flags(n_hubs=4, days=2)
        specs = [
            base.with_overrides({"scheduler.name": name})
            for name in ("idle", "rule-based", "random", "greedy-renewable")
        ]
        assert len(parallel.stack_groups(specs)) == 1
        results, failure = parallel._run_payload_chunk(
            [spec.to_json() for spec in specs]
        )
        offset, error, trace = failure
        assert offset == 2 and len(results) == 2
        assert isinstance(error, ConfigError)
        assert "no random scheduler here" in trace


class TestWorkerAssemblyCache:
    def test_cache_hits_on_shared_fleet_fingerprint(self):
        """Jobs differing only in scheduler/pricing knobs reuse the
        worker's cached assembly; a fleet change evicts it."""
        from repro import parallel
        from repro.spec.compiler import assembly_fingerprint

        parallel._WORKER_ASSEMBLY = None
        base = spec_from_fleet_flags(n_hubs=4, days=2)
        first = parallel._cached_assembly(base)
        same_fleet = base.with_overrides({"scheduler.name": "idle"})
        assert parallel._cached_assembly(same_fleet) is first
        other_fleet = base.with_overrides({"fleet.n_hubs": 5})
        assert assembly_fingerprint(other_fleet) != assembly_fingerprint(base)
        evicted = parallel._cached_assembly(other_fleet)
        assert evicted is not first
        assert evicted.n_hubs == 5
        parallel._WORKER_ASSEMBLY = None

    def test_seed_change_evicts(self):
        from repro import parallel

        parallel._WORKER_ASSEMBLY = None
        base = spec_from_fleet_flags(n_hubs=4, days=2)
        first = parallel._cached_assembly(base)
        reseeded = base.with_overrides({"run.seed": 7})
        assert parallel._cached_assembly(reseeded) is not first
        parallel._WORKER_ASSEMBLY = None

    def test_cached_assembly_runs_byte_identical(self, tmp_path):
        """api.run with a rebound cached assembly matches a cold compile."""
        from repro import parallel

        parallel._WORKER_ASSEMBLY = None
        base = spec_from_fleet_flags(n_hubs=4, days=2)
        variant = base.with_overrides({"scheduler.name": "greedy-renewable"})
        cold = api.run(variant)
        warm = api.run(variant, assembly=parallel._cached_assembly(base))
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        write_results_json(cold, cold_path)
        write_results_json(warm, warm_path)
        assert cold_path.read_bytes() == warm_path.read_bytes()
        parallel._WORKER_ASSEMBLY = None

    def test_serial_sweep_fingerprints_each_spec_once(self, monkeypatch):
        """Stack keys, the assembly cache and the stacked build all ask for
        a job's fingerprint; it is computed once per spec and kept."""
        from types import SimpleNamespace

        from repro import parallel
        from repro.spec import compiler

        computed = []

        def dumps(payload, **kwargs):
            computed.append(payload)
            return json.dumps(payload, **kwargs)

        monkeypatch.setattr(compiler, "json", SimpleNamespace(dumps=dumps))
        parallel._WORKER_ASSEMBLY = None
        sweep = stacked_sweep()
        results = api.run_sweep(sweep)
        parallel._WORKER_ASSEMBLY = None
        assert len(results) == len(sweep.jobs()) == 8
        assert len(computed) == 8
        spec = sweep.base
        assert compiler.assembly_fingerprint(spec) is compiler.assembly_fingerprint(
            spec
        )

    def test_mismatched_assembly_rejected(self):
        from repro.spec.compiler import _assemble_fleet, build

        base = spec_from_fleet_flags(n_hubs=4, days=2)
        other = spec_from_fleet_flags(n_hubs=5, days=2)
        with pytest.raises(ConfigError, match="cached assembly"):
            build(other, assembly=_assemble_fleet(base))


class TestSchedulerLifecycle:
    def test_reset_hook_invoked_exactly_once_per_job(self, monkeypatch):
        """Each sweep job gets a fresh scheduler, reset exactly once.

        Instrumented on the serial executor (worker processes cannot be
        monkeypatched from here); the parallel path runs the identical
        ``api.run`` per job, which the byte-identity tests above pin.
        """
        from repro.spec import compiler

        counters: list[list[int]] = []

        class CountingScheduler(FleetIdleScheduler):
            def __init__(self):
                self.resets = [0]
                counters.append(self.resets)

            def reset(self, sim):
                self.resets[0] += 1
                super().reset(sim)

        monkeypatch.setattr(
            compiler, "make_scheduler", lambda *a, **k: CountingScheduler()
        )
        api.run_sweep(small_sweep(3))
        assert len(counters) == 3
        assert all(resets == [1] for resets in counters)

        # A same-fleet grid stacks onto one engine; each job still gets
        # its own scheduler, reset once.
        counters.clear()
        api.run_sweep(
            SweepSpec(
                base=small_sweep(1).base,
                parameters={
                    "grid.allocation": ("proportional", "priority"),
                    "run.voll_per_kwh": (0.0, 2.0),
                },
            )
        )
        assert len(counters) == 4
        assert all(resets == [1] for resets in counters)
