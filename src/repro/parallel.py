"""Process-parallel sweep execution: job chunks over a worker pool.

``api.run_sweep`` grids are embarrassingly parallel — every job is an
independent :class:`~repro.spec.scenario.ScenarioSpec`, and PR 3 made
those specs plain serializable data. This module ships jobs to a
:class:`concurrent.futures.ProcessPoolExecutor` worker as spec JSON
text; the worker compiles and runs each one exactly like the serial path
(``repro.api.run``) and pickles the :class:`~repro.experiments.base.
ExperimentResult` back. Because the compiler is deterministic and every
worker executes the same NumPy arithmetic the serial loop would, a
parallel sweep is **byte-identical** to its serial twin — results are
re-ordered by job index before they are returned, so even the ``--out``
JSON matches byte for byte (test-enforced).

Jobs are submitted in **chunks** (many jobs per worker task) by
:func:`run_jobs_parallel`, so a large grid pays one submit/result
round-trip per chunk instead of per job, and each worker process keeps a
one-slot :func:`assembly cache <_cached_assembly>`: consecutive jobs in
a chunk that share a fleet/grid/blackout fingerprint (the common sweep
shape — vary scheduler or pricing knobs over one fleet) skip
re-synthesising hub traces entirely. One scenario always runs in one
process; parallelism is across jobs only.

Within a chunk, jobs are grouped exactly as the serial loop groups them
(:func:`stack_groups`): consecutive unpriced jobs with one assembly
fingerprint and storage mode step as one stacked engine, with the
scheduler, feeder allocation, initial SoC and VoLL on its job axis and
everything else shared. The auto chunk size cuts a group into at most one
run per worker (:func:`chunk_jobs`); an explicit one may cut it anywhere.
Each part still stacks, and every job's result stays byte-identical to
its standalone run, so chunking never changes an export.

Guarantees:

* deterministic result ordering by job index, whatever finishes first;
* ``jobs=0`` resolves to this process's CPU *affinity* set where the
  platform reports one (``os.sched_getaffinity``), falling back to
  ``os.cpu_count()`` — so container/cgroup-limited runs stop
  oversubscribing their quota;
* a failing job raises :class:`~repro.errors.ParallelError` naming the
  job's overrides (so a 100-job grid tells you *which* point died), with
  the worker's original exception chained as ``__cause__`` and the
  worker's formatted traceback carried as ``.job_traceback`` (captured
  worker-side — the remote stack does not survive pickling otherwise);
* the pool never outlives the call (context-managed, failures included);
* with ``with_telemetry=True`` each worker runs its job under a
  job-local :class:`~repro.telemetry.session.Telemetry` session and
  ships the RunTelemetry record back on ``result.telemetry``, so the
  caller can aggregate per-worker phase timings and counters
  (:meth:`Telemetry.absorb`) exactly as the serial path does.

When to parallelize: each worker pays a process fork plus a result
pickle, so tiny grids (a handful of sub-second jobs) are usually faster
serial. The sweet spot is many jobs x non-trivial horizons — see the
``parallel-sweep`` benchmark for measured crossover numbers. Workers
``gc.freeze()`` what they inherit on start, so their garbage
collections do not walk, and copy on write, the parent's whole heap.
Same-fleet grids stack serially already; on the 8-job ``sweep`` grid two
workers, each stepping half the group as one engine, about match the
serial loop.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import traceback

from .errors import ConfigError, ParallelError
from .experiments.base import ExperimentResult
from .spec.sweep import SweepJob
from .telemetry import log


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity(0)`` honours taskset/cgroup cpusets (Linux);
    platforms without it fall back to the raw core count.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: ``None``→1 (serial), ``0``→all cores.

    "All cores" means the affinity set (:func:`_available_cpus`), not the
    machine's nominal core count.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    if jobs == 0:
        return _available_cpus()
    return jobs


def resolve_chunk_size(
    chunk_size: int | None, n_jobs: int, workers: int
) -> int:
    """Jobs per worker task: explicit, or ~4 chunks per worker.

    The auto split keeps the pool load-balanced (stragglers only delay
    one small chunk) while amortising submit/result overhead and giving
    the per-worker assembly cache consecutive same-fleet jobs to hit on.
    :func:`chunk_jobs` applies it, keeping stack groups together.
    """
    if chunk_size is not None:
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    return max(1, math.ceil(n_jobs / (workers * 4)))


#: One-slot per-process assembly cache: (fingerprint, FleetAssembly).
#: Lives at module scope so it survives across tasks on one pool worker
#: and across the jobs of a serial sweep.
_WORKER_ASSEMBLY: tuple[str, object] | None = None


def _cached_assembly(spec):
    """This process's :class:`FleetAssembly` for ``spec``, reusing the last
    one when the spec's fleet/grid/blackout fingerprint matches.

    A hit skips trace synthesis *and* keeps the realized-strata cache
    warm (``build`` rebinds the assembly to the new spec), which is what
    makes scheduler/pricing sweeps over one fleet cheap per extra job.
    """
    global _WORKER_ASSEMBLY
    from .spec.compiler import _assemble_fleet, assembly_fingerprint

    fingerprint = assembly_fingerprint(spec)
    if _WORKER_ASSEMBLY is None or _WORKER_ASSEMBLY[0] != fingerprint:
        _WORKER_ASSEMBLY = (fingerprint, _assemble_fleet(spec))
    return _WORKER_ASSEMBLY[1]


def stack_groups(specs: list) -> list[list]:
    """Split specs into maximal runs of consecutive stackable specs.

    Consecutive specs with one :func:`~repro.spec.compiler.stack_key`
    form a group that steps as one stacked engine; a spec whose key is
    ``None`` (priced) is a group of its own. Grid order is kept.
    """
    from .spec.compiler import stack_key

    groups: list[list] = []
    last = None
    for spec in specs:
        key = stack_key(spec)
        if key is not None and groups and key == last:
            groups[-1].append(spec)
        else:
            groups.append([spec])
        last = key
    return groups


def chunk_jobs(
    expanded: list[SweepJob], workers: int, chunk_size: int | None = None
) -> list[list[SweepJob]]:
    """Cut the grid into worker tasks of consecutive jobs, in grid order.

    An explicit ``chunk_size`` cuts every ``chunk_size`` jobs. The auto
    size (:func:`resolve_chunk_size`) would cut a :func:`stack_groups`
    group into one engine per chunk, so instead each group is split into
    at most ``workers`` near-equal runs, and consecutive runs are packed
    into one chunk while it stays within the auto size. A seed grid (all
    groups of one) thus chunks exactly as before, and a same-fleet grid
    steps as at most ``workers`` stacked engines.
    """
    size = resolve_chunk_size(chunk_size, len(expanded), workers)
    if chunk_size is not None:
        return [expanded[i : i + size] for i in range(0, len(expanded), size)]
    chunks: list[list[SweepJob]] = []
    start = 0
    for group in stack_groups([job.spec for job in expanded]):
        jobs = expanded[start : start + len(group)]
        start += len(group)
        step = math.ceil(len(jobs) / min(workers, len(jobs)))
        for i in range(0, len(jobs), step):
            run = jobs[i : i + step]
            if chunks and len(chunks[-1]) + len(run) <= size:
                chunks[-1] += run
            else:
                chunks.append(run)
    return chunks


def _run_group(specs: list, with_telemetry: bool) -> list[ExperimentResult]:
    """Run one stack group over this process's cached assembly.

    ``with_telemetry`` runs each job under a job-local telemetry session;
    the record rides back on ``result.telemetry`` (metadata is skipped —
    the parent stamps one fingerprint for the whole sweep).
    """
    # Local imports keep the worker bootstrap light under spawn-style
    # start methods (under fork they are already-cached module lookups).
    from . import api
    from .telemetry import Telemetry

    return api._run_stack(
        specs,
        [Telemetry(include_meta=False) if with_telemetry else None for _ in specs],
        assembly=_cached_assembly(specs[0]),
    )


def _run_payload_chunk(
    payloads: list[str], with_telemetry: bool = False
) -> tuple[list[ExperimentResult], tuple[int, BaseException, str] | None]:
    """Worker entry point for a chunk of jobs: spec JSON in, results out.

    The chunk runs like a serial sweep: each :func:`stack_groups` group
    steps as one stacked engine. Returns ``(results, failure)`` where
    ``failure`` is ``None`` or ``(offset_in_chunk, original_error,
    formatted_traceback)`` for the first job that raised — jobs after it
    are not run. A failed group is re-run one job at a time to find that
    job (a failure only the stacked run shows is blamed on the group's
    first job). The error rides back as a *value* (not a raise) so the
    parent can chain the genuine exception instance as
    ``ParallelError.__cause__``; errors that don't survive pickling are
    replaced by a ``RuntimeError`` carrying their repr.
    """
    from .spec.scenario import ScenarioSpec

    def failure(offset: int, error: Exception):
        trace = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ).strip()
        try:
            pickle.dumps(error)
        except Exception:
            error = RuntimeError(repr(error))
        return results, (offset, error, trace)

    results: list[ExperimentResult] = []
    for group in stack_groups([ScenarioSpec.from_json(p) for p in payloads]):
        start = len(results)
        try:
            results += _run_group(group, with_telemetry)
        except Exception as error:
            if len(group) > 1:
                for spec in group:
                    try:
                        results += _run_group([spec], with_telemetry)
                    except Exception as job_error:
                        return failure(len(results), job_error)
                del results[start:]
            return failure(start, error)
    return results, None


def run_jobs_parallel(
    expanded: list[SweepJob],
    n_workers: int,
    *,
    with_telemetry: bool = False,
    chunk_size: int | None = None,
) -> list[ExperimentResult]:
    """Run pre-expanded sweep jobs over a worker pool, ordered by index.

    The caller (``api.run_sweep``) expands the grid once and tags the
    returned results, so serial and parallel sweeps share one code path
    for everything except the executor. At most one worker per available
    CPU is started, whatever ``n_workers`` asks for. Jobs are submitted
    as contiguous chunks (:func:`chunk_jobs`); within a chunk
    they run in grid order, which is also what lets the worker-side
    assembly cache hit.
    """
    if not expanded:
        return []
    # Imported here: the process-pool machinery (multiprocessing and its
    # helpers) is only worth loading when a pool is about to start.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    results: list[ExperimentResult | None] = [None] * len(expanded)
    # More processes than CPUs only adds forks and time-slicing: the
    # jobs are CPU-bound, and the results do not depend on the count.
    workers = min(n_workers, len(expanded), _available_cpus())
    chunks = chunk_jobs(expanded, workers, chunk_size)
    log.debug(
        "starting worker pool",
        workers=workers,
        jobs=len(expanded),
        chunks=len(chunks),
    )
    # Each worker freezes what it inherited before it runs a job: forked
    # from a large process, a worker's collections would otherwise walk
    # (and so copy-on-write) every page of the parent's object heap.
    with ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze) as pool:
        future_chunks = {
            pool.submit(
                _run_payload_chunk,
                [job.spec.to_json() for job in chunk],
                with_telemetry,
            ): chunk
            for chunk in chunks
        }
        # Collect in completion order so the *first* failure is observed
        # as soon as it happens; indices restore job order below.
        for future in as_completed(future_chunks):
            chunk = future_chunks[future]
            chunk_results, failure = future.result()
            for job, result in zip(chunk, chunk_results):
                results[job.index] = result
            if failure is not None:
                # Fail fast: drop the not-yet-started remainder of the
                # grid instead of burning CPU after the outcome is known.
                pool.shutdown(wait=False, cancel_futures=True)
                offset, error, trace = failure
                job = chunk[offset]
                label = job.label() or "(base spec)"
                raise ParallelError(
                    f"sweep job {job.index} [{label}] failed in a worker: "
                    f"{error}",
                    job_traceback=trace,
                ) from error
    return results  # type: ignore[return-value]

