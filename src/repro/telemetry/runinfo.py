"""Run metadata: the environment fingerprint stamped onto exports.

Benchmark reports and telemetry exports are only interpretable across
machines and PRs when they say *where* they ran: the same workload does
1.9M hub-slots/sec on one box and 600k on another, and a relaxed-perf CI
run must not be confused with a strict local one. :func:`run_metadata`
collects the short list the bench trajectory needs — hostname, python
and numpy versions, the git commit, and the ``ECT_PERF_RELAXED`` flag —
and caches it per process (the git subprocess runs once, not per
report). One live gauge rides along: :func:`peak_rss_mb`, the process's
peak resident set so far — what the windowed cost-book's memory ceiling
is measured against in the ``fleet-city`` benchmark.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import sys
from functools import lru_cache


def _git_commit() -> str | None:
    """The repo HEAD commit, or None outside a git checkout."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = output.stdout.strip()
    return commit if output.returncode == 0 and commit else None


def peak_rss_mb() -> float | None:
    """Peak resident set size of this process so far, in MiB.

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` — KiB on Linux, bytes on
    macOS — and returns ``None`` where the :mod:`resource` module is
    unavailable (non-POSIX platforms). A high-water mark, not a current
    reading: it only ever grows, which is exactly what a memory-ceiling
    guard wants.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(ru_maxrss / divisor, 1)


@lru_cache(maxsize=1)
def _static_metadata() -> dict:
    """The immutable part of the fingerprint, cached for the process."""
    import numpy

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "git_commit": _git_commit(),
        "ect_perf_relaxed": os.environ.get("ECT_PERF_RELAXED", "") == "1",
    }


def run_metadata() -> dict:
    """The environment fingerprint plus the live peak-RSS gauge.

    The static fields are cached (the git subprocess runs once per
    process); ``peak_rss_mb`` is re-read every call, so a record
    snapshotted at the end of a run carries that run's memory
    high-water mark. Returns a fresh dict each call — mutate freely.
    """
    return {
        **_static_metadata(),
        "peak_rss_mb": peak_rss_mb(),
    }
