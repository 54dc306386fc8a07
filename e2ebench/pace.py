"""How fast the core ran, sampled inside the measured process while it ran.

The benchmark runs on a few cores of a shared host whose speed drifts by
30% and more over seconds to minutes with its other tenants' load. A
timer signal every :data:`INTERVAL_S` runs a fixed pure-Python probe in
the measured process itself and times it; the median probe of a region
says how much slower than the reference the core ran during that region,
at the time it ran. The end-to-end times are divided by that factor, so
host drift cancels out of them while a change to the program does not:
the probe imports nothing from it and costs under 1% of the region.

Measured on a 2-core shared Xeon host, the median probe of a repetition
correlates 0.86-0.88 with its wall time, and pacing halves the
repetition-to-repetition spread (coefficient of variation 0.08-0.10 to
0.04-0.05) on ``city`` and ``pricing``. A probe timed just before and
after the region, or on the other core, tracked the drift too loosely
(correlation 0.6-0.7) to help.

Python runs a signal handler between bytecodes of the main thread, so a
probe that falls due inside a long NumPy call runs when the call returns;
system calls it interrupts are retried (PEP 475).
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between two probes.
INTERVAL_S = 0.05
#: Iterations of the probe loop: about 0.3 ms, under 1% of the interval.
PROBE_ITERATIONS = 2000
#: Median probe seconds at the reference speed (a 2-core shared Xeon
#: host at its usual speed); paced times read in seconds at that speed.
REFERENCE_S = 300e-6


def probe_s() -> float:
    """Run the fixed probe once; its wall seconds."""
    start = time.perf_counter()
    x = 1
    for _ in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return time.perf_counter() - start


class Gauge:
    """Probes the core every :data:`INTERVAL_S` while the block runs."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(probe_s())

    def __enter__(self) -> Gauge:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def split(self) -> float:
        """Slowdown against the reference since the last split (or start).

        A region too short for a timed probe gets one run inline.
        """
        samples, self._samples = self._samples, []
        return statistics.median(samples or [probe_s()]) / REFERENCE_S
