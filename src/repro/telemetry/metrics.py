"""Lightweight metrics registry: counters, gauges, histograms, timers.

:class:`MetricsRegistry` is the quantitative half of the telemetry
subsystem (the :mod:`~repro.telemetry.trace` tracer is the temporal
half). It is deliberately tiny — plain dicts of floats — because the
engine hot path touches it once per *slot* (not per hub-slot) and only
when a telemetry session is attached; disabled runs never construct one,
so the only disabled-mode cost anywhere is an ``is not None`` branch.

Determinism contract: :meth:`snapshot` emits sorted, JSON-ready plain
data, and :meth:`merge` is associative over ordered inputs — merging the
same worker records in the same order always produces byte-identical
JSON. That is what lets serial and parallel sweeps report identical
aggregated counters (test-enforced).
"""

from __future__ import annotations

import math

from ..errors import ConfigError


class HistogramStats:
    """Streaming summary of observed values (count/sum/min/max/sumsq).

    Keeps O(1) state instead of raw observations so a long run cannot
    grow memory with the horizon; mean and population std are derived.
    """

    __slots__ = ("count", "total", "sumsq", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if not self.count:
            return 0.0
        variance = self.sumsq / self.count - self.mean**2
        return math.sqrt(max(variance, 0.0))

    def merge(self, other: "HistogramStats | dict") -> None:
        if isinstance(other, dict):
            stats = HistogramStats()
            stats.count = int(other["count"])
            stats.total = float(other["sum"])
            stats.sumsq = float(other["sumsq"])
            stats.min = float(other["min"])
            stats.max = float(other["max"])
            other = stats
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "sumsq": self.sumsq,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "std": self.std,
        }


class MetricsRegistry:
    """Named counters, gauges, histograms, and wall-clock timers.

    * **Counters** only go up (``inc``) — event totals.
    * **Gauges** hold the latest value (``set_gauge``) — rates, sizes.
    * **Histograms** summarize observations (``observe``) — durations,
      per-update statistics.
    * **Timers** accumulate wall seconds + a call count (``add_time``) —
      sub-phase costs too fine-grained for a trace span, e.g. per-slot
      feeder allocation.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramStats] = {}
        self.timers: dict[str, list[float]] = {}  # name -> [seconds, count]

    # ------------------------------------------------------------------ #
    # Recording                                                            #
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (>= 0) to counter ``name``."""
        if value < 0:
            raise ConfigError(f"counter {name!r} cannot decrease (got {value})")
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        stats = self.histograms.get(name)
        if stats is None:
            stats = self.histograms[name] = HistogramStats()
        stats.observe(value)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall seconds into timer ``name``."""
        cell = self.timers.get(name)
        if cell is None:
            self.timers[name] = [float(seconds), 1]
        else:
            cell[0] += seconds
            cell[1] += 1

    # ------------------------------------------------------------------ #
    # Export & aggregation                                                 #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Sorted, JSON-ready view of everything recorded so far."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
            "timers": {
                k: {"seconds": self.timers[k][0], "count": self.timers[k][1]}
                for k in sorted(self.timers)
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and timers add; gauges keep the merged-in value (last
        writer wins, like ``set_gauge``); histograms combine their
        streaming summaries.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, stats in snapshot.get("histograms", {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramStats()
            mine.merge(stats)
        for name, cell in snapshot.get("timers", {}).items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = [float(cell["seconds"]), int(cell["count"])]
            else:
                mine[0] += cell["seconds"]
                mine[1] += cell["count"]
