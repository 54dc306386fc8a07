"""Span-based phase tracing: nested wall/CPU timings as a JSON tree.

A :class:`Tracer` records *spans* — named intervals with wall and CPU
durations — on an explicit stack, so ``with tracer.span("step"):`` nested
inside ``with tracer.span("run"):`` shows up as a child in the exported
tree. The canonical phase names used across the codebase are ``compile``,
``reset``, ``step``, ``sweep-job``, ``ppo-update`` and ``eval``
(sub-phase costs too fine for a span, like per-slot feeder
``allocation``, live in :class:`~repro.telemetry.metrics.MetricsRegistry`
timers instead).

Exports: :meth:`Tracer.to_list` is the JSON trace (round-trippable —
plain dicts and floats, nesting preserved), and :meth:`Tracer.phase_totals`
aggregates spans by name for the RunTelemetry phase table. Start offsets are relative to the tracer's construction epoch, so traces
shipped back from worker processes stay meaningful without a shared
clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..errors import ConfigError


class Span:
    """One named interval: wall/CPU duration, metadata, child spans."""

    __slots__ = ("name", "start_s", "wall_s", "cpu_s", "fields", "children")

    def __init__(self, name: str, start_s: float, **fields) -> None:
        if not name:
            raise ConfigError("span name must be non-empty")
        self.name = name
        self.start_s = start_s
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.fields = fields
        self.children: list[Span | dict] = []

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": [
                child.to_dict() if isinstance(child, Span) else child
                for child in self.children
            ],
        }
        if self.fields:
            payload["fields"] = dict(self.fields)
        return payload


class Tracer:
    """Collects a tree of :class:`Span` timings for one run."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **fields):
        """Open a span; nests under whichever span is currently live."""
        opened = Span(name, time.perf_counter() - self._epoch, **fields)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(opened)
        self._stack.append(opened)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield opened
        finally:
            opened.wall_s = time.perf_counter() - wall0
            opened.cpu_s = time.process_time() - cpu0
            self._stack.pop()

    def attach(self, name: str, child_trace: list[dict], **fields) -> Span:
        """Graft an exported trace (e.g. from a worker) under a new span.

        The synthetic span's durations are the sum of the grafted roots,
        so sweep-level phase totals still account for worker time; the
        grafted dicts keep their own (worker-relative) start offsets.
        """
        span = Span(name, time.perf_counter() - self._epoch, **fields)
        span.wall_s = sum(child.get("wall_s", 0.0) for child in child_trace)
        span.cpu_s = sum(child.get("cpu_s", 0.0) for child in child_trace)
        span.children = list(child_trace)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(span)
        return span

    # ------------------------------------------------------------------ #
    # Export                                                               #
    # ------------------------------------------------------------------ #

    def to_list(self) -> list[dict]:
        """The JSON trace: a list of root span dicts, nesting intact."""
        if self._stack:
            raise ConfigError(
                f"cannot export while span {self._stack[-1].name!r} is open"
            )
        return [span.to_dict() for span in self.roots]

    def phase_totals(self) -> dict[str, dict]:
        """Aggregate spans by name: ``{name: {wall_s, cpu_s, count}}``."""
        totals: dict[str, dict] = {}
        stack = [span.to_dict() for span in self.roots]
        while stack:
            node = stack.pop()
            entry = totals.setdefault(
                node["name"], {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}
            )
            entry["wall_s"] += node.get("wall_s", 0.0)
            entry["cpu_s"] += node.get("cpu_s", 0.0)
            entry["count"] += 1
            stack.extend(node.get("children", ()))
        return {name: totals[name] for name in sorted(totals)}
