"""Outside-in span tracer for the benchmark's traced run.

The program is not edited to be traced. Instead :func:`installed` wraps
the public functions where the program crosses from one layer to the
next — patched on the object the *caller* looks the name up on, since
several are imported by name (``repro.api._compile`` is
``repro.spec.compiler.build``) or imported locally at call time — and
restores every original on exit.

Each call records a :class:`Span` (name, start, end, parent span, run
id) in memory; :meth:`Tracer.to_json` writes them out when the run ends.
A span's self time is its duration minus the durations of its direct
children, which in a single thread lie inside it and do not overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or ``None``.
    parent: int | None
    run_id: str


class Tracer:
    """In-memory spans plus the counters observed at the same boundaries."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: Distinct keys seen per name (e.g. hub ids per build_scenario).
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def see(self, name: str, key: Any) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``observe(tracer, args, kwargs, result)`` books counters after
        the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per-name total of span duration minus direct-children duration."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        totals: dict[str, float] = {}
        for span, value in zip(self.spans, own):
            totals[span.name] = totals.get(span.name, 0.0) + value
        return totals

    def total_times(self) -> dict[str, float]:
        """Per-name total duration of the outermost span of each name.

        A span nested inside a span of the same name is already counted
        by its ancestor, so recursion is not double-counted.
        """
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if not self._has_ancestor_named(index, span.name):
                totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "run_id": span.run_id,
                }
                for span in self.spans
            ],
            "counters": dict(sorted(self.counters.items())),
        }


# --------------------------------------------------------------------- #
# Counters observed at the boundaries                                    #
# --------------------------------------------------------------------- #


def array_bytes(obj: Any) -> int:
    """Bytes of the distinct numpy buffers an object's attributes hold.

    Computed from array sizes (views count their base once), so it
    ignores allocator slack; it is the working set the object pins.
    """
    import numpy as np

    names = list(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        names += list(getattr(klass, "__slots__", ()))
    seen: dict[int, int] = {}
    for name in names:
        values = getattr(obj, name, None)
        for value in values.values() if isinstance(values, dict) else (values,):
            if isinstance(value, np.ndarray):
                base = value
                while isinstance(base.base, np.ndarray):
                    base = base.base
                seen[id(base)] = base.nbytes
    return sum(seen.values())


def _observe_build_scenario(tracer: Tracer, args, kwargs, scenario) -> None:
    tracer.count("synth.build_scenario.hub_slots", scenario.n_hours)
    tracer.see("synth.build_scenario", scenario.site.hub_id)


def _observe_step(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("fleet.step.hub_slots", args[0].n_hubs)


def _observe_planes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.peak("fleet.planes.bytes", array_bytes(args[0]))


def _observe_book(tracer: Tracer, args, kwargs, result) -> None:
    tracer.peak("fleet.book.bytes", array_bytes(args[0]))


# --------------------------------------------------------------------- #
# The layer boundaries                                                   #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EntryPoint:
    """One span name and every ``(module, attribute path)`` it patches."""

    name: str
    targets: tuple[tuple[str, str], ...]
    #: The end-to-end metric and workload(s) this span's self time should
    #: move — the prediction later changes are held to.
    moves: str
    observe: Callable | None = None


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint(
        "api.run",
        (("repro.api", "run"),),
        "report glue, under 1% everywhere: no visible effect",
    ),
    EntryPoint(
        "api.run_sweep",
        (("repro.api", "run_sweep"),),
        "sweep glue (also under pricing's method sweep), under 1%: no visible effect",
    ),
    EntryPoint(
        "api.run_pricing",
        (("repro.api", "run_pricing"),),
        "pricing table glue, under 1%: no visible effect",
    ),
    EntryPoint(
        "api.train_fleet",
        (("repro.api", "train_fleet"),),
        "agent set-up and report glue on train: no visible effect",
    ),
    EntryPoint(
        "api.export",
        (("repro.experiments.base", "write_results_json"),),
        "the --out JSON write, under 1%: no visible effect",
    ),
    EntryPoint(
        "spec.assemble_sites",
        (("repro.spec.compiler", "assemble_sites"),),
        "wall_s on city",
    ),
    EntryPoint(
        "spec.build",
        (("repro.spec.compiler", "build"), ("repro.api", "_compile")),
        "wall_s on city (about 5%, the _assemble_fleet remainder)",
    ),
    EntryPoint(
        "spec.build_fleet_env",
        (
            ("repro.spec.compiler", "build_fleet_env"),
            ("repro.api", "_compile_fleet_env"),
        ),
        "wall_s on train (the RL path's assembly remainder)",
    ),
    EntryPoint(
        "synth.build_scenario",
        (("repro.spec.compiler", "build_scenario"),),
        "wall_s on city and sweep, not on train; .distinct_share moves "
        "wall_s on sweep and pricing only",
        _observe_build_scenario,
    ),
    EntryPoint(
        "synth.sample_outages",
        (("repro.energy.grid", "BlackoutModel.sample_outages"),),
        "wall_s on city and sweep",
    ),
    EntryPoint(
        "synth.sample_strata",
        (("repro.synth.charging", "ChargingBehaviorModel.sample_strata"),),
        "wall_s on city, sweep and train",
    ),
    EntryPoint(
        "synth.simulate_log",
        (("repro.synth.charging", "ChargingBehaviorModel.simulate_log"),),
        "wall_s on pricing",
    ),
    EntryPoint(
        "fleet.engine_init",
        (("repro.fleet.builder", "fleet_simulation_from_scenarios"),),
        "wall_s on city and sweep",
    ),
    EntryPoint(
        "fleet.planes",
        (("repro.fleet.planes", "SlotPlanes.__init__"),),
        "wall_s on city; .bytes moves peak_rss_mb on city",
        _observe_planes,
    ),
    EntryPoint(
        "fleet.book",
        (("repro.fleet.costs", "FleetCostBook.__init__"),),
        "wall_s on sweep and train; .bytes moves peak_rss_mb on city",
        _observe_book,
    ),
    EntryPoint(
        "fleet.reset",
        (("repro.fleet.simulation", "FleetSimulation.reset"),),
        "wall_s on sweep and train, noise on city",
    ),
    EntryPoint(
        "fleet.step",
        (("repro.fleet.simulation", "FleetSimulation.step"),),
        "wall_s on sweep and train, noise on city",
        _observe_step,
    ),
    EntryPoint(
        "fleet.allocate",
        (("repro.fleet.grid", "FeederGroup.allocate"),),
        "wall_s on sweep, noise on city (train has no feeders)",
    ),
    EntryPoint(
        "fleet.scheduler",
        tuple(
            ("repro.fleet.schedulers", f"{klass}.__call__")
            for klass in (
                "FleetIdleScheduler",
                "FleetRandomScheduler",
                "FleetRuleBasedScheduler",
                "FleetGreedyRenewableScheduler",
            )
        ),
        "wall_s on sweep, noise on city",
    ),
    EntryPoint(
        "pricing.compile_pricing",
        (("repro.spec.pricing", "compile_pricing"),),
        "wall_s on pricing only",
    ),
    EntryPoint(
        "causal.fit",
        (
            ("repro.causal.ect_price", "EctPriceModel.fit"),
            ("repro.causal.baselines", "OutcomeRegression.fit"),
            ("repro.causal.baselines", "InversePropensityScoring.fit"),
            ("repro.causal.baselines", "DoublyRobust.fit"),
        ),
        "wall_s on pricing only (an nn autograd change moves it too)",
    ),
    EntryPoint(
        "causal.dataset_from_log",
        (("repro.spec.pricing", "dataset_from_log"),),
        "wall_s on pricing only",
    ),
    EntryPoint(
        "causal.discount_schedule",
        (("repro.spec.pricing", "discount_schedule_for_hub"),),
        "wall_s on pricing only",
    ),
    EntryPoint(
        "rl.train",
        (("repro.rl.training", "train_fleet_ppo"),),
        "wall_s on train (rollout loop and buffer glue)",
    ),
    EntryPoint(
        "rl.eval",
        (("repro.rl.training", "evaluate_fleet_agent"),),
        "wall_s on train",
    ),
    EntryPoint(
        "rl.ppo_update",
        (("repro.rl.ppo", "PpoAgent.update"),),
        "wall_s on train; an nn autograd change also moves pricing",
    ),
    EntryPoint(
        "rl.act_batch",
        (("repro.rl.ppo", "PpoAgent.act_batch"),),
        "wall_s on train",
    ),
    EntryPoint(
        "rl.env_step",
        (("repro.rl.fleet_env", "FleetEnv.step"),),
        "wall_s on train",
    ),
    EntryPoint(
        "rl.env_reset",
        (("repro.rl.fleet_env", "FleetEnv.reset"),),
        "wall_s on train",
    ),
)

#: Spans whose self time is report glue rather than a named layer.
API_SPANS = ("api.run", "api.run_sweep", "api.run_pricing", "api.train_fleet")


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted path inside a module."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Patch every entry point for the duration of the block.

    Yields the targets that could not be found (a renamed function reads
    as a layer with no calls rather than failing the run). Originals are
    restored in reverse order even if the block raises.
    """
    patched: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for entry in ENTRY_POINTS:
            for module_name, path in entry.targets:
                try:
                    owner, attribute = _resolve(module_name, path)
                    original = owner.__dict__[attribute]
                except (ImportError, AttributeError, KeyError):
                    missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attribute, tracer.wrap(entry.name, original, entry.observe))
                patched.append((owner, attribute, original))
        yield missing
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """The per-layer numbers of one traced run, keyed by metric name.

    Self time is reported as ``.self_share``, a share of the traced wall
    time: a layer a workload never enters reads exactly 0 on every run,
    and a share is comparable across hosts of different speed. The
    seconds are in :meth:`Tracer.self_times`.
    """
    self_times = tracer.self_times()
    totals = tracer.total_times()
    calls = tracer.calls()
    wall = traced_wall_s if traced_wall_s > 0 else float("inf")
    metrics: dict[str, float] = {}
    for entry in ENTRY_POINTS:
        metrics[f"{entry.name}.self_share"] = self_times.get(entry.name, 0.0) / wall
        metrics[f"{entry.name}.calls"] = calls.get(entry.name, 0)
    counters = tracer.counters
    builds = calls.get("synth.build_scenario", 0)
    metrics["synth.build_scenario.hub_slots"] = counters.get(
        "synth.build_scenario.hub_slots", 0
    )
    metrics["synth.build_scenario.distinct_share"] = (
        len(tracer.distinct.get("synth.build_scenario", ())) / builds
        if builds
        else 0.0
    )
    step_s = totals.get("fleet.step", 0.0)
    metrics["fleet.step.hub_slots_per_s"] = (
        counters.get("fleet.step.hub_slots", 0) / step_s if step_s > 0 else 0.0
    )
    metrics["fleet.planes.bytes"] = counters.get("fleet.planes.bytes", 0)
    metrics["fleet.book.bytes"] = counters.get("fleet.book.bytes", 0)
    metrics["trace.coverage"] = (
        sum(value for name, value in self_times.items() if name not in API_SPANS)
        / wall
    )
    return metrics
