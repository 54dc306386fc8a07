"""Vectorized battery schedulers: open-loop block planners over a fleet.

The four baselines of the scheduler studies (the ECT-DRL comparison
points and the ``abl-sched`` ablation):

* :class:`FleetIdleScheduler` — never touch the battery (the "no BESS
  scheduling" reference);
* :class:`FleetRandomScheduler` — uniform random actions, one stream per
  hub row (NumPy bulk draws reproduce repeated single draws bit-for-bit);
* :class:`FleetRuleBasedScheduler` — the classic peak/off-peak rule:
  charge in the cheap price quantile, discharge in the expensive one;
* :class:`FleetGreedyRenewableScheduler` — charge whenever renewables
  exceed the base-station load, discharge at peak price.

Each produces, hub for hub, the actions of the one-hub-at-a-time
schedulers frozen in ``tests/scalar_oracle`` given identical inputs and
seeds, which is what lets the equivalence tests compare whole scheduled
runs between the two engines.

The protocol is ``scheduler(view, start, stop) -> (n_hubs, stop - start)``
actions for slots ``start`` to ``stop - 1``, plus an optional
``reset(view)`` hook that :meth:`FleetSimulation.run_jobs` invokes once.
The view exposes a fleet's sizes, params, traces, slot planes and feeders
— never its batteries — so the schedulers are open-loop by construction:
every decision is an elementwise test over ``[:, start:stop]`` slices of
the traces and planes, and a block plans exactly what the slots would
one at a time.

Rule-based and greedy are **congestion-aware**: before committing to a
charge they consult :meth:`FeederGroup.available_import_kw` — the per-hub
fair share of remaining feeder capacity — and fall back to IDLE where the
battery's extra import would not fit. On an uncoupled fleet the signal is
infinite, so the actions stay identical to the one-hub rules.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from ..errors import ConfigError, FleetError
from ..rng import RngFactory


class FleetScheduler:
    """Base class: a batched open-loop planner over blocks of slots."""

    name: str = "fleet-scheduler"

    def __call__(self, view, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def reset(self, view) -> None:
        """Hook for per-run state (thresholds, pre-drawn actions)."""


def suppress_infeasible_charges(
    view, actions: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Turn CHARGE into IDLE where the feeder headroom cannot carry it.

    ``actions`` is the ``(n_hubs, stop - start)`` block planned for slots
    ``start`` to ``stop - 1``. A hub's charge adds ``charge_rate_kw`` of
    bus load; what on-site renewable surplus cannot cover must be
    imported. Where that extra import exceeds the hub's fair share of
    remaining feeder capacity (:meth:`FeederGroup.available_import_kw`),
    the charge is dropped. Free no-op on uncoupled fleets.
    """
    feeders = view.feeders
    if feeders.is_unlimited:
        return actions
    # Both the headroom signal's base load and the on-site surplus are
    # formed from the engine's SlotPlanes for this block's slots only.
    planes, block = view.planes, slice(start, stop)
    available = feeders.available_import_kw(planes.base_import_kw(block), start)
    onsite_surplus = planes.onsite_surplus_kw(block)
    extra_import = np.maximum(
        view.params.charge_rate_kw[:, None] - onsite_surplus, 0.0
    )
    return np.where(
        (actions == CHARGE) & (extra_import > available), IDLE, actions
    )


class FleetIdleScheduler(FleetScheduler):
    """Never use any battery."""

    name = "idle"

    def __call__(self, view, start: int, stop: int) -> np.ndarray:
        return np.zeros((view.n_hubs, stop - start), dtype=int)


class FleetRandomScheduler(FleetScheduler):
    """Uniform random action per hub per slot, one RNG stream per hub.

    Sequences are pre-drawn per hub at :meth:`reset`, row after row;
    because NumPy's ``Generator.integers`` yields the same values whether
    drawn in bulk or one at a time, hub *i* receives exactly the actions
    a slot-by-slot draw from the same stream would. One stream given for
    several rows (stacked episodes) continues from row to row.
    """

    name = "random"

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        if not rngs:
            raise ConfigError("FleetRandomScheduler needs at least one stream")
        self._rngs = list(rngs)
        self._actions: np.ndarray | None = None

    @classmethod
    def from_factory(
        cls,
        factory: RngFactory,
        n_hubs: int,
        *,
        prefix: str = "fleet/random",
    ) -> "FleetRandomScheduler":
        """One named sub-stream per hub, ``{prefix}/{i}``.

        Hub *i* draws the same stream whatever the fleet size.
        """
        return cls(factory.substreams(prefix, n_hubs))

    def reset(self, view) -> None:
        if len(self._rngs) != view.n_hubs:
            raise FleetError(
                f"{len(self._rngs)} random streams for {view.n_hubs} hubs"
            )
        self._actions = np.stack(
            [rng.integers(-1, 2, size=view.horizon) for rng in self._rngs]
        )

    def __call__(self, view, start: int, stop: int) -> np.ndarray:
        if self._actions is None:
            self.reset(view)
        return self._actions[:, start:stop]


class FleetRuleBasedScheduler(FleetScheduler):
    """Charge below each hub's cheap-price quantile, discharge above the
    expensive one — the batched peak/off-peak heuristic.

    Thresholds are computed per hub over that hub's own full price trace,
    so every hub adapts to its own price level.
    """

    name = "rule-based"

    def __init__(
        self,
        *,
        cheap_quantile: float = 0.3,
        expensive_quantile: float = 0.7,
        congestion_aware: bool = True,
    ) -> None:
        if not 0.0 < cheap_quantile < expensive_quantile < 1.0:
            raise ConfigError(
                "quantiles must satisfy 0 < cheap < expensive < 1, got "
                f"({cheap_quantile}, {expensive_quantile})"
            )
        self.cheap_quantile = cheap_quantile
        self.expensive_quantile = expensive_quantile
        self.congestion_aware = congestion_aware
        self._cheap: np.ndarray | None = None
        self._expensive: np.ndarray | None = None

    def reset(self, view) -> None:
        # One axis-vectorized quantile per threshold; numpy's per-row
        # results are bit-identical to N separate np.quantile(row)
        # calls, so thresholds still match a one-hub rule's exactly
        # (the engine equivalence suite compares whole scheduled runs).
        prices = view.inputs.rtp_kwh
        self._cheap = np.quantile(prices, self.cheap_quantile, axis=1)[:, None]
        self._expensive = np.quantile(
            prices, self.expensive_quantile, axis=1
        )[:, None]

    def __call__(self, view, start: int, stop: int) -> np.ndarray:
        if self._cheap is None or self._expensive is None:
            self.reset(view)
        price = view.inputs.rtp_kwh[:, start:stop]
        actions = np.where(
            price <= self._cheap,
            CHARGE,
            np.where(price >= self._expensive, DISCHARGE, IDLE),
        )
        if self.congestion_aware:
            actions = suppress_infeasible_charges(view, actions, start, stop)
        return actions


class FleetGreedyRenewableScheduler(FleetScheduler):
    """Store renewable surplus; discharge during each hub's expensive slots."""

    name = "greedy-renewable"

    def __init__(
        self, *, expensive_quantile: float = 0.75, congestion_aware: bool = True
    ) -> None:
        if not 0.0 < expensive_quantile < 1.0:
            raise ConfigError(
                f"expensive_quantile must be in (0, 1), got {expensive_quantile}"
            )
        self.expensive_quantile = expensive_quantile
        self.congestion_aware = congestion_aware
        self._threshold: np.ndarray | None = None

    def reset(self, view) -> None:
        # Axis-vectorized like the rule-based thresholds (bit-identical
        # per row to separate np.quantile calls).
        self._threshold = np.quantile(
            view.inputs.rtp_kwh, self.expensive_quantile, axis=1
        )[:, None]

    def __call__(self, view, start: int, stop: int) -> np.ndarray:
        if self._threshold is None:
            self.reset(view)
        inputs = view.inputs
        renewables = (
            inputs.pv_power_kw[:, start:stop] + inputs.wt_power_kw[:, start:stop]
        )
        bs_load = view.planes.p_bs_kw[:, start:stop]
        actions = np.where(
            renewables > bs_load,
            CHARGE,
            np.where(
                inputs.rtp_kwh[:, start:stop] >= self._threshold, DISCHARGE, IDLE
            ),
        )
        if self.congestion_aware:
            actions = suppress_infeasible_charges(view, actions, start, stop)
        return actions


#: Scheduler-name registry used by the fleet experiment / CLI.
FLEET_SCHEDULERS = (
    FleetIdleScheduler.name,
    FleetRandomScheduler.name,
    FleetRuleBasedScheduler.name,
    FleetGreedyRenewableScheduler.name,
)


def make_fleet_scheduler(
    name: str,
    *,
    n_hubs: int,
    rng_factory: RngFactory | None = None,
    congestion_aware: bool = True,
    cheap_quantile: float | None = None,
    expensive_quantile: float | None = None,
) -> FleetScheduler:
    """Instantiate a fleet scheduler by name (random needs a factory).

    Quantiles left ``None`` use each scheduler class's own defaults; a
    quantile the named scheduler does not consume raises
    :class:`ConfigError` instead of being silently dropped.
    """

    def reject_unused(allowed: tuple[str, ...]) -> None:
        supplied = {
            "cheap_quantile": cheap_quantile,
            "expensive_quantile": expensive_quantile,
        }
        unused = [
            label
            for label, value in supplied.items()
            if value is not None and label not in allowed
        ]
        if unused:
            raise ConfigError(
                f"scheduler {name!r} does not take {', '.join(unused)}"
            )

    if name == FleetIdleScheduler.name:
        reject_unused(())
        return FleetIdleScheduler()
    if name == FleetRandomScheduler.name:
        reject_unused(())
        factory = rng_factory or RngFactory(seed=0)
        return FleetRandomScheduler.from_factory(factory, n_hubs)
    if name == FleetRuleBasedScheduler.name:
        kwargs = {}
        if cheap_quantile is not None:
            kwargs["cheap_quantile"] = cheap_quantile
        if expensive_quantile is not None:
            kwargs["expensive_quantile"] = expensive_quantile
        return FleetRuleBasedScheduler(congestion_aware=congestion_aware, **kwargs)
    if name == FleetGreedyRenewableScheduler.name:
        reject_unused(("expensive_quantile",))
        kwargs = {}
        if expensive_quantile is not None:
            kwargs["expensive_quantile"] = expensive_quantile
        return FleetGreedyRenewableScheduler(
            congestion_aware=congestion_aware, **kwargs
        )
    raise FleetError(
        f"unknown fleet scheduler {name!r}; available: {', '.join(FLEET_SCHEDULERS)}"
    )
