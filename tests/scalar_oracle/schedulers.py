"""Baseline battery schedulers (non-learned).

These provide comparison points and ablations for ECT-DRL:

* :class:`IdleScheduler` — never touch the battery (the "no BESS
  scheduling" reference).
* :class:`RandomScheduler` — uniform random actions.
* :class:`RuleBasedScheduler` — the classic peak/off-peak heuristic:
  charge when the price is in the cheap quantile, discharge when it is in
  the expensive quantile.
* :class:`GreedyRenewableScheduler` — charge whenever renewables exceed
  hub load (store surplus instead of curtailing), discharge at peak price.

Every scheduler implements the same callable protocol as
:meth:`.simulation.HubSimulation.run` policies: it receives the
live simulation and returns a battery action (−1 / 0 / 1).
"""

from __future__ import annotations

import numpy as np

from repro.energy.battery import CHARGE, DISCHARGE, IDLE
from repro.errors import ConfigError

from .simulation import HubSimulation


class Scheduler:
    """Base class: a policy over :class:`HubSimulation` states."""

    name: str = "scheduler"

    def __call__(self, sim: HubSimulation) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Hook for stateful schedulers; default is stateless."""


class IdleScheduler(Scheduler):
    """Never use the battery."""

    name = "idle"

    def __call__(self, sim: HubSimulation) -> int:
        return IDLE


class RandomScheduler(Scheduler):
    """Uniform random action each slot."""

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __call__(self, sim: HubSimulation) -> int:
        return int(self._rng.integers(-1, 2))


class RuleBasedScheduler(Scheduler):
    """Charge below the cheap-price quantile, discharge above the expensive one.

    Quantiles are computed over the simulation's own price trace, so the
    rule adapts to each scenario's price level without foresight of the
    specific slot ordering.
    """

    name = "rule-based"

    def __init__(
        self,
        *,
        cheap_quantile: float = 0.3,
        expensive_quantile: float = 0.7,
    ) -> None:
        if not 0.0 < cheap_quantile < expensive_quantile < 1.0:
            raise ConfigError(
                "quantiles must satisfy 0 < cheap < expensive < 1, got "
                f"({cheap_quantile}, {expensive_quantile})"
            )
        self.cheap_quantile = cheap_quantile
        self.expensive_quantile = expensive_quantile
        self._thresholds: tuple[float, float] | None = None

    def reset(self) -> None:
        self._thresholds = None

    def __call__(self, sim: HubSimulation) -> int:
        if self._thresholds is None:
            prices = sim.inputs.rtp_kwh
            self._thresholds = (
                float(np.quantile(prices, self.cheap_quantile)),
                float(np.quantile(prices, self.expensive_quantile)),
            )
        cheap, expensive = self._thresholds
        price = float(sim.inputs.rtp_kwh[sim.t])
        if price <= cheap:
            return CHARGE
        if price >= expensive:
            return DISCHARGE
        return IDLE


class GreedyRenewableScheduler(Scheduler):
    """Store renewable surplus; discharge during expensive slots."""

    name = "greedy-renewable"

    def __init__(self, *, expensive_quantile: float = 0.75) -> None:
        if not 0.0 < expensive_quantile < 1.0:
            raise ConfigError(
                f"expensive_quantile must be in (0, 1), got {expensive_quantile}"
            )
        self.expensive_quantile = expensive_quantile
        self._threshold: float | None = None

    def reset(self) -> None:
        self._threshold = None

    def __call__(self, sim: HubSimulation) -> int:
        if self._threshold is None:
            self._threshold = float(
                np.quantile(sim.inputs.rtp_kwh, self.expensive_quantile)
            )
        t = sim.t
        renewables = float(sim.inputs.pv_power_kw[t] + sim.inputs.wt_power_kw[t])
        bs_load = float(
            sim.hub.base_stations.power_kw(float(sim.inputs.load_rate[t]))
        )
        if renewables > bs_load:
            return CHARGE
        if float(sim.inputs.rtp_kwh[t]) >= self._threshold:
            return DISCHARGE
        return IDLE
