"""The scalar engine's side of a :class:`~repro.hub.scenario.HubScenario`.

These were the scenario's ``build_hub`` / ``inputs_with_occupancy`` /
``simulation`` methods: a fresh :class:`EctHub` for the scenario's
config, the full :class:`HubInputs` once occupancy and discounts are
decided, and both wired into a :class:`HubSimulation`.
"""

from __future__ import annotations

import numpy as np

from repro.hub.scenario import HubScenario

from .hub import EctHub
from .simulation import HubInputs, HubSimulation


def build_hub(scenario: HubScenario, *, initial_soc_fraction: float = 0.5) -> EctHub:
    """A fresh hub instance for this scenario."""
    return EctHub(scenario.hub_config, initial_soc_fraction=initial_soc_fraction)


def inputs_with_occupancy(
    scenario: HubScenario,
    occupied: np.ndarray,
    discount: np.ndarray,
    *,
    outage: np.ndarray | None = None,
) -> HubInputs:
    """Full :class:`HubInputs` once occupancy/discounts are decided."""
    return HubInputs(
        load_rate=scenario.load_rate,
        rtp_kwh=scenario.rtp_kwh,
        pv_power_kw=scenario.pv_power_kw,
        wt_power_kw=scenario.wt_power_kw,
        occupied=np.asarray(occupied, dtype=int),
        discount=np.asarray(discount, dtype=float),
        outage=outage,
    )


def scenario_simulation(
    scenario: HubScenario,
    occupied: np.ndarray,
    discount: np.ndarray,
    *,
    initial_soc_fraction: float = 0.5,
    outage: np.ndarray | None = None,
) -> HubSimulation:
    """Convenience: hub + inputs + engine in one call."""
    return HubSimulation(
        build_hub(scenario, initial_soc_fraction=initial_soc_fraction),
        inputs_with_occupancy(scenario, occupied, discount, outage=outage),
        initial_soc_fraction=initial_soc_fraction,
    )
