"""Quickstart: simulate one ECT-Hub for a week and print its books.

Builds an urban hub (rooftop PV, two base stations, a 120 kW charging
station, 200 kWh battery), drives it with synthetic weather / traffic /
price traces, and runs a simple rule-based battery schedule.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.fleet import FleetRuleBasedScheduler, fleet_simulation_from_scenarios
from repro.hub import ScenarioConfig, build_fleet_scenarios, fleet_behavior_model
from repro.hub.scenario import resolve_occupancy
from repro.rng import RngFactory


def main() -> None:
    factory = RngFactory(seed=42)
    config = ScenarioConfig(n_hours=24 * 7)

    # One call builds the 12-hub fleet with Eq. 6-sized batteries; we take
    # the first (urban) hub.
    scenario = build_fleet_scenarios(config, factory)[0]
    print(f"hub {scenario.site.hub_id}: {scenario.site.kind}, "
          f"PV {scenario.site.pv_kw:.0f} kW, WT {scenario.site.wt_kw:.0f} kW, "
          f"{scenario.site.n_base_stations} base stations")

    # Charging demand: latent strata realised with no discounts offered.
    behavior = fleet_behavior_model(config, factory)
    strata = behavior.sample_strata(
        scenario.site.hub_id, np.arange(scenario.n_hours), factory.stream("demo")
    )
    occupied = resolve_occupancy(strata, np.zeros(scenario.n_hours, dtype=int))

    # Simulate a week under the classic peak/off-peak battery rule, as a
    # fleet of one hub.
    sim = fleet_simulation_from_scenarios(
        [scenario], occupied, np.zeros(scenario.n_hours)
    )
    (book,) = sim.run_jobs([FleetRuleBasedScheduler()])

    print(f"\nweek summary (Eqs. 8-12):")
    print(f"  charging revenue  CR = ${book.charging_revenue:9.2f}")
    print(f"  operating cost    OC = ${book.operating_cost:9.2f}")
    print(f"  profit            Ψ  = ${book.profit:9.2f}")
    print(f"  grid energy          = {book.p_grid_kw.sum():9.1f} kWh")
    print(f"  curtailed renewables = {book.surplus_kw.sum():9.1f} kWh")
    print("\ndaily profit:", [round(r, 1) for r in book.daily_rewards()[0].tolist()])


if __name__ == "__main__":
    main()
