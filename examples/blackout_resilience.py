"""Blackout resilience: the Eq. 6 reserve keeps base stations alive.

Demonstrates the paper's hard constraint: the battery's SoC floor is sized
so the communication function survives a grid outage of the recovery time
``T_r``. We inject an outage, watch the hub ride through it from the
reserve, then show what happens when the reserve is deliberately under-
sized.

Run:  python examples/blackout_resilience.py
"""

from __future__ import annotations

import numpy as np

from repro.config import replace
from repro.energy import BatteryConfig
from repro.energy.base_station import BaseStationCluster
from repro.fleet import FleetIdleScheduler, FleetInputs, FleetParams, FleetSimulation
from repro.hub import HubConfig, required_reserve_kwh
from repro.rng import RngFactory
from repro.synth.rtp import RtpGenerator
from repro.synth.traffic import TrafficGenerator


def run_case(soc_min_fraction: float, label: str) -> None:
    factory = RngFactory(seed=9)
    n = 48
    traffic = TrafficGenerator().generate(n, factory.stream("t"))
    prices = RtpGenerator().generate(n, factory.stream("p"), load_rate=traffic.load_rate)

    battery = replace(BatteryConfig(), soc_min_fraction=soc_min_fraction)
    hub_config = HubConfig(battery=battery, n_base_stations=2, pv=None)
    outage = np.zeros(n, dtype=bool)
    outage[20:26] = True  # six-hour outage

    # A fleet of one hub: every trace is one (1, n) row.
    inputs = FleetInputs(
        load_rate=traffic.load_rate[None],
        rtp_kwh=prices.price_kwh[None],
        pv_power_kw=np.zeros((1, n)),
        wt_power_kw=np.zeros((1, n)),
        occupied=np.zeros((1, n), dtype=int),
        discount=np.zeros((1, n)),
        outage=outage[None],
    )
    sim = FleetSimulation(
        FleetParams.from_hub_configs([hub_config]),
        inputs,
        initial_soc_fraction=soc_min_fraction,
    )
    book = sim.run(FleetIdleScheduler())

    cluster = BaseStationCluster(2)
    needed = required_reserve_kwh(cluster, 6)
    print(f"{label}:")
    print(f"  reserve held  : {battery.soc_min_kwh:6.1f} kWh "
          f"(worst-case 6 h need: {needed:.1f} kWh)")
    print(f"  unserved BS energy during outage: {book.total_unserved_kwh:.2f} kWh "
          + ("-- communication survives ✓" if book.total_unserved_kwh == 0
             else "-- SERVICE LOST ✗"))


def main() -> None:
    print("six-hour blackout, two base stations, no renewables\n")
    run_case(soc_min_fraction=0.25, label="Eq. 6-sized reserve (SoC_min = 25%)")
    print()
    run_case(soc_min_fraction=0.01, label="under-sized reserve (SoC_min = 1%)")


if __name__ == "__main__":
    main()
