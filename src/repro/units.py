"""Unit conventions and conversions.

The library stores quantities in a single internal convention:

* power in **kW**
* energy in **kWh**
* prices in **$/kWh**
* time in **hours** (slot length ``dt_h`` is carried explicitly)

Renewable telemetry is reported in W (paper Fig. 2), so the kW → W
conversion lives here.
"""

from __future__ import annotations

#: Hours per day, used throughout the slot calendars.
HOURS_PER_DAY = 24

#: W per kW.
W_PER_KW = 1000.0


def kw_to_watts(power_kw: float) -> float:
    """Convert kilowatts to watts."""
    return float(power_kw) * W_PER_KW
