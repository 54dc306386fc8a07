"""EV charging station (EVSE) parameters — Eq. 2 of the paper.

The paper models the charging station as a binary occupancy process:
``P_CS(t) = S_CS(t) · R_CS`` where ``S_CS ∈ {0, 1}`` and ``R_CS`` is the
charging rate. Revenue accrues at the selling price ``SRTP(t)`` (Eq. 11),
optionally discounted by ECT-Price.

The DC-direct design argument (§II-A: EVSE fed from the battery's DC bus
avoids rectifier losses) is not modelled: the station draws ``R_CS`` at
the bus whichever source feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class ChargingStationConfig:
    """Charging-station parameters.

    Attributes
    ----------
    rate_kw:
        ``R_CS`` — the aggregate charging rate while occupied (default two
        60 kW DC ports, which lands daily hub profit in the paper's
        Fig. 13 band of roughly $300–560).
    base_price_kwh:
        Undiscounted selling price ``SRTP`` in $/kWh (public DC fast
        charging is typically $0.30–0.50/kWh).
    """

    rate_kw: float = 120.0
    base_price_kwh: float = 0.45

    def __post_init__(self) -> None:
        if self.rate_kw <= 0:
            raise ConfigError(f"rate_kw must be positive, got {self.rate_kw}")
        if self.base_price_kwh <= 0:
            raise ConfigError(f"base_price_kwh must be positive, got {self.base_price_kwh}")
