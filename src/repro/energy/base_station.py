"""Base-station power model — Eq. 1 of the paper.

A 5G BS consists of a near-constant BBU draw plus an AAU draw that scales
with traffic (§II-B). Eq. 1 captures this as a linear ramp in the load rate
``α_t``:

``P_BS(t) = P_min + α_t · (P_max − P_min)``

(The paper's prose swaps the ``P_max``/``P_min`` labels; we follow the
formula, so ``P_min`` is the idle draw.) Defaults use the paper's 2–4 kW
single-BS range. The fleet engine evaluates the ramp for every hub at once
(:meth:`~repro.fleet.params.FleetParams.bs_power_kw`). A hub may aggregate
several co-located BSs sharing one battery point;
:class:`BaseStationCluster` carries their count and envelope for the Eq. 6
reserve sizing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class BaseStationConfig:
    """Single-BS power envelope (kW)."""

    p_min_kw: float = 2.0
    p_max_kw: float = 4.0

    def __post_init__(self) -> None:
        if self.p_min_kw < 0:
            raise ConfigError(f"p_min_kw must be non-negative, got {self.p_min_kw}")
        if self.p_max_kw <= self.p_min_kw:
            raise ConfigError(
                f"p_max_kw ({self.p_max_kw}) must exceed p_min_kw ({self.p_min_kw})"
            )


class BaseStationCluster:
    """Several co-located BSs sharing one hub battery point (Fig. 6)."""

    def __init__(self, n_stations: int, config: BaseStationConfig | None = None) -> None:
        if n_stations <= 0:
            raise ConfigError(f"n_stations must be positive, got {n_stations}")
        self.n_stations = int(n_stations)
        #: The per-station power envelope.
        self.config = config or BaseStationConfig()

    @property
    def max_power_kw(self) -> float:
        """Worst-case aggregate draw (used for reserve sizing, Eq. 6)."""
        return self.n_stations * self.config.p_max_kw
