"""Named presets: the 12-station / 12-hub fleet used throughout the paper.

The paper's evaluation uses twelve campus charging stations (Table III
reports twelve hubs). This module pins down a reproducible fleet: each hub
pairs one charging station with a site profile (urban rooftop-PV vs rural
PV+WT, per the paper's Fig. 6 discussion of urban/rural deployment).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..rng import RngFactory

#: Fleet size used in the paper's evaluation.
DEFAULT_FLEET_SIZE = 12


@dataclass(frozen=True)
class HubSite:
    """Site-level description of one ECT-Hub.

    This is a lightweight record consumed by :mod:`repro.hub.scenario`,
    which expands it into full equipment configs.

    Attributes
    ----------
    hub_id:
        Fleet index, also the paired charging-station id.
    kind:
        ``"urban"`` (rooftop PV only, denser traffic) or ``"rural"``
        (PV + wind turbine, lighter traffic).
    pv_kw:
        Rated PV capacity (0 disables PV).
    wt_kw:
        Rated wind-turbine capacity (0 disables WT).
    traffic_scale:
        Multiplier on the traffic generator's volume (urban > rural).
    n_base_stations:
        Number of co-located BSs sharing the hub's battery point.
    """

    hub_id: int
    kind: str
    pv_kw: float
    wt_kw: float
    traffic_scale: float
    n_base_stations: int

    def __post_init__(self) -> None:
        if self.hub_id < 0:
            raise ConfigError(f"hub_id must be non-negative, got {self.hub_id}")
        if self.kind not in ("urban", "rural"):
            raise ConfigError(f"kind must be 'urban' or 'rural', got {self.kind!r}")
        if self.pv_kw < 0 or self.wt_kw < 0:
            raise ConfigError("pv_kw and wt_kw must be non-negative")
        if self.traffic_scale <= 0:
            raise ConfigError("traffic_scale must be positive")
        if self.n_base_stations <= 0:
            raise ConfigError("n_base_stations must be positive")


def default_fleet(
    n_hubs: int = DEFAULT_FLEET_SIZE,
    *,
    rng_factory: RngFactory | None = None,
    urban_fraction: float = 0.5,
) -> list[HubSite]:
    """The reproducible hub fleet.

    Even-indexed hubs are urban (rooftop PV, heavier traffic, 2–3 BSs);
    odd-indexed hubs are rural (PV + WT, lighter traffic, 1–2 BSs), with
    mild seeded jitter on plant sizes so hubs are heterogeneous like the
    paper's Table III rows.
    """
    if n_hubs <= 0:
        raise ConfigError(f"n_hubs must be positive, got {n_hubs}")
    if not 0.0 <= urban_fraction <= 1.0:
        raise ConfigError(f"urban_fraction must be in [0, 1], got {urban_fraction}")

    factory = rng_factory or RngFactory(seed=0)
    rng = factory.stream("catalog/fleet")
    n_urban = int(round(urban_fraction * n_hubs))

    # Each jitter draw is a Python float clipped with min/max: bit for bit
    # what ``float(np.clip(draw, lo, hi))`` gives a finite draw, at a
    # tenth of the cost per draw. The normal and integer draws interleave
    # on one stream, so they stay one at a time.
    normal, integers = rng.normal, rng.integers
    sites: list[HubSite] = []
    for hub_id in range(n_hubs):
        urban = hub_id < n_urban if n_urban else False
        # Interleave urban/rural so small fleets still mix both kinds.
        urban = (hub_id % 2 == 0) if 0 < n_urban < n_hubs else urban
        if urban:
            sites.append(
                HubSite(
                    hub_id=hub_id,
                    kind="urban",
                    pv_kw=min(max(normal(20.0, 4.0), 8.0), 35.0),
                    wt_kw=0.0,
                    traffic_scale=min(max(normal(1.2, 0.15), 0.8), 1.6),
                    n_base_stations=int(integers(2, 4)),
                )
            )
        else:
            sites.append(
                HubSite(
                    hub_id=hub_id,
                    kind="rural",
                    pv_kw=min(max(normal(30.0, 6.0), 10.0), 50.0),
                    wt_kw=min(max(normal(25.0, 6.0), 8.0), 45.0),
                    traffic_scale=min(max(normal(0.7, 0.1), 0.4), 1.0),
                    n_base_stations=int(integers(1, 3)),
                )
            )
    return sites
