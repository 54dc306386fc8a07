"""Synthetic road network and base-station placement (paper Fig. 1).

Fig. 1 overlays Texas main roads (OpenStreetMap) with base-station locations
(OpenCelliD) to argue that BS deployment tracks the road network. Offline we
reproduce the *measurable claim*: when BS sites are placed with a
road-biased density, the fraction of stations within a given distance of a
road far exceeds the uniform-placement baseline.

The road network is a jittered grid over a square region plus a few
random "highway" edges; roads are its edges as line segments, held as an
``(m, 2)`` array of node indices. Station placement draws from a mixture:
with probability ``road_bias`` a station is sampled near a random road
point (Gaussian offset), otherwise uniformly over the region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError

#: Std-dev (km) of a road-biased station's offset from its road point.
_ROADSIDE_SPREAD_KM = 1.5


@dataclass(frozen=True)
class RoadNetworkConfig:
    """Parameters of the synthetic region.

    Attributes
    ----------
    region_km:
        Side length of the square region.
    grid_size:
        Number of grid nodes per side of the backbone road grid.
    jitter_km:
        Positional jitter applied to grid nodes (makes roads non-axial).
    extra_edge_fraction:
        Fraction of random diagonal edges added on top of the grid
        (highways cutting across the lattice).
    """

    region_km: float = 100.0
    grid_size: int = 6
    jitter_km: float = 4.0
    extra_edge_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.region_km <= 0:
            raise ConfigError(f"region_km must be positive, got {self.region_km}")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be at least 2, got {self.grid_size}")
        if self.jitter_km < 0:
            raise ConfigError("jitter_km must be non-negative")
        if not 0.0 <= self.extra_edge_fraction <= 1.0:
            raise ConfigError("extra_edge_fraction must be in [0, 1]")


@dataclass(frozen=True)
class RoadNetwork:
    """A road network: node coordinates and the edges joining them.

    ``node_xy`` is ``(n_nodes, 2)`` in km; ``edges`` is ``(m, 2)`` node
    indices, lower node first.
    """

    edges: np.ndarray
    node_xy: np.ndarray
    region_km: float

    @property
    def segments(self) -> np.ndarray:
        """(n_edges, 4) array of segment endpoints [x1, y1, x2, y2]."""
        return self.node_xy[self.edges].reshape(-1, 4)

    @property
    def total_length_km(self) -> float:
        """Total road length."""
        seg = self.segments
        return float(np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1]).sum())


def build_road_network(
    config: RoadNetworkConfig,
    rng: np.random.Generator,
) -> RoadNetwork:
    """Construct the jittered-grid road network.

    Node ``i * n + j`` sits at grid row ``i``, column ``j``. Edges are
    listed node by node from their lower node: the grid edge down, the
    grid edge right, then the extra edges in the order they were drawn; an
    extra edge that repeats an existing one is dropped. The order fixes
    which segment :func:`place_stations` samples for a given draw.
    """
    n = config.grid_size
    n_nodes = n * n
    spacing = config.region_km / (n - 1)
    row, col = np.divmod(np.arange(n_nodes), n)
    offset = rng.normal(0.0, config.jitter_km, size=(n_nodes, 2))
    node_xy = np.clip(
        np.column_stack([col * spacing, row * spacing]) + offset,
        0.0,
        config.region_km,
    )

    node = np.arange(n_nodes).reshape(n, n)
    grid = np.concatenate(
        [
            np.column_stack([node[:-1].ravel(), node[1:].ravel()]),
            np.column_stack([node[:, :-1].ravel(), node[:, 1:].ravel()]),
        ]
    )
    n_extra = int(config.extra_edge_fraction * len(grid))
    extra = np.array(
        [rng.choice(n_nodes, size=2, replace=False) for _ in range(n_extra)],
        dtype=int,
    ).reshape(n_extra, 2)
    edges = np.sort(np.concatenate([grid, extra]), axis=1)
    _, first = np.unique(edges[:, 0] * n_nodes + edges[:, 1], return_index=True)
    edges = edges[np.sort(first)]
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    return RoadNetwork(edges=edges, node_xy=node_xy, region_km=config.region_km)


def point_segment_distance(
    points: np.ndarray,
    segments: np.ndarray,
) -> np.ndarray:
    """Distance from each point to its nearest segment.

    ``points`` is (n, 2); ``segments`` is (m, 4). Returns (n,) distances.
    """
    points = np.asarray(points, dtype=float)
    segments = np.asarray(segments, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DataError(f"points must be (n, 2), got {points.shape}")
    if segments.ndim != 2 or segments.shape[1] != 4:
        raise DataError(f"segments must be (m, 4), got {segments.shape}")

    a = segments[:, :2]  # (m, 2)
    b = segments[:, 2:]  # (m, 2)
    ab = b - a
    ab_len_sq = np.maximum((ab**2).sum(axis=1), 1e-12)  # (m,)

    # Project every point on every segment: (n, m)
    ap = points[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / ab_len_sq[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    dist = np.sqrt(((points[:, None, :] - closest) ** 2).sum(axis=2))
    return dist.min(axis=1)


def place_stations(
    network: RoadNetwork,
    n_stations: int,
    rng: np.random.Generator,
    *,
    road_bias: float = 0.85,
) -> np.ndarray:
    """Sample ``n_stations`` BS coordinates, road-biased with prob ``road_bias``.

    Returns an (n_stations, 2) array. ``road_bias=0`` gives the uniform
    null model used as the comparison in the Fig. 1 experiment.
    """
    if n_stations < 0:
        raise ConfigError(f"n_stations must be non-negative, got {n_stations}")
    if not 0.0 <= road_bias <= 1.0:
        raise ConfigError(f"road_bias must be in [0, 1], got {road_bias}")

    segments = network.segments
    lengths = np.hypot(segments[:, 2] - segments[:, 0], segments[:, 3] - segments[:, 1])
    weights = lengths / lengths.sum()

    points = np.empty((n_stations, 2))
    near_road = rng.random(n_stations) < road_bias
    for index in range(n_stations):
        if near_road[index]:
            seg = segments[rng.choice(len(segments), p=weights)]
            t = rng.random()
            base = seg[:2] + t * (seg[2:] - seg[:2])
            offset = rng.normal(0.0, _ROADSIDE_SPREAD_KM, size=2)
            points[index] = np.clip(base + offset, 0.0, network.region_km)
        else:
            points[index] = rng.uniform(0.0, network.region_km, size=2)
    return points


def near_road_fraction(
    network: RoadNetwork,
    stations: np.ndarray,
    *,
    threshold_km: float = 2.0,
) -> float:
    """Fraction of stations within ``threshold_km`` of any road."""
    if len(stations) == 0:
        return 0.0
    distances = point_segment_distance(stations, network.segments)
    return float((distances <= threshold_km).mean())
