"""Synthetic road network and base-station placement (paper Fig. 1).

Fig. 1 overlays Texas main roads (OpenStreetMap) with base-station locations
(OpenCelliD) to argue that BS deployment tracks the road network. Offline we
reproduce the *measurable claim*: when BS sites are placed with a
road-biased density, the fraction of stations within a given distance of a
road far exceeds the uniform-placement baseline.

The road network is a jittered grid graph (networkx) over a square region;
roads are the graph's edges as line segments. Station placement draws from
a mixture: with probability ``road_bias`` a station is sampled near a random
road point (Gaussian offset), otherwise uniformly over the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, DataError

if TYPE_CHECKING:
    import networkx as nx


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
    """A road network: a graph plus the geometry of its segments."""

    graph: nx.Graph
    node_xy: dict[int, tuple[float, float]]
    region_km: float

    @property
    def segments(self) -> np.ndarray:
        """(n_edges, 4) array of segment endpoints [x1, y1, x2, y2]."""
        rows = []
        for u, v in self.graph.edges():
            x1, y1 = self.node_xy[u]
            x2, y2 = self.node_xy[v]
            rows.append((x1, y1, x2, y2))
        return np.asarray(rows, dtype=float)

    @property
    def total_length_km(self) -> float:
        """Total road length."""
        seg = self.segments
        return float(np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1]).sum())


def build_road_network(
    config: RoadNetworkConfig,
    rng: np.random.Generator,
) -> RoadNetwork:
    """Construct the jittered-grid road network."""
    # Local import: only fig1 builds a road graph, so importing the
    # package must not load networkx.
    import networkx as nx

    n = config.grid_size
    spacing = config.region_km / (n - 1)
    graph = nx.grid_2d_graph(n, n)
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")

    node_xy: dict[int, tuple[float, float]] = {}
    for node, (i, j) in enumerate(sorted((i, j) for i in range(n) for j in range(n))):
        x = j * spacing + rng.normal(0.0, config.jitter_km)
        y = i * spacing + rng.normal(0.0, config.jitter_km)
        node_xy[node] = (
            float(np.clip(x, 0.0, config.region_km)),
            float(np.clip(y, 0.0, config.region_km)),
        )

    n_extra = int(config.extra_edge_fraction * graph.number_of_edges())
    nodes = list(graph.nodes())
    for _ in range(n_extra):
        u, v = rng.choice(nodes, size=2, replace=False)
        graph.add_edge(int(u), int(v))

    return RoadNetwork(graph=graph, node_xy=node_xy, region_km=config.region_km)


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
    roadside_spread_km: float = 1.5,
) -> np.ndarray:
    """Sample ``n_stations`` BS coordinates, road-biased with prob ``road_bias``.

    Returns an (n_stations, 2) array. ``road_bias=0`` gives the uniform
    null model used as the comparison in the Fig. 1 experiment.
    """
    if n_stations < 0:
        raise ConfigError(f"n_stations must be non-negative, got {n_stations}")
    if not 0.0 <= road_bias <= 1.0:
        raise ConfigError(f"road_bias must be in [0, 1], got {road_bias}")
    if roadside_spread_km < 0:
        raise ConfigError("roadside_spread_km must be non-negative")

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
            offset = rng.normal(0.0, roadside_spread_km, size=2)
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
