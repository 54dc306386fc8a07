"""Fig. 1 — base stations concentrate along roads (overlap statistic)."""

from __future__ import annotations

from ..rng import RngFactory
from ..synth.roads import (
    RoadNetworkConfig,
    build_road_network,
    near_road_fraction,
    place_stations,
)
from .base import ExperimentResult, scaled


def run(*, scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Near-road fraction: road-biased placement vs the uniform null model."""
    factory = RngFactory(seed=seed)
    network = build_road_network(RoadNetworkConfig(), factory.stream("fig1/roads"))
    n_stations = scaled(2000, scale, minimum=100)

    biased = place_stations(
        network, n_stations, factory.stream("fig1/biased"), road_bias=0.85
    )
    uniform = place_stations(
        network, n_stations, factory.stream("fig1/uniform"), road_bias=0.0
    )
    frac_biased = near_road_fraction(network, biased, threshold_km=2.0)
    frac_uniform = near_road_fraction(network, uniform, threshold_km=2.0)
    ratio = frac_biased / max(frac_uniform, 1e-9)

    lines = [
        f"road network: {len(network.edges)} segments, "
        f"{network.total_length_km:.0f} km over a "
        f"{network.region_km:.0f} km square",
        f"stations within 2 km of a road (road-biased placement): {frac_biased:.1%}",
        f"stations within 2 km of a road (uniform null model):    {frac_uniform:.1%}",
        f"concentration ratio: {ratio:.2f}x",
        "paper shape: BS distribution visibly tracks the road network "
        + ("✓" if ratio > 1.3 else "NOT reproduced"),
    ]
    return ExperimentResult(
        experiment_id="fig1",
        title="Road / base-station overlap (Fig. 1)",
        data={
            "near_road_biased": frac_biased,
            "near_road_uniform": frac_uniform,
            "ratio": ratio,
        },
        lines=lines,
    )
