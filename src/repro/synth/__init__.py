"""``repro.synth`` — synthetic replacements for the paper's datasets.

Each generator substitutes one external/proprietary data source (see
DESIGN.md §2 for the substitution table): solar + wind (NSRDB), real-time
prices (ENGIE), cellular traffic (city-scale traces), EV charging sessions
with latent causal strata (the proprietary campus dataset), and the road/BS
geography of Fig. 1.
"""

from .catalog import DEFAULT_FLEET_SIZE, HubSite, default_fleet
from .charging import (
    ChargingBehaviorModel,
    ChargingConfig,
    ChargingLog,
    Stratum,
)
from .roads import (
    RoadNetwork,
    RoadNetworkConfig,
    build_road_network,
    near_road_fraction,
    place_stations,
    point_segment_distance,
)
from .rtp import PriceTrace, RtpConfig, RtpGenerator
from .solar import SolarConfig, clear_sky_ghi, generate_irradiance
from .traffic import TrafficConfig, TrafficGenerator, TrafficTrace
from .weather import WeatherConfig, WeatherGenerator, WeatherTrace
from .wind import WindConfig, generate_wind_speed

__all__ = [
    "DEFAULT_FLEET_SIZE",
    "ChargingBehaviorModel",
    "ChargingConfig",
    "ChargingLog",
    "HubSite",
    "PriceTrace",
    "RoadNetwork",
    "RoadNetworkConfig",
    "RtpConfig",
    "RtpGenerator",
    "SolarConfig",
    "Stratum",
    "TrafficConfig",
    "TrafficGenerator",
    "TrafficTrace",
    "WeatherConfig",
    "WeatherGenerator",
    "WeatherTrace",
    "WindConfig",
    "build_road_network",
    "clear_sky_ghi",
    "default_fleet",
    "generate_irradiance",
    "generate_wind_speed",
    "near_road_fraction",
    "place_stations",
    "point_segment_distance",
]
