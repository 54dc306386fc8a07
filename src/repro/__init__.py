"""ECT-Hub: a base-station-centric energy-communication-transportation hub.

Reproduction of *"Towards Integrated Energy-Communication-Transportation
Hub: A Base-Station-Centric Design in 5G and Beyond"* (ICDCS 2024).

Subpackages
-----------
``repro.nn``
    From-scratch numpy neural-network substrate (fused passes, Adam).
``repro.synth``
    Synthetic replacements for the paper's datasets (weather, RTP,
    cellular traffic, EV charging sessions, road/BS geography).
``repro.energy``
    Physical models: battery parameters + degradation, PV, wind turbines,
    base stations, charging stations, grid connection and blackouts.
``repro.hub``
    One ECT-Hub's configuration, Eq. 6 reserve sizing, and scenario
    assembly with synthesized traces.
``repro.fleet``
    The simulation engine: batch-step N hubs per slot (struct-of-arrays
    state) through Eq. 7 and the Eqs. 8–12 accounting; one hub is the
    one-hub fleet.
``repro.causal``
    ECT-Price (CF-MTL causal pricing) and the OR/IPS/DR uplift baselines.
``repro.rl``
    ECT-DRL (PPO battery scheduling on the fleet engine), DP oracle.
``repro.spec``
    Declarative scenario layer: serializable ``ScenarioSpec`` trees,
    named presets, sweep grids, and the compiler down to the engines.
``repro.experiments``
    One runner per paper table/figure plus ablations.

Top-level modules: ``repro.api`` is the scenario facade
(``api.run("congested-city")``); ``repro.config`` the dataclass
serialization plumbing every spec builds on.
"""

__version__ = "0.1.0"

from . import config, errors, rng, timeutils, units

__all__ = ["config", "errors", "rng", "timeutils", "units", "__version__"]
