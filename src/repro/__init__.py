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
    Physical models: batteries + degradation, PV, wind turbines, base
    stations, charging stations, grid connection.
``repro.hub``
    The ECT-Hub composition, power balance, cost model, and simulator.
``repro.fleet``
    Vectorized fleet engine: batch-step N hubs per slot (struct-of-arrays
    state), numerically equivalent to N independent hub simulations.
``repro.causal``
    ECT-Price (CF-MTL causal pricing) and the OR/IPS/DR uplift baselines.
``repro.rl``
    ECT-DRL (PPO battery scheduling), baseline schedulers, DP oracle.
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
