"""``fleet`` — network-scale scheduling over the batched fleet engine.

Beyond the paper's 12-hub evaluation: simulate an arbitrary-size fleet of
heterogeneous urban/rural hubs in one :class:`~repro.fleet.FleetSimulation`
run, reporting per-hub Eq. 12 profit and the network totals the Fig. 6
"hub network" vision implies. Exposed on the CLI as
``ect-hub fleet --n-hubs 200``.

Since the spec layer landed this runner is the *flag shim*: the keyword
arguments are folded into a :class:`~repro.spec.scenario.ScenarioSpec`
(:func:`~repro.spec.compiler.spec_from_fleet_flags`) and executed by
:func:`repro.api.run`, so a flag-built run and its serialized-spec twin
are the same run.
"""

from __future__ import annotations

from ..spec.compiler import DEFAULT_OUTAGE_PROBABILITY, spec_from_fleet_flags
from ..spec.scenario import DEFAULT_DAYS, DEFAULT_N_HUBS
from .base import ExperimentResult

__all__ = [
    # Re-exported from the spec layer, which owns the flag defaults now.
    "DEFAULT_DAYS",
    "DEFAULT_N_HUBS",
    "DEFAULT_OUTAGE_PROBABILITY",
    "run",
]


def run(*, scale: float = 1.0, seed: int = 0, telemetry=None) -> ExperimentResult:
    """Batch-simulate the flag-default fleet and aggregate per-hub +
    network economics.

    ``telemetry`` forwards a :class:`~repro.telemetry.session.Telemetry`
    session to ``api.run``. ``ect-hub fleet`` sets the fleet size,
    scheduler and feeders through :func:`spec_from_fleet_flags`.
    """
    # Local import: repro.api pulls experiments.base, so importing it at
    # module level would cycle through the experiment registry.
    from .. import api

    return api.run(spec_from_fleet_flags(scale=scale, seed=seed), telemetry=telemetry)
