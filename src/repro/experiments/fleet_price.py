"""``fleet-price`` — the Table III pricing study at city scale.

The ROADMAP's city-scale pricing item: rerun the paper's discount-policy
comparison (no discount, the evening heuristic, ECT-Price, and the
OR/IPS/DR uplift baselines) over the *batched* fleet engine instead of
the scalar 10-station testbed. Every method prices the same latent
demand — one ``pricing.policy`` sweep over a shared
:class:`~repro.spec.scenario.ScenarioSpec` — and the report compares
network profit per method. Exposed on the CLI as ``ect-hub price``.

Like ``fleet``, this runner is a *flag shim*: the keyword arguments fold
into a spec whose ``pricing`` section
(:class:`~repro.spec.scenario.PricingSpec`) carries the training
protocol and discount grid, executed by :func:`repro.api.run_pricing`.
"""

from __future__ import annotations

from ..spec.compiler import spec_from_price_flags
from .base import ExperimentResult


def run(
    *,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int | None = None,
    telemetry=None,
) -> ExperimentResult:
    """Compare the default discount pricing policies over one batched fleet.

    ``scale`` shrinks the fleet, the horizon, and the training protocol
    together (floors keep a scaled-down run trainable). ``jobs`` fans the
    methods out over worker processes (byte-identical to serial).
    ``telemetry`` forwards a :class:`~repro.telemetry.session.Telemetry`
    session to ``api.run_pricing``.
    """
    # Local import: repro.api pulls experiments.base, so importing it at
    # module level would cycle through the experiment registry.
    from .. import api

    return api.run_pricing(
        spec_from_price_flags(scale=scale, seed=seed),
        jobs=jobs,
        telemetry=telemetry,
    )
