"""Compile a spec's ``pricing`` section into per-hub discount schedules.

The fleet-scale port of the paper's ECT-Price loop (§IV-A, Tables II/III):
train the spec'd discount policy on a simulated historical charging log,
score every (hub, slot) item, select the budgeted top slots per hub, and
hand :func:`~repro.spec.compiler.build` a ``(n_hubs, horizon)`` discount
plane. The compiled engine then sees both sides of the trade — the
re-realised occupancy (incentive strata respond to the discount) and the
discounted charging-price plane (``SlotPlanes.srtp_kwh``).

Feeder-aware pricing closes the loop the paper only gestures at: the
zero-discount baseline's :meth:`~repro.fleet.grid.FeederGroup.
available_import_kw` headroom becomes a per-(hub, slot) congestion penalty
subtracted from every policy's score, so discounts steer away from slots
where the feeder could not carry the extra charging load anyway.

Determinism contract: all randomness flows through name-keyed
:class:`~repro.rng.RngFactory` streams (``charging/log`` for the training
history, ``pricing/ours`` / ``pricing/{OR,IPS,DR}`` for model init) that
are disjoint from the engine's ``fleet/*`` and ``hub/*`` streams, so a
priced run's traces/strata/outages are bit-identical to the unpriced
baseline's.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from ..causal import (
    MODELS_PER_METHOD,
    EctPriceConfig,
    EctPriceModel,
    EctPricePolicy,
    EveningHeuristicPolicy,
    NcfConfig,
    OraclePolicy,
    PricingDataset,
    UpliftPolicy,
    dataset_from_log,
    discount_schedule_for_hub,
    make_baseline,
    time_ids_for_slots,
)
from ..errors import ConfigError
from ..rng import RngFactory
from .compiler import FleetAssembly, _scaled

@dataclass
class CompiledPricing:
    """One compiled pricing section: the schedule plus its provenance."""

    policy: str
    #: Per-hub discount fractions, ``(n_hubs, horizon)`` float.
    discount: np.ndarray
    #: Items in the training log (0 for the untrained oracle/evening).
    n_train_items: int
    #: Hub-slots receiving a discount.
    discounted_hub_slots: int
    #: Mean discount fraction over the whole plane.
    mean_discount: float
    #: Whether the feeder congestion penalty shaped the schedule.
    feeder_aware: bool
    #: The congestion signal used (``None`` when not feeder-aware).
    congestion: np.ndarray | None


def _span(telemetry, name: str, **fields):
    return (
        contextlib.nullcontext()
        if telemetry is None
        else telemetry.span(name, **fields)
    )


def congestion_signal(assembly: FleetAssembly) -> np.ndarray:
    """Per-(hub, slot) congestion in [0, 1] under the zero-discount baseline.

    1 means the hub's fair-share feeder headroom could not carry even one
    full-rate charging session; 0 means unconstrained. Computed from the
    same :meth:`~repro.fleet.grid.FeederGroup.available_import_kw` signal
    the congestion-aware schedulers and the RL observation feature use.
    """
    feeders = assembly.feeders
    if feeders.is_unlimited:
        return np.zeros((assembly.n_hubs, assembly.horizon))

    from ..fleet.builder import (
        fleet_inputs_from_scenarios,
        fleet_params_from_scenarios,
    )
    from ..fleet.planes import SlotPlanes

    params = fleet_params_from_scenarios(assembly.scenarios)
    planes = SlotPlanes(
        params,
        fleet_inputs_from_scenarios(
            assembly.scenarios,
            assembly.realize_occupancy(None),
            np.zeros(assembly.horizon),
            outage=assembly.outage,
        ),
    )
    available = feeders.available_import_kw(planes.base_import_kw(), 0)
    rate = np.maximum(params.cs_rate_kw, 1e-9)[:, None]
    # Unlimited slots give available=inf -> 1 - inf = -inf -> clipped to 0.
    return np.clip(1.0 - available / rate, 0.0, 1.0)


def training_dataset(assembly: FleetAssembly, train_days: int) -> PricingDataset:
    """The item dataset of ``train_days`` of the fleet's simulated
    charging history, built once per assembly.

    The log is drawn from the name-keyed ``charging/log`` stream, so a
    rebuild would give the same items: the assembly keeps the dataset
    (:attr:`~repro.spec.compiler.FleetAssembly.training_datasets`, shared
    across its rebinds) and every priced job of the fleet reuses it.
    """
    dataset = assembly.training_datasets.get(train_days)
    if dataset is None:
        log = assembly.behavior.simulate_log(train_days)
        dataset = dataset_from_log(log, n_stations=assembly.n_hubs)
        assembly.training_datasets[train_days] = dataset
    return dataset


def compile_pricing(
    assembly: FleetAssembly, *, telemetry=None
) -> CompiledPricing:
    """Train the spec'd policy and price every hub of the assembly.

    The protocol mirrors the Table III path
    (:mod:`repro.experiments.scheduling_common`): one policy trained on the
    behaviour model's historical log prices all hubs, each hub's slots are
    scored through :func:`~repro.causal.policy.discount_schedule_for_hub`
    under the spec's discount level and budget fraction. ``train_days`` and
    ``epochs`` are run-scaled like the fleet itself.
    """
    spec = assembly.spec
    pricing = spec.pricing
    if pricing.policy == "none":
        raise ConfigError(
            "compile_pricing needs a pricing policy other than 'none'"
        )
    scale = spec.run.scale
    factory = RngFactory(seed=spec.run.seed)
    time_ids = time_ids_for_slots(
        assembly.horizon, calendar=assembly.behavior.calendar
    )

    feeder_aware = pricing.feeder_aware and not assembly.feeders.is_unlimited
    congestion: np.ndarray | None = None
    offsets: np.ndarray | None = None
    if feeder_aware:
        with _span(telemetry, "pricing-congestion", hubs=assembly.n_hubs):
            congestion = congestion_signal(assembly)
        offsets = pricing.congestion_weight * congestion

    n_train_items = 0
    per_hub_policies: list | None = None
    policy = None
    if pricing.policy == "oracle":
        # Clairvoyant upper bound: each hub's policy reads its own realised
        # strata directly — no training, no log.
        strata = assembly.realize_strata()
        per_hub_policies = [
            OraclePolicy(strata[index]) for index in range(assembly.n_hubs)
        ]
    elif pricing.policy == "evening":
        policy = EveningHeuristicPolicy()
    else:
        train_days = _scaled(pricing.train_days, scale, minimum=7)
        epochs = _scaled(pricing.epochs, scale, minimum=2)
        with _span(
            telemetry,
            "pricing-train",
            policy=pricing.policy,
            train_days=train_days,
            epochs=epochs,
        ):
            train = training_dataset(assembly, train_days)
            n_train_items = len(train)
            if pricing.policy == "ours":
                model = EctPriceModel(
                    assembly.n_hubs,
                    train.n_time_ids,
                    EctPriceConfig(
                        epochs=epochs,
                        batch_size=pricing.batch_size,
                        learning_rate=pricing.learning_rate,
                    ),
                    factory.stream("pricing/ours"),
                )
                model.fit(train)
                policy = EctPricePolicy(
                    model,
                    always_avoidance_threshold=(
                        pricing.always_avoidance_threshold
                    ),
                )
            else:
                name = pricing.policy.upper()
                model = make_baseline(
                    name,
                    assembly.n_hubs,
                    train.n_time_ids,
                    NcfConfig(
                        epochs=max(epochs // MODELS_PER_METHOD[name], 1),
                        batch_size=pricing.batch_size,
                        learning_rate=pricing.learning_rate,
                    ),
                    factory.stream(f"pricing/{name}"),
                )
                model.fit(train)
                policy = UpliftPolicy(model)

    with _span(telemetry, "pricing-schedule", hubs=assembly.n_hubs):
        rows = []
        for index, scenario in enumerate(assembly.scenarios):
            hub_policy = (
                per_hub_policies[index] if per_hub_policies is not None else policy
            )
            rows.append(
                discount_schedule_for_hub(
                    hub_policy,
                    scenario.site.hub_id,
                    time_ids,
                    discount_level=pricing.discount_level,
                    budget_fraction=pricing.budget_fraction,
                    score_offset=None if offsets is None else offsets[index],
                )
            )
        discount = np.stack(rows)

    discounted_hub_slots = int((discount > 0.0).sum())
    if telemetry is not None:
        telemetry.metrics.inc("pricing.discounted_hub_slots", discounted_hub_slots)
        telemetry.metrics.inc("pricing.train_items", n_train_items)
    return CompiledPricing(
        policy=pricing.policy,
        discount=discount,
        n_train_items=n_train_items,
        discounted_hub_slots=discounted_hub_slots,
        mean_discount=float(discount.mean()),
        feeder_aware=feeder_aware,
        congestion=congestion,
    )
