"""Compile a :class:`~repro.spec.scenario.ScenarioSpec` into engines.

One deterministic pipeline from data to simulation: resolve run-scale,
generate the site catalog, apply group overrides, build per-hub scenarios
(traces + Eq. 6-sized batteries), realise charging occupancy from the
latent strata, sample blackouts, wire the feeder topology, and assemble
the batched :class:`~repro.fleet.simulation.FleetSimulation` plus the
spec'd scheduler. The default spec compiles to exactly the fleet the old
imperative ``build_default_fleet`` produced — bit-for-bit, which is what
keeps the PR-1/PR-2 equivalence and determinism suites binding on this
layer too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
from dataclasses import dataclass

import numpy as np

from ..config import replace
from ..energy.grid import BlackoutConfig, BlackoutModel
from ..errors import ConfigError
from ..fleet.grid import FeederGroup
from ..fleet.schedulers import FleetScheduler, make_fleet_scheduler
from ..fleet.simulation import FleetSimulation
from ..hub.scenario import (
    HubScenario,
    ScenarioConfig,
    build_scenario,
    resolve_occupancy,
    synthesize_traces,
)
from ..rng import RngFactory
from ..synth.catalog import HubSite, default_fleet
from ..synth.charging import ChargingBehaviorModel, ChargingConfig
from ..units import HOURS_PER_DAY
from .scenario import (
    DEFAULT_DAYS,
    DEFAULT_N_HUBS,
    BlackoutSpec,
    FleetSpec,
    GridSpec,
    HubGroupSpec,
    PricingSpec,
    RlSpec,
    RunSpec,
    ScenarioSpec,
    SchedulerSpec,
)

#: Blackout intensity of the ``ect-hub fleet`` flag defaults.
DEFAULT_OUTAGE_PROBABILITY = 0.001

#: ``ect-hub train-fleet`` flag defaults (scale-1 values).
DEFAULT_TRAIN_FLEET_HUBS = 6
DEFAULT_TRAIN_FLEET_DAYS = 10

#: ``ect-hub price`` flag defaults (scale-1 values): the Table III
#: reproduction at city scale — 100 hubs, one week of pricing.
DEFAULT_PRICE_HUBS = 100
DEFAULT_PRICE_DAYS = 7
DEFAULT_PRICE_TRAIN_DAYS = 30


def _scaled(value: int, scale: float, *, minimum: int = 1) -> int:
    """Run-scale an integer knob (same rounding as experiments.base.scaled)."""
    return max(int(round(value * scale)), minimum)


@dataclass
class CompiledScenario:
    """A spec resolved into runnable engines.

    ``scenarios`` keeps the per-hub scenario objects for inspection and
    cross-checks; ``simulation`` is the batched engine with
    feeders, blackouts, and the VoLL penalty wired in (shared by every
    job of a stacked build); ``scheduler`` is the spec'd policy.
    :func:`execute_jobs` runs the horizon.
    """

    spec: ScenarioSpec
    scenarios: list[HubScenario]
    simulation: FleetSimulation
    scheduler: FleetScheduler
    n_hubs: int
    days: int
    #: Set when the spec's ``pricing`` section compiled a discount
    #: schedule (:class:`~repro.spec.pricing.CompiledPricing`).
    pricing: object | None = None


def execute_jobs(compiled: list["CompiledScenario"]):
    """Run the jobs :func:`build` compiled onto one engine — one book per
    job, in order.

    Jobs whose :class:`SchedulerSpec` is equal share one scheduler call per
    block of slots: the fleet schedulers are open-loop planners (they read
    the traces and the feeder headroom signal, never the batteries) and every
    job of a stack shares the seed, the fleet and the feeder topology, so
    equal configurations emit equal actions. Each job still gets its own
    scheduler object, reset once.
    """
    configs = [scenario.spec.scheduler for scenario in compiled]
    return compiled[0].simulation.run_jobs(
        [scenario.scheduler for scenario in compiled],
        lead=[configs.index(config) for config in configs],
    )


def _group_table(fleet: FleetSpec, scale: float) -> tuple[int, list[HubGroupSpec | None]]:
    """Resolve run-scale and expand groups into a per-hub override row."""
    if fleet.groups:
        per_hub: list[HubGroupSpec | None] = []
        for group in fleet.groups:
            per_hub.extend([group] * _scaled(group.count, scale, minimum=1))
        return len(per_hub), per_hub
    n_hubs = _scaled(fleet.resolved_n_hubs, scale, minimum=1)
    return n_hubs, [None] * n_hubs


def _apply_site_overrides(
    site: HubSite, group: HubGroupSpec | None
) -> HubSite:
    if group is None:
        return site
    changes = {
        name: getattr(group, name)
        for name in ("kind", "pv_kw", "wt_kw", "traffic_scale", "n_base_stations")
        if getattr(group, name) is not None
    }
    return dataclasses.replace(site, **changes) if changes else site


def _hub_config_for(
    base: ScenarioConfig, group: HubGroupSpec | None
) -> ScenarioConfig:
    """Per-hub ScenarioConfig once group battery/cost overrides are applied."""
    if group is None:
        return base
    config = base
    if group.battery is not None:
        config = replace(config, battery=group.battery)
    elif group.battery_scale is not None:
        scale = group.battery_scale
        battery = config.battery
        config = replace(
            config,
            battery=replace(
                battery,
                capacity_kwh=battery.capacity_kwh * scale,
                charge_rate_kw=battery.charge_rate_kw * scale,
                discharge_rate_kw=battery.discharge_rate_kw * scale,
            ),
        )
    if group.c_bp_per_slot is not None:
        config = replace(config, c_bp_per_slot=group.c_bp_per_slot)
    return config


def _build_feeders(
    grid: GridSpec,
    per_hub: list[HubGroupSpec | None],
    n_hubs: int,
    horizon: int,
) -> FeederGroup:
    if grid.n_feeders > n_hubs:
        raise ConfigError(
            f"{grid.n_feeders} feeders for {n_hubs} hubs leaves feeders empty"
        )
    assignment = np.arange(n_hubs) % grid.n_feeders
    for index, group in enumerate(per_hub):
        if group is not None and group.feeder is not None:
            if group.feeder >= grid.n_feeders:
                raise ConfigError(
                    f"group feeder {group.feeder} out of range for "
                    f"{grid.n_feeders} feeders"
                )
            assignment[index] = group.feeder
    if grid.feeder_capacity_kw is None:
        capacity = np.full(grid.n_feeders, np.inf)
    elif grid.capacity_profile is not None:
        pattern = np.asarray(grid.capacity_profile, dtype=float)
        slots = grid.feeder_capacity_kw * pattern[np.arange(horizon) % len(pattern)]
        capacity = np.broadcast_to(slots, (grid.n_feeders, horizon)).copy()
    else:
        capacity = np.full(grid.n_feeders, float(grid.feeder_capacity_kw))
    return FeederGroup(
        assignment=assignment,
        import_capacity_kw=capacity,
        policy=grid.allocation,
    )


def make_scheduler(
    scheduler: SchedulerSpec,
    *,
    n_hubs: int,
    rng_factory: RngFactory,
) -> FleetScheduler:
    """Instantiate the spec'd scheduler (quantiles None ⇒ class defaults)."""
    return make_fleet_scheduler(
        scheduler.name,
        n_hubs=n_hubs,
        rng_factory=rng_factory,
        congestion_aware=scheduler.congestion_aware,
        cheap_quantile=scheduler.cheap_quantile,
        expensive_quantile=scheduler.expensive_quantile,
    )


@dataclass
class FleetAssembly:
    """The spec-derived fleet pieces every compilation target shares.

    :func:`build` layers the occupancy realisation, batched engine, and
    scheduler on top; :func:`build_fleet_env` consumes the assembly
    directly (the RL environment re-realises occupancy per episode, so
    the full-horizon realisation and engine would be dead work there).
    All randomness is drawn from name-keyed :class:`RngFactory` streams,
    so both targets see identical scenarios/outages for one spec.

    The latent charging strata are realised lazily (:meth:`realize_strata`)
    and cached: the strata draw does not depend on the discount schedule,
    so :meth:`realize_occupancy` can resolve the *same* latent demand
    against any per-hub ``(n_hubs, horizon)`` discount plane in one
    vectorized pass — the pricing loop's injection seam.
    """

    spec: ScenarioSpec
    scenarios: list[HubScenario]
    behavior: ChargingBehaviorModel
    outage: np.ndarray | None
    feeders: "FeederGroup"
    n_hubs: int
    days: int
    horizon: int
    _strata: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False
    )
    #: Pricing training datasets by ``train_days``, filled by
    #: :mod:`repro.spec.pricing`: every priced job of one fleet trains on
    #: the same simulated charging log.
    training_datasets: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )

    def realize_strata(self) -> np.ndarray:
        """Latent strata per (hub, slot), cached — ``(n_hubs, horizon)`` int.

        Streams are name-keyed per hub (``fleet/occupancy/{hub_id}``) from
        a fresh run-seed factory, so the rows here are bit-identical to
        what the pre-refactor inline loop in :func:`build` drew — and to
        what any later caller with the same spec draws.
        """
        if self._strata is None:
            hub_ids = [scenario.site.hub_id for scenario in self.scenarios]
            self._strata = self.behavior.strata_planes(
                hub_ids,
                np.arange(self.horizon),
                RngFactory(seed=self.spec.run.seed).streams(
                    [f"fleet/occupancy/{hub_id}" for hub_id in hub_ids]
                ),
            )
        return self._strata

    def discount_rows(self, discount: np.ndarray | None) -> np.ndarray:
        """Normalize a discount schedule to ``(n_hubs, horizon)`` float.

        ``None`` means the zero-discount baseline; 1-D schedules broadcast
        across hubs; anything else must already be per-hub-per-slot.
        """
        shape = (self.n_hubs, self.horizon)
        if discount is None:
            return np.zeros(shape)
        rows = np.asarray(discount, dtype=float)
        if rows.ndim == 1:
            rows = np.broadcast_to(rows, shape).copy()
        if rows.shape != shape:
            raise ConfigError(
                f"discount schedule must have shape {shape} (or broadcast "
                f"from ({self.horizon},)), got {rows.shape}"
            )
        return rows

    def realize_occupancy(self, discount: np.ndarray | None = None) -> np.ndarray:
        """Charging occupancy under a discount schedule — one vectorized pass.

        Incentive-stratum slots charge exactly when discounted; Always
        slots charge regardless; None slots never do. Because the cached
        strata are discount-independent, re-pricing the fleet re-realises
        all hubs at numpy speed without touching the rng.
        """
        return resolve_occupancy(
            self.realize_strata(), self.discount_rows(discount) > 0.0
        )


def assemble_sites(
    spec: ScenarioSpec,
) -> tuple[list[HubSite], list[HubGroupSpec | None], FeederGroup, int, int, int]:
    """Sites + feeder topology + resolved sizes, without hub traces.

    Returns ``(sites, per_hub, feeders, n_hubs, days, horizon)`` — the
    cheap, whole-fleet part of :func:`_assemble_fleet` (site jitter is a
    single sequential ``catalog/fleet`` stream, feeders a topology
    table), computed without synthesizing a single trace.
    """
    if not isinstance(spec, ScenarioSpec):
        raise ConfigError(
            f"expected a ScenarioSpec, got {type(spec).__name__}"
        )
    run = spec.run
    n_hubs, per_hub = _group_table(spec.fleet, run.scale)
    days = _scaled(run.days, run.scale, minimum=1)
    horizon = days * HOURS_PER_DAY
    factory = RngFactory(seed=run.seed)
    sites = default_fleet(
        n_hubs, rng_factory=factory, urban_fraction=spec.fleet.urban_fraction
    )
    sites = [
        _apply_site_overrides(site, group)
        for site, group in zip(sites, per_hub)
    ]
    feeders = _build_feeders(spec.grid, per_hub, n_hubs, horizon)
    return sites, per_hub, feeders, n_hubs, days, horizon


def assembly_fingerprint(spec: ScenarioSpec) -> str:
    """Canonical JSON of exactly the spec sections the assembly consumes.

    Two specs with equal fingerprints produce bit-identical
    :class:`FleetAssembly` pieces (sites, traces, strata, outages,
    feeder topology) — scheduler/pricing/rl differences don't
    re-assemble, and neither does ``grid.allocation``, which
    :func:`build` sets on the feeders of a reused assembly. The sweep
    executor keys its per-process assembly cache on this.

    Specs are frozen, so the fingerprint is computed once per spec and
    kept on it: a sweep asks for each job's several times (stack keys,
    the assembly cache, the stacked build).
    """
    cached = spec.__dict__.get("_assembly_fingerprint")
    if cached is not None:
        return cached
    run = spec.run
    grid = {
        key: value
        for key, value in dataclasses.asdict(spec.grid).items()
        if key != "allocation"
    }
    fingerprint = json.dumps(
        {
            "fleet": dataclasses.asdict(spec.fleet),
            "grid": grid,
            "blackout": dataclasses.asdict(spec.blackout),
            "run": {key: getattr(run, key) for key in ("days", "seed", "scale")},
        },
        sort_keys=True,
    )
    object.__setattr__(spec, "_assembly_fingerprint", fingerprint)
    return fingerprint


def stack_key(spec: ScenarioSpec) -> tuple[str, str] | None:
    """The key same-fleet jobs stack on, or ``None`` for a spec that runs
    alone.

    Specs with equal keys share one :class:`FleetAssembly` (the
    :func:`assembly_fingerprint`) and one book storage mode, and differ at
    most in what rides on a stacked engine's job axis: the scheduler, the
    feeder allocation policy, the initial SoC and the VoLL. A compiled
    pricing plane gives each job its own occupancy and discounts, so
    priced specs never stack.
    """
    if spec.pricing.policy != "none":
        return None
    return assembly_fingerprint(spec), spec.run.storage


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic GC, and restore the caller's GC state on the way out.

    A compile allocates tens of thousands of long-lived, acyclic objects
    on a city fleet (two per rng stream, a few records per hub), and
    each gen-0 threshold they pass would have the collector traverse them
    again, up to a full collection. Nested pauses leave the outer one in
    charge, and a caller that already disabled the GC keeps it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def _assemble_fleet(spec: ScenarioSpec) -> FleetAssembly:
    """Resolve a spec into sites, traces, blackout masks, and feeders."""
    sites, per_hub, feeders, n_hubs, days, horizon = assemble_sites(spec)
    run = spec.run
    factory = RngFactory(seed=run.seed)
    fleet = spec.fleet
    charging = replace(
        fleet.charging if fleet.charging is not None else ChargingConfig(),
        n_stations=n_hubs,
    )
    base_config = ScenarioConfig(
        n_hours=horizon,
        recovery_time_h=spec.blackout.recovery_time_h,
        charging=charging,
        c_bp_per_slot=fleet.c_bp_per_slot,
        **{
            name: getattr(fleet, name)
            for name in ("battery", "base_station", "charging_station",
                         "weather", "traffic", "rtp")
            if getattr(fleet, name) is not None
        },
    )

    # Traces depend only on the shared config and the site, never on the
    # group's battery/cost overrides, so one plane pass serves every hub.
    planes = synthesize_traces(sites, base_config, factory)
    scenarios = [
        build_scenario(
            site,
            _hub_config_for(base_config, group),
            factory,
            traces=(planes, row),
        )
        for row, (site, group) in enumerate(zip(sites, per_hub))
    ]

    strata_scales: np.ndarray | None = None
    if any(
        group is not None
        and (group.incentive_scale is not None or group.always_scale is not None)
        for group in per_hub
    ):
        strata_scales = np.ones((n_hubs, 2))
        for index, group in enumerate(per_hub):
            if group is None:
                continue
            if group.incentive_scale is not None:
                strata_scales[index, 0] = group.incentive_scale
            if group.always_scale is not None:
                strata_scales[index, 1] = group.always_scale

    outage: np.ndarray | None = None
    if spec.blackout.outage_probability_per_hour > 0.0:
        model = BlackoutModel(
            BlackoutConfig(
                outage_probability_per_hour=spec.blackout.outage_probability_per_hour,
                recovery_time_h=spec.blackout.recovery_time_h,
            )
        )
        outage = model.sample_outage_planes(
            horizon,
            factory.streams(
                [f"fleet/outage/{scenario.site.hub_id}" for scenario in scenarios]
            ),
        )

    return FleetAssembly(
        spec=spec,
        scenarios=scenarios,
        behavior=ChargingBehaviorModel(
            base_config.charging, factory, strata_scales=strata_scales
        ),
        outage=outage,
        feeders=feeders,
        n_hubs=n_hubs,
        days=days,
        horizon=horizon,
    )


def _rebind(assembly: FleetAssembly | None, spec: ScenarioSpec) -> FleetAssembly:
    """``spec``'s assembly: a fresh one, or a cached one rebound to it."""
    if assembly is None:
        return _assemble_fleet(spec)
    if assembly.spec is spec:
        return assembly
    if assembly_fingerprint(assembly.spec) != assembly_fingerprint(spec):
        raise ConfigError(
            "cached assembly does not match this spec's "
            "fleet/grid/blackout/run sections"
        )
    rebound = dataclasses.replace(
        assembly,
        spec=spec,
        feeders=dataclasses.replace(assembly.feeders, policy=spec.grid.allocation),
    )
    # dataclasses.replace re-inits, resetting the init=False strata
    # cache — carry it over; it's discount-independent by design.
    # Realizing it on the reused assembly keeps it for the next job.
    rebound._strata = assembly.realize_strata()
    # The training datasets depend on the fleet only; sharing the dict
    # lets a dataset one job builds serve the jobs after it.
    rebound.training_datasets = assembly.training_datasets
    return rebound


def build(
    spec: ScenarioSpec | list[ScenarioSpec],
    *,
    discount: np.ndarray | None = None,
    telemetry=None,
    assembly: FleetAssembly | None = None,
):
    """Compile a spec, or a list of same-fleet specs, onto one engine.

    A single spec is the one-job case and returns one
    :class:`CompiledScenario`. A *list* returns one
    :class:`CompiledScenario` per spec, in order, over one shared engine
    that :func:`execute_jobs` runs: a one-spec list is again the one-job
    case, and a longer list must share one :func:`stack_key` (a same-fleet
    sweep group, unpriced) and steps with a leading job axis. The jobs
    share one set of params, inputs and slot planes; each has its own
    feeder policy, initial SoC, VoLL and scheduler.

    ``discount`` injects an explicit per-hub (or broadcast 1-D) discount
    schedule into a single spec, bypassing its ``pricing`` section;
    ``None`` compiles the section instead — the zero-discount baseline
    when the policy is ``"none"``, a trained policy's schedule otherwise.
    Either way the latent strata, traces, outages, and feeders are
    identical; only the occupancy/discount planes differ.

    ``assembly`` reuses a previously built :class:`FleetAssembly` instead
    of re-synthesising traces — the sweep workers' cache seam. The
    assembly must come from a spec with the same
    :func:`assembly_fingerprint` (scheduler/pricing/run-policy knobs and
    the feeder allocation policy may differ; fleet/grid topology/blackout
    and run days/seed/scale may not) or a :class:`ConfigError` is raised.
    The cached strata survive the rebind,
    so re-pricing sweeps skip both trace synthesis and the strata draw.
    """
    stacked = isinstance(spec, (list, tuple))
    specs = list(spec) if stacked else [spec]
    if stacked:
        if not specs:
            raise ConfigError("a stacked build needs at least one spec")
        if discount is not None:
            raise ConfigError("a stacked build compiles no explicit discount")
        if len(specs) > 1:
            keys = {stack_key(job) for job in specs}
            if None in keys or len(keys) != 1:
                raise ConfigError(
                    "stacked specs must share one stack_key: the same assembly "
                    "fingerprint and storage, and no pricing policy"
                )
    first = specs[0]
    assembly = _rebind(assembly, first)

    pricing_compiled = None
    if discount is None and first.pricing.policy != "none":
        # Local import: the pricing compiler pulls the causal/NCF stack,
        # which plain (unpriced) builds must not load.
        from .pricing import compile_pricing

        pricing_compiled = compile_pricing(assembly, telemetry=telemetry)
        discount = pricing_compiled.discount
    discount_rows = assembly.discount_rows(discount)

    from ..fleet.builder import fleet_simulation_from_scenarios

    # The assembly paused the GC for its own objects; the engine's are
    # built under a pause too. A pricing compile trains between the two
    # with the GC running.
    with _gc_paused():
        # One job keeps the engine state (n_hubs,); a stack broadcasts each
        # job's initial SoC over its hubs.
        soc = [job.run.initial_soc_fraction for job in specs]
        simulation = fleet_simulation_from_scenarios(
            assembly.scenarios,
            assembly.realize_occupancy(discount_rows),
            discount_rows,
            outage=assembly.outage,
            initial_soc_fraction=(
                soc[0] if len(specs) == 1 else np.array(soc)[:, None]
            ),
            # Equal stack keys leave only the feeder policy to differ between
            # the jobs' assemblies.
            feeders=[
                dataclasses.replace(assembly.feeders, policy=job.grid.allocation)
                for job in specs
            ],
            voll_per_kwh=[job.run.voll_per_kwh for job in specs],
            storage=first.run.storage,
            n_jobs=len(specs),
        )
        compiled = [
            CompiledScenario(
                spec=job,
                scenarios=assembly.scenarios,
                simulation=simulation,
                scheduler=make_scheduler(
                    job.scheduler,
                    n_hubs=assembly.n_hubs,
                    rng_factory=RngFactory(seed=job.run.seed),
                ),
                n_hubs=assembly.n_hubs,
                days=assembly.days,
                pricing=pricing_compiled,
            )
            for job in specs
        ]
    return compiled if stacked else compiled[0]


def build_fleet_env(spec: ScenarioSpec, *, rng=None):
    """Compile a spec's ``rl`` section into a batched fleet environment.

    Returns ``(assembly, env)``: the :class:`FleetAssembly` (scenarios,
    blackout masks, feeders — the same pieces :func:`build` compiles,
    minus the engine the RL path never uses) plus a
    :class:`~repro.rl.fleet_env.FleetEnv` over its scenarios. Episode
    length is clamped to the compiled horizon so run-scaled scenarios
    still train; discounts are zero (the fleet baseline — pricing-loop
    discounts are a spec follow-on). ``rng`` overrides the episode
    stream (default: the run seed's ``"rl/env"`` stream).
    """
    # Local import: repro.rl pulls the nn stack, which the spec layer
    # must not load for plain (non-RL) builds.
    from ..rl.fleet_env import EnvConfig, FleetEnv

    assembly = _assemble_fleet(spec)
    rl = spec.rl
    config = EnvConfig(
        episode_days=min(rl.episode_days, assembly.days),
        window_h=rl.window_h,
        reward_scale=rl.reward_scale,
        random_initial_soc=rl.random_initial_soc,
    )
    feeders = assembly.feeders
    env = FleetEnv(
        assembly.scenarios,
        assembly.behavior,
        np.zeros(assembly.horizon),
        config=config,
        rng=rng if rng is not None else RngFactory(seed=spec.run.seed).stream("rl/env"),
        outage=assembly.outage,
        feeders=feeders,
        voll_per_kwh=spec.run.voll_per_kwh,
        feeder_aware=rl.feeder_aware and not feeders.is_unlimited,
    )
    return assembly, env


def ppo_config_from_spec(spec: ScenarioSpec):
    """The :class:`~repro.rl.ppo.PpoConfig` a spec's ``rl`` section means."""
    from ..rl.ppo import PpoConfig

    rl = spec.rl
    return PpoConfig(
        learning_rate=rl.learning_rate,
        weight_decay=rl.weight_decay,
        gamma=rl.gamma,
        gae_lambda=rl.gae_lambda,
        clip_epsilon=rl.clip_epsilon,
        value_coef=rl.value_coef,
        entropy_coef=rl.entropy_coef,
        update_epochs=rl.update_epochs,
        batch_size=rl.batch_size,
        max_grad_norm=rl.max_grad_norm,
        hidden_sizes=rl.hidden_sizes,
    )


def spec_from_train_fleet_flags(
    *,
    scale: float = 1.0,
    seed: int = 0,
    n_hubs: int | None = None,
    days: int | None = None,
    train_episodes: int | None = None,
    eval_episodes: int | None = None,
) -> ScenarioSpec:
    """One spec per ``ect-hub train-fleet`` invocation.

    Resolves the scale-dependent defaults (6 hubs x 10 days, 40 training
    / 5 evaluation episodes at scale 1) into explicit spec values — the
    same shim pattern as :func:`spec_from_fleet_flags`, so a serialized
    train-fleet spec replays the exact run the flags meant. The PPO
    defaults lean myopic (``gamma=0.95``, light entropy) — battery
    arbitrage credit spans hours, not the 30-day episode, and the short
    smoke schedule learns measurably faster that way.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    return ScenarioSpec(
        name="train-fleet",
        description="flag-built fleet PPO training scenario",
        fleet=FleetSpec(
            n_hubs=(
                n_hubs
                if n_hubs is not None
                else _scaled(DEFAULT_TRAIN_FLEET_HUBS, scale, minimum=2)
            )
        ),
        blackout=BlackoutSpec(
            outage_probability_per_hour=DEFAULT_OUTAGE_PROBABILITY,
            recovery_time_h=4,
        ),
        run=RunSpec(
            days=(
                days
                if days is not None
                else _scaled(DEFAULT_TRAIN_FLEET_DAYS, scale, minimum=3)
            ),
            seed=seed,
        ),
        rl=RlSpec(
            episode_days=5,
            gamma=0.95,
            entropy_coef=0.005,
            train_episodes=(
                train_episodes
                if train_episodes is not None
                else _scaled(40, scale, minimum=2)
            ),
            eval_episodes=(
                eval_episodes
                if eval_episodes is not None
                else _scaled(5, scale, minimum=1)
            ),
        ),
    )


def spec_from_price_flags(
    *,
    scale: float = 1.0,
    seed: int = 0,
    n_hubs: int | None = None,
    days: int | None = None,
    train_days: int | None = None,
    epochs: int | None = None,
    discount_level: float | None = None,
    feeder_aware: bool = False,
    n_feeders: int = 1,
    feeder_capacity_kw: float | None = None,
) -> ScenarioSpec:
    """One spec per ``ect-hub price`` invocation (Table III at city scale).

    Resolves the scale-dependent defaults (100 hubs x 7 days, a 30-day
    training log at scale 1) into explicit spec values — the same shim
    pattern as :func:`spec_from_fleet_flags`, so a serialized price spec
    replays the exact run the flags meant. The base policy is ``"ours"``
    (ECT-Price); :func:`repro.api.run_pricing` sweeps ``pricing.policy``
    over the compared methods on top of this base.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    return ScenarioSpec(
        name="price",
        description="flag-built fleet pricing scenario",
        fleet=FleetSpec(
            n_hubs=(
                n_hubs
                if n_hubs is not None
                else _scaled(DEFAULT_PRICE_HUBS, scale, minimum=2)
            )
        ),
        grid=GridSpec(
            n_feeders=n_feeders,
            feeder_capacity_kw=feeder_capacity_kw,
        ),
        run=RunSpec(
            days=(
                days
                if days is not None
                else _scaled(DEFAULT_PRICE_DAYS, scale, minimum=2)
            ),
            seed=seed,
        ),
        pricing=PricingSpec(
            policy="ours",
            train_days=(
                train_days
                if train_days is not None
                else _scaled(DEFAULT_PRICE_TRAIN_DAYS, scale, minimum=7)
            ),
            epochs=(
                epochs if epochs is not None else _scaled(30, scale, minimum=2)
            ),
            discount_level=(
                discount_level if discount_level is not None else 0.2
            ),
            feeder_aware=feeder_aware,
        ),
    )


def spec_from_fleet_flags(
    *,
    scale: float = 1.0,
    seed: int = 0,
    n_hubs: int | None = None,
    days: int | None = None,
    scheduler: str = "rule-based",
    n_feeders: int = 1,
    feeder_capacity_kw: float | None = None,
    allocation: str = "proportional",
) -> ScenarioSpec:
    """The flag-shim: one spec per legacy ``ect-hub fleet`` invocation.

    Resolves the old CLI's scale-dependent defaults (24 hubs / 14 days at
    scale 1, floors of 4 and 7) into explicit spec values, so the returned
    spec — serialized or not — rebuilds exactly the run the flags meant.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    resolved_hubs = (
        n_hubs if n_hubs is not None else _scaled(DEFAULT_N_HUBS, scale, minimum=4)
    )
    resolved_days = (
        days if days is not None else _scaled(DEFAULT_DAYS, scale, minimum=7)
    )
    return ScenarioSpec(
        name="fleet",
        description="legacy flag-built fleet scenario",
        fleet=FleetSpec(n_hubs=resolved_hubs),
        grid=GridSpec(
            n_feeders=n_feeders,
            feeder_capacity_kw=feeder_capacity_kw,
            allocation=allocation,
        ),
        scheduler=SchedulerSpec(name=scheduler),
        blackout=BlackoutSpec(
            outage_probability_per_hour=DEFAULT_OUTAGE_PROBABILITY,
            recovery_time_h=4,
        ),
        run=RunSpec(days=resolved_days, seed=seed),
    )
