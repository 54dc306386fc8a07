"""The declarative scenario tree: frozen, JSON-round-trippable specs.

A :class:`ScenarioSpec` fully describes one simulation — fleet composition
(with per-group heterogeneity), feeder topology and capacity, scheduler
choice, blackout process, and run shape — as *data* instead of imperative
builder calls. Specs are built on the :mod:`repro.config` plumbing, so

``spec == ScenarioSpec.from_dict(spec.to_dict())``

holds bit-for-bit, unknown keys raise :class:`~repro.errors.ConfigError`,
and a spec saved as JSON today rebuilds the exact same simulation in any
future session (``repro.api.build`` / ``repro.api.run``).

Saved specs carry a top-level ``schema_version`` (:data:`SCHEMA_VERSION`).
It is a format marker, not a spec field: ``from_dict`` upgrades older
payloads through ``_migrate`` before parsing, so a spec saved by an
earlier version still loads after a field is removed. A payload without
the marker is version 1.

Dotted-path overrides (:func:`apply_overrides`) are the update language
shared by the CLI's ``--set key=value`` flags and the sweep expander:
``{"grid.feeder_capacity_kw": 400.0}`` returns a new spec with only that
leaf changed, validation re-run at every level.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping

from .. import config
from ..energy.base_station import BaseStationConfig
from ..energy.battery import BatteryConfig
from ..energy.charging_station import ChargingStationConfig
from ..errors import ConfigError
from ..fleet.grid import ALLOCATION_POLICIES
from ..fleet.schedulers import FLEET_SCHEDULERS
from ..synth.charging import ChargingConfig
from ..synth.rtp import RtpConfig
from ..synth.traffic import TrafficConfig
from ..synth.weather import WeatherConfig
from ..telemetry import log

#: Fleet size / horizon a spec describes when left unset (the ``ect-hub
#: fleet`` defaults, so flag-built and spec-built runs agree).
DEFAULT_N_HUBS = 24
DEFAULT_DAYS = 14


@dataclass(frozen=True)
class HubGroupSpec:
    """Overrides for one contiguous group of hubs (heterogeneous fleets).

    ``count`` hubs in a row share these overrides; any field left ``None``
    keeps the generated :func:`~repro.synth.catalog.default_fleet` value,
    so a group can pin just one knob (say ``battery_scale``) while the
    rest of the site stays heterogeneous.

    ``battery`` replaces the base battery config outright (it is still
    Eq. 6-sized against the group's BS cluster); ``battery_scale``
    multiplies capacity and charge/discharge rates of the default battery
    instead — the two are mutually exclusive. ``feeder`` pins the group to
    one feeder id, overriding the round-robin assignment.

    ``incentive_scale`` / ``always_scale`` multiply the group's latent
    charging-strata probabilities (price-sensitive / habitual demand) on
    top of each station's drawn personality — the per-group knob the
    pricing loop uses to build fleets with heterogeneous discount
    responsiveness. ``None`` keeps the generated profile untouched.
    """

    count: int = 1
    kind: str | None = None
    pv_kw: float | None = None
    wt_kw: float | None = None
    traffic_scale: float | None = None
    n_base_stations: int | None = None
    battery: BatteryConfig | None = None
    battery_scale: float | None = None
    c_bp_per_slot: float | None = None
    feeder: int | None = None
    incentive_scale: float | None = None
    always_scale: float | None = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigError(f"group count must be positive, got {self.count}")
        if self.kind is not None and self.kind not in ("urban", "rural"):
            raise ConfigError(
                f"group kind must be 'urban' or 'rural', got {self.kind!r}"
            )
        for name in ("pv_kw", "wt_kw"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"group {name} must be non-negative, got {value}")
        if self.traffic_scale is not None and self.traffic_scale <= 0:
            raise ConfigError(
                f"group traffic_scale must be positive, got {self.traffic_scale}"
            )
        if self.n_base_stations is not None and self.n_base_stations <= 0:
            raise ConfigError(
                f"group n_base_stations must be positive, got {self.n_base_stations}"
            )
        if self.battery is not None and self.battery_scale is not None:
            raise ConfigError(
                "group battery and battery_scale are mutually exclusive"
            )
        if self.battery_scale is not None and self.battery_scale <= 0:
            raise ConfigError(
                f"group battery_scale must be positive, got {self.battery_scale}"
            )
        if self.c_bp_per_slot is not None and self.c_bp_per_slot < 0:
            raise ConfigError(
                f"group c_bp_per_slot must be non-negative, got {self.c_bp_per_slot}"
            )
        if self.feeder is not None and self.feeder < 0:
            raise ConfigError(
                f"group feeder must be non-negative, got {self.feeder}"
            )
        for name in ("incentive_scale", "always_scale"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value <= 0):
                raise ConfigError(
                    f"group {name} must be finite and positive, got {value}"
                )


@dataclass(frozen=True)
class FleetSpec:
    """What hubs the fleet is made of.

    ``n_hubs`` sizes a homogeneous-recipe fleet (the generated urban/rural
    mix); ``groups`` carves the fleet into override groups instead — when
    groups are present their counts define the fleet size and ``n_hubs``,
    if also given, must agree. The optional nested configs replace the
    :class:`~repro.hub.scenario.ScenarioConfig` defaults fleet-wide
    (weather regimes, traffic volumes, tariff processes, plant baselines);
    ``None`` keeps the library default.
    """

    n_hubs: int | None = None
    groups: tuple[HubGroupSpec, ...] = ()
    urban_fraction: float = 0.5
    battery: BatteryConfig | None = None
    base_station: BaseStationConfig | None = None
    charging_station: ChargingStationConfig | None = None
    weather: WeatherConfig | None = None
    traffic: TrafficConfig | None = None
    rtp: RtpConfig | None = None
    charging: ChargingConfig | None = None
    c_bp_per_slot: float = 0.01

    def __post_init__(self) -> None:
        groups = self.groups
        if not isinstance(groups, tuple):
            if not isinstance(groups, (list, tuple)):
                raise ConfigError("fleet groups must be a sequence of HubGroupSpec")
            object.__setattr__(self, "groups", tuple(groups))
            groups = self.groups
        for group in groups:
            if not isinstance(group, HubGroupSpec):
                raise ConfigError(
                    f"fleet groups must hold HubGroupSpec entries, got "
                    f"{type(group).__name__}"
                )
        if self.n_hubs is not None and self.n_hubs <= 0:
            raise ConfigError(f"n_hubs must be positive, got {self.n_hubs}")
        if groups and self.n_hubs is not None:
            total = sum(group.count for group in groups)
            if total != self.n_hubs:
                raise ConfigError(
                    f"group counts sum to {total} but n_hubs is {self.n_hubs}; "
                    "drop n_hubs or make them agree"
                )
        if not 0.0 <= self.urban_fraction <= 1.0:
            raise ConfigError(
                f"urban_fraction must be in [0, 1], got {self.urban_fraction}"
            )
        if self.c_bp_per_slot < 0:
            raise ConfigError(
                f"c_bp_per_slot must be non-negative, got {self.c_bp_per_slot}"
            )

    @property
    def resolved_n_hubs(self) -> int:
        """Fleet size before run-scale: group counts, n_hubs, or the default."""
        if self.groups:
            return sum(group.count for group in self.groups)
        return self.n_hubs if self.n_hubs is not None else DEFAULT_N_HUBS


@dataclass(frozen=True)
class GridSpec:
    """Feeder topology and import capacity (shared-grid coupling).

    ``feeder_capacity_kw=None`` keeps feeders unlimited — numerically the
    uncoupled engine, with the topology still honoured in the cost book's
    per-feeder rollups. ``capacity_profile`` is a repeating per-slot
    multiplier on ``feeder_capacity_kw`` (e.g. 24 entries for a diurnal
    derate), tiled over the horizon at compile time.
    """

    n_feeders: int = 1
    feeder_capacity_kw: float | None = None
    capacity_profile: tuple[float, ...] | None = None
    allocation: str = "proportional"

    def __post_init__(self) -> None:
        if self.n_feeders <= 0:
            raise ConfigError(f"n_feeders must be positive, got {self.n_feeders}")
        capacity = self.feeder_capacity_kw
        if capacity is not None and (math.isnan(capacity) or capacity < 0):
            raise ConfigError(
                f"feeder_capacity_kw must be non-negative, got {capacity}"
            )
        profile = self.capacity_profile
        if profile is not None:
            if not isinstance(profile, tuple):
                object.__setattr__(self, "capacity_profile", tuple(profile))
                profile = self.capacity_profile
            if self.feeder_capacity_kw is None:
                raise ConfigError(
                    "capacity_profile needs feeder_capacity_kw as its base level"
                )
            if len(profile) == 0:
                raise ConfigError("capacity_profile must not be empty")
            if any(value < 0 or value != value for value in profile):
                raise ConfigError(
                    "capacity_profile entries must be non-negative numbers"
                )
        if self.allocation not in ALLOCATION_POLICIES:
            raise ConfigError(
                f"unknown allocation policy {self.allocation!r}; "
                f"available: {', '.join(ALLOCATION_POLICIES)}"
            )


@dataclass(frozen=True)
class SchedulerSpec:
    """Which battery policy drives the fleet, plus its knobs.

    Quantiles left ``None`` inherit each scheduler class's own default
    (0.3/0.7 for rule-based, 0.75 for greedy-renewable), so a bare
    ``SchedulerSpec(name=...)`` is behaviour-identical to the named
    scheduler built by :func:`~repro.fleet.schedulers.make_fleet_scheduler`.
    """

    name: str = "rule-based"
    cheap_quantile: float | None = None
    expensive_quantile: float | None = None
    congestion_aware: bool = True

    #: Which quantile knobs each scheduler actually consumes; setting any
    #: other combination is rejected so a spec never silently differs from
    #: the run it produces.
    _QUANTILE_KNOBS = {
        "idle": (),
        "random": (),
        "rule-based": ("cheap_quantile", "expensive_quantile"),
        "greedy-renewable": ("expensive_quantile",),
    }

    def __post_init__(self) -> None:
        if self.name not in FLEET_SCHEDULERS:
            raise ConfigError(
                f"unknown fleet scheduler {self.name!r}; "
                f"available: {', '.join(FLEET_SCHEDULERS)}"
            )
        allowed = self._QUANTILE_KNOBS.get(self.name, ())
        for label in ("cheap_quantile", "expensive_quantile"):
            value = getattr(self, label)
            if value is None:
                continue
            if label not in allowed:
                raise ConfigError(
                    f"scheduler {self.name!r} does not take {label}"
                )
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{label} must be in (0, 1), got {value}")
        if (
            self.cheap_quantile is not None
            and self.expensive_quantile is not None
            and self.cheap_quantile >= self.expensive_quantile
        ):
            raise ConfigError(
                "cheap_quantile must be below expensive_quantile, got "
                f"({self.cheap_quantile}, {self.expensive_quantile})"
            )


@dataclass(frozen=True)
class BlackoutSpec:
    """The grid outage process hubs must ride through."""

    outage_probability_per_hour: float = 0.0
    recovery_time_h: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage_probability_per_hour <= 1.0:
            raise ConfigError(
                f"outage_probability_per_hour must be in [0, 1], got "
                f"{self.outage_probability_per_hour}"
            )
        if self.recovery_time_h < 0:
            raise ConfigError(
                f"recovery_time_h must be non-negative, got {self.recovery_time_h}"
            )


#: Discount policies the pricing section may name. ``none`` keeps the
#: zero-discount baseline; ``ours`` is ECT-Price (CF-MTL); ``oracle`` is
#: the clairvoyant upper bound; ``evening`` is the operators' heuristic
#: (discount 18:00–24:00, the logging policy's rule); ``or``/``ips``/``dr``
#: are the uplift baselines.
PRICING_POLICIES = ("none", "ours", "oracle", "evening", "or", "ips", "dr")


@dataclass(frozen=True)
class PricingSpec:
    """The ECT-Price section: which discount policy prices the fleet.

    Compiled by :func:`~repro.spec.pricing.compile_pricing` into a per-hub
    ``(n_hubs, horizon)`` discount schedule: a policy is trained on a
    simulated historical charging log (``train_days`` days, run-scaled),
    each hub's slots are scored, and the top ``budget_fraction`` of slots
    with positive expected reward receive ``discount_level`` — the
    Table II/III protocol at fleet scale. The schedule re-realises
    charging occupancy (incentive strata respond to the discount) and
    discounts the charging price plane, so Eq. 12 profit sees both sides
    of the trade.

    ``feeder_aware=True`` closes the pricing↔congestion loop: the
    zero-discount baseline's :meth:`~repro.fleet.grid.FeederGroup.
    available_import_kw` headroom becomes a per-(hub, slot) congestion
    penalty (weighted by ``congestion_weight``) subtracted from every
    policy's score, steering discounts away from slots where the feeder
    could not serve the extra charging load anyway. With unlimited
    feeders the penalty is identically zero.
    """

    policy: str = "none"
    discount_level: float = 0.2
    budget_fraction: float = 0.195
    train_days: int = 60
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.01
    always_avoidance_threshold: float = 0.5
    feeder_aware: bool = False
    congestion_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.policy not in PRICING_POLICIES:
            raise ConfigError(
                f"unknown pricing policy {self.policy!r}; "
                f"available: {', '.join(PRICING_POLICIES)}"
            )
        if not 0.0 <= self.discount_level < 1.0:
            raise ConfigError(
                f"pricing discount_level must be in [0, 1), got "
                f"{self.discount_level}"
            )
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ConfigError(
                f"pricing budget_fraction must be in (0, 1], got "
                f"{self.budget_fraction}"
            )
        for name in ("train_days", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"pricing {name} must be positive, got {getattr(self, name)}"
                )
        if not (
            math.isfinite(self.learning_rate) and self.learning_rate > 0
        ):
            raise ConfigError(
                f"pricing learning_rate must be positive, got "
                f"{self.learning_rate}"
            )
        if not 0.0 < self.always_avoidance_threshold <= 1.0:
            raise ConfigError(
                f"pricing always_avoidance_threshold must be in (0, 1], got "
                f"{self.always_avoidance_threshold}"
            )
        if not math.isfinite(self.congestion_weight) or self.congestion_weight < 0:
            raise ConfigError(
                f"pricing congestion_weight must be finite and non-negative, "
                f"got {self.congestion_weight}"
            )


@dataclass(frozen=True)
class RlSpec:
    """The ECT-DRL training section: environment shape + PPO knobs.

    Compiled by :func:`~repro.spec.compiler.build_fleet_env` into a
    batched :class:`~repro.rl.fleet_env.FleetEnv` (episode/window shape,
    reward scaling, feeder-aware observations) plus a
    :class:`~repro.rl.ppo.PpoConfig`; ``train_episodes`` /
    ``eval_episodes`` size the ``train-fleet`` schedule before run-scale.
    ``episode_days`` is clamped to the compiled horizon, so a
    run-scaled-down scenario still trains (on shorter episodes).
    ``feeder_aware`` appends the normalised ``available_import_kw``
    observation feature whenever the grid section is capacity-limited.
    """

    episode_days: int = 7
    window_h: int = 24
    reward_scale: float = 10.0
    random_initial_soc: bool = True
    feeder_aware: bool = True
    train_episodes: int = 40
    eval_episodes: int = 5
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    update_epochs: int = 4
    batch_size: int = 64
    max_grad_norm: float = 0.5
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        # The PPO bounds here deliberately mirror PpoConfig's __post_init__
        # (keep them in sync): the spec layer must reject bad values with
        # ConfigError at construction, and cannot import repro.rl (the nn
        # stack) just to validate — plain spec builds stay lightweight.
        for name in ("episode_days", "window_h", "train_episodes",
                     "eval_episodes", "update_epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"rl {name} must be positive, got {getattr(self, name)}"
                )
        for name in ("reward_scale", "learning_rate", "max_grad_norm"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(f"rl {name} must be positive and finite, got {value}")
        for name in ("weight_decay", "value_coef", "entropy_coef"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(
                    f"rl {name} must be non-negative and finite, got {value}"
                )
        if not 0.0 < self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError(
                f"rl gamma/gae_lambda invalid: ({self.gamma}, {self.gae_lambda})"
            )
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigError(
                f"rl clip_epsilon must be in (0, 1), got {self.clip_epsilon}"
            )
        sizes = self.hidden_sizes
        if not isinstance(sizes, tuple):
            object.__setattr__(self, "hidden_sizes", tuple(sizes))
            sizes = self.hidden_sizes
        if not sizes or any(
            not isinstance(s, int) or isinstance(s, bool) or s <= 0
            for s in sizes
        ):
            raise ConfigError(
                f"rl hidden_sizes must be positive integers, got {sizes!r}"
            )


#: Cost-book storage layouts (mirrors ``repro.fleet.costs.STORAGE_MODES``;
#: kept local so plain spec builds stay engine-import-free).
STORAGE_MODES = ("dense", "windowed")


@dataclass(frozen=True)
class RunSpec:
    """Horizon, seed, scale, and run-level economics.

    ``scale`` multiplies the fleet size and horizon at compile time (the
    experiment-wide fidelity/runtime dial); ``voll_per_kwh`` is the
    value-of-lost-load penalty — Eq. 12 profit charges every unserved kWh
    at this rate, so reliability failures are monetized instead of free.
    ``days`` (>= 1) and ``seed`` (>= 0) must be integers; numpy integers
    are accepted and stored as ``int``.

    ``storage="windowed"`` folds the cost book into running aggregates
    so memory stops scaling with the horizon (aggregates agree with
    dense at atol 1e-9).
    """

    days: int = DEFAULT_DAYS
    seed: int = 0
    scale: float = 1.0
    initial_soc_fraction: float = 0.5
    voll_per_kwh: float = 0.0
    storage: str = "dense"

    def __post_init__(self) -> None:
        for name, minimum in (("days", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
                    or value < minimum:
                raise ConfigError(
                    f"{name} must be an integer >= {minimum}, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if self.storage not in STORAGE_MODES:
            raise ConfigError(
                f"unknown run storage {self.storage!r}; "
                f"available: {', '.join(STORAGE_MODES)}"
            )
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ConfigError(f"scale must be finite and positive, got {self.scale}")
        if not 0.0 <= self.initial_soc_fraction <= 1.0:
            raise ConfigError(
                f"initial_soc_fraction must be in [0, 1], got "
                f"{self.initial_soc_fraction}"
            )
        if not math.isfinite(self.voll_per_kwh) or self.voll_per_kwh < 0:
            raise ConfigError(
                f"voll_per_kwh must be finite and non-negative, got "
                f"{self.voll_per_kwh}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable scenario description.

    >>> spec = ScenarioSpec(name="demo")
    >>> ScenarioSpec.from_dict(spec.to_dict()) == spec
    True
    """

    name: str = "scenario"
    description: str = ""
    fleet: FleetSpec = field(default_factory=FleetSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    blackout: BlackoutSpec = field(default_factory=BlackoutSpec)
    run: RunSpec = field(default_factory=RunSpec)
    rl: RlSpec = field(default_factory=RlSpec)
    pricing: PricingSpec = field(default_factory=PricingSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be a non-empty string")

    # ------------------------------------------------------------------ #
    # Serialization (the config.to_dict/from_dict plumbing)                #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Plain dict/list/scalar form (JSON-safe), stamped with the schema."""
        return {"schema_version": SCHEMA_VERSION, **config.to_dict(self)}

    def to_json(self, *, indent: int = 2) -> str:
        """Canonical JSON text (sorted keys, stable across runs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec (older schemas are migrated first); unknown keys
        raise :class:`ConfigError`."""
        return config.from_dict(cls, _migrate(payload))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path) -> None:
        """Write the spec as JSON."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        """Load a spec JSON file written by :meth:`save` (or by hand)."""
        return cls.from_dict(config.read_json(path))

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A new spec with dotted-path leaves replaced (see module docs)."""
        return apply_overrides(self, overrides)


# --------------------------------------------------------------------- #
# Schema versions                                                         #
# --------------------------------------------------------------------- #

#: The saved-spec format :meth:`ScenarioSpec.to_dict` writes.
SCHEMA_VERSION = 4

#: Spec fields each schema version removed, as dotted paths keyed by that
#: version. Loading an older payload drops them with one deprecation
#: warning. Version 2 removed ``RunSpec.backend``, the array-backend knob
#: (numpy is the only engine); version 3 removed ``RunSpec.shards`` (one
#: scenario always runs in one process); version 4 removed the charging
#: station's two delivery efficiencies, which no equation read.
_REMOVED_FIELDS = {
    2: ("run.backend",),
    3: ("run.shards",),
    4: (
        "fleet.charging_station.dc_path_efficiency",
        "fleet.charging_station.ac_path_efficiency",
    ),
}


def _pop_schema_version(payload: dict[str, Any]) -> int:
    """Remove and validate a payload's ``schema_version`` (absent means 1)."""
    version = payload.pop("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise ConfigError(
            f"spec schema_version must be a positive integer, got {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise ConfigError(
            f"spec schema_version {version} is newer than this code's "
            f"schema_version {SCHEMA_VERSION}"
        )
    return version


def _removed_since(version: int) -> list[str]:
    """The field paths a payload saved at ``version`` may still carry."""
    return [
        path
        for removed_in, paths in _REMOVED_FIELDS.items()
        if removed_in > version
        for path in paths
    ]


def _drop_removed_fields(
    spec_payload: dict[str, Any], removed: list[str]
) -> list[str]:
    """Drop removed fields from a spec payload in place; returns their paths.

    Every nested dict on a removed field's path is replaced by a copy, so
    the dicts the payload shares with the caller's input stay untouched.
    """
    dropped = []
    for path in removed:
        *sections, name = path.split(".")
        node = spec_payload
        for section in sections:
            child = node.get(section)
            if not isinstance(child, dict):
                break
            child = dict(child)
            node[section] = child
            node = child
        else:
            if name in node:
                del node[name]
                dropped.append(path)
    return dropped


def _warn_dropped(version: int, dropped: list[str]) -> None:
    """The one deprecation warning a migrated payload logs."""
    if dropped:
        log.warning(
            f"spec schema_version {version} is deprecated: dropped the "
            f"removed field(s) {', '.join(sorted(set(dropped)))}; re-save "
            f"the spec to upgrade it to schema_version {SCHEMA_VERSION}"
        )


def _migrate(payload: Any) -> Any:
    """Upgrade a saved :class:`ScenarioSpec` payload to :data:`SCHEMA_VERSION`.

    Returns a copy without the ``schema_version`` marker (the input is
    not mutated); non-dict payloads pass through for ``from_dict`` to
    reject. A newer version than this code knows raises ConfigError.
    """
    if not isinstance(payload, dict):
        return payload
    payload = dict(payload)
    version = _pop_schema_version(payload)
    _warn_dropped(
        version, _drop_removed_fields(payload, _removed_since(version))
    )
    return payload


# --------------------------------------------------------------------- #
# Dotted-path overrides                                                   #
# --------------------------------------------------------------------- #


def _coerce(current: Any, value: Any) -> Any:
    """Make ``--set grid.feeder_capacity_kw=400`` mean the float 400.0."""
    if isinstance(current, float) and isinstance(value, int) and not isinstance(
        value, bool
    ):
        return float(value)
    return value


def _coerce_field(node: Any, name: str, value: Any) -> Any:
    """Leaf coercion: dict/list payloads rebuild nested configs, ints widen."""
    converted = config.convert_field_value(type(node), name, value)
    return _coerce(getattr(node, name), converted)


def _set_path(node: Any, segments: list[str], value: Any, full_key: str) -> Any:
    head = segments[0]
    if isinstance(node, tuple):
        if not head.lstrip("-").isdigit():
            raise ConfigError(
                f"override {full_key!r}: expected a tuple index, got {head!r}"
            )
        index = int(head)
        if not 0 <= index < len(node):
            raise ConfigError(
                f"override {full_key!r}: index {index} out of range for a "
                f"tuple of length {len(node)}"
            )
        if len(segments) == 1:
            current = node[index]
            if (
                isinstance(value, dict)
                and is_dataclass(current)
                and not isinstance(current, type)
            ):
                replacement = config.from_dict(type(current), value)
            else:
                replacement = _coerce(current, value)
        else:
            replacement = _set_path(node[index], segments[1:], value, full_key)
        return node[:index] + (replacement,) + node[index + 1 :]
    if not is_dataclass(node) or isinstance(node, type):
        raise ConfigError(
            f"override {full_key!r}: {head!r} cannot be reached inside a "
            f"{type(node).__name__}"
        )
    valid = {spec.name for spec in fields(node)}
    if head not in valid:
        raise ConfigError(
            f"override {full_key!r}: unknown key {head!r} for "
            f"{type(node).__name__}; valid keys: {sorted(valid)}"
        )
    if len(segments) == 1:
        return config.replace(node, **{head: _coerce_field(node, head, value)})
    child = _set_path(getattr(node, head), segments[1:], value, full_key)
    return config.replace(node, **{head: child})


def apply_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, Any]
) -> ScenarioSpec:
    """Apply dotted-path overrides, re-validating every touched level.

    Keys address leaves through the spec tree (``run.seed``,
    ``grid.feeder_capacity_kw``, ``fleet.groups.0.battery_scale``); values
    replace the leaf as-is (ints are widened to float where the current
    value is a float). Unknown keys and out-of-range indices raise
    :class:`ConfigError`.
    """
    for key, value in overrides.items():
        if not key:
            raise ConfigError("override keys must be non-empty dotted paths")
        spec = _set_path(spec, key.split("."), value, key)
    return spec


def parse_override_value(text: str) -> Any:
    """``--set`` value syntax: JSON where it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_assignments(pairs: list[str]) -> dict[str, Any]:
    """Parse ``KEY=VALUE`` strings (the CLI's ``--set``) into an override map."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(
                f"override {pair!r} must look like key.path=value"
            )
        overrides[key] = parse_override_value(raw)
    return overrides
