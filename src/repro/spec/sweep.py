"""Sweeps: one base spec × a parameter grid ⇒ runnable jobs.

A :class:`SweepSpec` is itself serializable data — a base
:class:`~repro.spec.scenario.ScenarioSpec` plus a mapping of dotted
override paths to value lists. :meth:`SweepSpec.jobs` expands the
cartesian product into concrete :class:`SweepJob` entries (later keys
vary fastest, like nested loops in declaration order), each carrying the
fully-overridden spec ready for ``repro.api.run``. This is the engine
behind ``ect-hub sweep`` and the refactored ``fleet-grid`` congestion
study.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .. import config
from ..errors import ConfigError
from .scenario import (
    SCHEMA_VERSION,
    ScenarioSpec,
    _drop_removed_fields,
    _pop_schema_version,
    _removed_since,
    _warn_dropped,
    apply_overrides,
)


@dataclass(frozen=True)
class SweepJob:
    """One expanded point of a sweep grid."""

    index: int
    overrides: dict[str, Any]
    spec: ScenarioSpec

    def label(self) -> str:
        """Compact ``key=value`` summary of this point."""
        return ", ".join(f"{key}={value}" for key, value in self.overrides.items())


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario and the parameter grid to expand over it.

    ``parameters`` maps dotted override paths to the values each takes;
    declaration order defines the loop nesting. Every path and every
    value is validated against the base spec at construction, so a
    typo'd key or a bad value fails here — not after half the grid has
    run (or after :meth:`save` has persisted it).
    """

    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    parameters: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    name: str = "sweep"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("sweep name must be a non-empty string")
        if not isinstance(self.parameters, Mapping):
            raise ConfigError("sweep parameters must map dotted keys to values")
        normalized: dict[str, tuple[Any, ...]] = {}
        for key, values in self.parameters.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigError(
                    f"sweep parameter {key!r} must list its values, got "
                    f"{type(values).__name__}"
                )
            if len(values) == 0:
                raise ConfigError(f"sweep parameter {key!r} has no values")
            normalized[key] = tuple(values)
            # Validate the path and every value against the base now: the
            # cost is the sum of the axis lengths, not the grid size.
            for value in normalized[key]:
                apply_overrides(self.base, {key: value})
        object.__setattr__(self, "parameters", normalized)

    @property
    def n_jobs(self) -> int:
        """Grid size (1 when the parameter map is empty: just the base)."""
        total = 1
        for values in self.parameters.values():
            total *= len(values)
        return total

    def jobs(self) -> list[SweepJob]:
        """Expand the grid into fully-overridden, runnable jobs."""
        keys = list(self.parameters)
        jobs: list[SweepJob] = []
        for index, combo in enumerate(
            itertools.product(*(self.parameters[key] for key in keys))
        ):
            overrides = dict(zip(keys, combo))
            jobs.append(
                SweepJob(
                    index=index,
                    overrides=overrides,
                    spec=apply_overrides(self.base, overrides),
                )
            )
        return jobs

    # ------------------------------------------------------------------ #
    # Serialization                                                        #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Plain dict/list/scalar form (JSON-safe), stamped with the schema.

        The nested ``base`` spec shares the sweep's ``schema_version``.
        """
        return {"schema_version": SCHEMA_VERSION, **config.to_dict(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SweepSpec":
        """Rebuild a sweep (older schemas are migrated first); unknown keys
        raise :class:`ConfigError`."""
        return config.from_dict(cls, _migrate(payload))

    def save(self, path) -> None:
        """Write the sweep as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "SweepSpec":
        """Load a sweep JSON file written by :meth:`save` (or by hand)."""
        return cls.from_dict(config.read_json(path))


def _migrate(payload: Any) -> Any:
    """Upgrade a saved :class:`SweepSpec` payload to the current schema.

    Fields an older schema still carries are dropped from the base spec
    and from the parameter grid (as dotted keys), with one deprecation
    warning. Returns a copy without the ``schema_version`` marker; the
    input is not mutated.
    """
    if not isinstance(payload, dict):
        return payload
    payload = dict(payload)
    version = _pop_schema_version(payload)
    removed = _removed_since(version)
    dropped: list[str] = []
    if isinstance(payload.get("base"), dict):
        payload["base"] = dict(payload["base"])
        dropped += _drop_removed_fields(payload["base"], removed)
    parameters = payload.get("parameters")
    if isinstance(parameters, dict):
        dropped += [key for key in parameters if key in removed]
        payload["parameters"] = {
            k: v for k, v in parameters.items() if k not in removed
        }
    _warn_dropped(version, dropped)
    return payload
