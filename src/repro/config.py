"""Config dataclass plumbing: validation hooks and dict round-tripping.

Every subsystem defines a frozen dataclass config (battery, PV, hub, PPO, …).
This module provides the shared machinery: recursive ``to_dict`` /
``from_dict`` so scenarios can be serialized to JSON, and a ``validate``
convention (``__post_init__`` calls ``self.validate()`` where defined) so a
bad config fails at construction, not mid-simulation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path
from typing import Any, Type, TypeVar

from .errors import ConfigError

C = TypeVar("C")


def to_dict(config: Any) -> dict[str, Any]:
    """Recursively convert a dataclass config to plain dict/list/scalars."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise ConfigError(f"expected a dataclass instance, got {type(config).__name__}")
    return dataclasses.asdict(config)


def from_dict(cls: Type[C], payload: dict[str, Any]) -> C:
    """Instantiate dataclass ``cls`` from a dict, recursing into nested configs.

    Unknown keys raise :class:`ConfigError` so typos in scenario files are
    caught instead of silently ignored.
    """
    if not dataclasses.is_dataclass(cls):
        raise ConfigError(f"{cls!r} is not a dataclass type")
    if not isinstance(payload, dict):
        raise ConfigError(f"expected a dict for {cls.__name__}, got {type(payload).__name__}")

    field_map = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(field_map)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} for {cls.__name__}; "
            f"valid keys: {sorted(field_map)}"
        )

    hints = _type_hints(cls)
    kwargs = {
        name: _convert_field(field_map[name], hints.get(name), value)
        for name, value in payload.items()
    }
    return cls(**kwargs)


def convert_field_value(cls: type, name: str, value: Any) -> Any:
    """Convert one field's payload value exactly as :func:`from_dict` would.

    Lets dotted-path overrides accept the same plain-dict/list payloads a
    spec file carries (``--set fleet.groups.0.battery={"capacity_kwh":400}``
    rebuilds a ``BatteryConfig``), keeping override results identical to
    their serialized round trip.
    """
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    if name not in field_map:
        raise ConfigError(
            f"unknown key {name!r} for {cls.__name__}; "
            f"valid keys: {sorted(field_map)}"
        )
    return _convert_field(field_map[name], _type_hints(cls).get(name), value)


@functools.cache
def _type_hints(cls: type) -> types.MappingProxyType:
    """``cls``'s resolved annotations (PEP 563 strings evaluated), read-only.

    Resolving them is most of the cost of parsing a spec, and a class's
    annotations do not change, so each class is resolved once.
    """
    try:
        return types.MappingProxyType(typing.get_type_hints(cls))
    except Exception:  # pragma: no cover - exotic forward references
        return types.MappingProxyType({})


def _convert_field(field: dataclasses.Field, hint: Any, value: Any) -> Any:
    field_type = field.type if isinstance(field.type, type) else hint
    if typing.get_origin(field_type) in (typing.Union, types.UnionType):
        # Optional[Config] / Optional[tuple[...]]: pick the member that
        # matches the payload's shape (dict ⇒ dataclass, list ⇒ sequence).
        members = [
            arg for arg in typing.get_args(field_type) if arg is not type(None)
        ]
        field_type = None
        for member in members:
            if isinstance(member, type) and dataclasses.is_dataclass(member):
                if isinstance(value, dict):
                    field_type = member
                    break
            elif typing.get_origin(member) in (tuple, list):
                if isinstance(value, (list, tuple)):
                    field_type = member
                    break
    if (
        isinstance(field_type, type)
        and dataclasses.is_dataclass(field_type)
        and isinstance(value, dict)
    ):
        return from_dict(field_type, value)
    if isinstance(value, (list, tuple)):
        return _from_sequence(field, field_type, value)
    return value


def _from_sequence(
    field: dataclasses.Field, field_type: Any, value: list | tuple
) -> tuple | list:
    """Rebuild a sequence field, recursing into dataclass element types."""
    element_type = None
    if typing.get_origin(field_type) in (tuple, list):
        candidates = [
            arg for arg in typing.get_args(field_type) if arg is not Ellipsis
        ]
        if (
            candidates
            and isinstance(candidates[0], type)
            and dataclasses.is_dataclass(candidates[0])
        ):
            element_type = candidates[0]
    items = [
        from_dict(element_type, item)
        if element_type is not None and isinstance(item, dict)
        else item
        for item in value
    ]
    wants_tuple = _wants_tuple(field) or typing.get_origin(field_type) is tuple
    return tuple(items) if wants_tuple else list(items)


def _wants_tuple(field: dataclasses.Field) -> bool:
    """Heuristic: fields annotated or defaulted as tuples round-trip as tuples."""
    if isinstance(field.default, tuple):
        return True
    type_repr = str(field.type)
    return type_repr.startswith(("tuple", "Tuple", "typing.Tuple"))


def read_json(path: str | Path) -> Any:
    """Parse a JSON config file; I/O and syntax errors raise ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def replace(config: C, **changes: Any) -> C:
    """Typed wrapper over :func:`dataclasses.replace` for frozen configs."""
    try:
        return dataclasses.replace(config, **changes)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
