"""Minimal action/observation space descriptions (gym-style)."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EnvError


@dataclass(frozen=True)
class Discrete:
    """A finite action set ``{0, …, n−1}``."""

    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise EnvError(f"Discrete space needs n > 0, got {self.n}")


@dataclass(frozen=True)
class Box:
    """A real-valued vector space with elementwise bounds."""

    low: float
    high: float
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise EnvError(f"Box needs low < high, got [{self.low}, {self.high}]")
        if any(s <= 0 for s in self.shape):
            raise EnvError(f"Box shape must be positive, got {self.shape}")
