"""Grid connection: RTP billing (Eq. 9) and blackout events (Eq. 6 context).

The grid supplies whatever residual power the hub needs (Eq. 7) at the
real-time price. Feeding power *back* is explicitly ruled out by the paper
(§I: grid-integration fluctuations make feed-in uneconomical), so a
negative residual is curtailed, never exported.

Blackouts motivate the backup batteries: :class:`BlackoutModel` samples
rare outage windows whose duration matches the paper's grid recovery time
``T_r``; during an outage the grid supplies nothing and the battery's
reserve band (Eq. 6) must carry the base station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class GridConfig:
    """Grid interconnection parameters.

    Attributes
    ----------
    import_limit_kw:
        Maximum simultaneous draw (0 disables the check). Surplus is never
        exported: the paper's no-feed-in rule curtails it.
    """

    import_limit_kw: float = 0.0

    def __post_init__(self) -> None:
        if self.import_limit_kw < 0:
            raise ConfigError("import_limit_kw must be non-negative")


@dataclass(frozen=True)
class BlackoutConfig:
    """Outage process parameters.

    Attributes
    ----------
    outage_probability_per_hour:
        Per-slot probability an outage begins.
    recovery_time_h:
        The paper's ``T_r`` — expected grid recovery time; outage durations
        are sampled uniformly in ``[1, 2·T_r − 1]`` so the mean is ``T_r``.
    """

    outage_probability_per_hour: float = 0.0005
    recovery_time_h: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage_probability_per_hour <= 1.0:
            raise ConfigError("outage_probability_per_hour must be in [0, 1]")
        if self.recovery_time_h < 1:
            raise ConfigError("recovery_time_h must be at least 1")


class BlackoutModel:
    """Samples outage masks over a horizon."""

    def __init__(self, config: BlackoutConfig | None = None) -> None:
        self.config = config or BlackoutConfig()

    def sample_outage_planes(
        self, n_hours: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """``(len(rngs), n_hours)`` boolean masks, True where the grid is down.

        Row ``i`` comes from ``rngs[i]`` alone. Each stream draws the whole
        horizon as one block of uniforms; a row with no outage start is
        done, and only the rows with one rewind and run the event loop.
        """
        if n_hours < 0:
            raise ConfigError(f"n_hours must be non-negative, got {n_hours}")
        uniforms = np.empty((len(rngs), n_hours))
        states = []
        for rng, row in zip(rngs, uniforms):
            states.append(rng.bit_generator.state)
            rng.random(out=row)
        down = np.zeros((len(rngs), n_hours), dtype=bool)
        hit_rows = (uniforms < self.config.outage_probability_per_hour).any(axis=1)
        for index in np.flatnonzero(hit_rows):
            rngs[index].bit_generator.state = states[index]
            self._fill_outages(down[index], rngs[index])
        return down

    def sample_outages(self, n_hours: int, rng: np.random.Generator) -> np.ndarray:
        """One stream's outage mask: a one-row :meth:`sample_outage_planes` call."""
        return self.sample_outage_planes(n_hours, [rng])[0]

    def _fill_outages(self, down: np.ndarray, rng: np.random.Generator) -> None:
        """Mark one horizon's outages in ``down``, drawing from ``rng``."""
        cfg = self.config
        n_hours = len(down)
        t = 0
        # One uniform per slot until an outage starts, then its duration:
        # draw the rest of the horizon as one block, and on a hit rewind
        # and redraw only up to it, so the stream ends where a slot-by-slot
        # loop would leave it.
        while t < n_hours:
            state = rng.bit_generator.state
            hits = np.flatnonzero(rng.random(n_hours - t) < cfg.outage_probability_per_hour)
            if not hits.size:
                break
            rng.bit_generator.state = state
            rng.random(hits[0] + 1)
            duration = int(rng.integers(1, 2 * cfg.recovery_time_h))
            t += int(hits[0])
            down[t : t + duration] = True
            t += duration
