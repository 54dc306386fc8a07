"""Slot calendar helpers.

The paper divides time into slots ``t_1 … t_T`` (Table I) with hourly
resolution in every figure (Figs. 2, 3, 5, 11 all use hour-of-day axes).
These helpers map a flat slot index onto (day, hour-of-day, day-of-week,
day-of-year) features used by the generators and by the causal model's time
embedding, without pulling in real calendars (synthetic years are 365 days).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .units import HOURS_PER_DAY

#: Days in the synthetic year used by seasonal generators.
DAYS_PER_YEAR = 365

#: The four six-hour periods used by the paper's Fig. 12 pie charts.
PERIODS_6H = ((0, 6), (6, 12), (12, 18), (18, 24))

#: Human labels for :data:`PERIODS_6H`, matching the paper's subcaptions.
PERIOD_LABELS = ("00:00-06:00", "06:00-12:00", "12:00-18:00", "18:00-24:00")


@dataclass(frozen=True)
class SlotCalendar:
    """Maps flat hourly slot indices to calendar features.

    Parameters
    ----------
    start_day_of_year:
        Day of year (0-based, 0..364) of slot 0. Lets experiments start a
        trace mid-season.
    start_day_of_week:
        Day of week (0=Monday) of slot 0, for weekly traffic patterns.
    """

    start_day_of_year: int = 0
    start_day_of_week: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.start_day_of_year < DAYS_PER_YEAR:
            raise ConfigError(
                f"start_day_of_year must be in [0, {DAYS_PER_YEAR}), "
                f"got {self.start_day_of_year}"
            )
        if not 0 <= self.start_day_of_week < 7:
            raise ConfigError(
                f"start_day_of_week must be in [0, 7), got {self.start_day_of_week}"
            )

    def hour_of_day(self, slot: np.ndarray | int) -> np.ndarray | int:
        """Hour of day (0..23) for each slot index."""
        return np.asarray(slot) % HOURS_PER_DAY if np.ndim(slot) else int(slot) % HOURS_PER_DAY

    def day_index(self, slot: np.ndarray | int) -> np.ndarray | int:
        """Zero-based day counter since slot 0."""
        if np.ndim(slot):
            return np.asarray(slot) // HOURS_PER_DAY
        return int(slot) // HOURS_PER_DAY

    def day_of_year(self, slot: np.ndarray | int) -> np.ndarray | int:
        """Day of the synthetic 365-day year (0..364) for each slot."""
        day = self.day_index(slot)
        return (day + self.start_day_of_year) % DAYS_PER_YEAR

    def day_of_week(self, slot: np.ndarray | int) -> np.ndarray | int:
        """Day of week (0=Monday .. 6=Sunday) for each slot."""
        day = self.day_index(slot)
        return (day + self.start_day_of_week) % 7

    def is_weekend(self, slot: np.ndarray | int) -> np.ndarray | bool:
        """True where the slot falls on Saturday or Sunday."""
        dow = self.day_of_week(slot)
        if np.ndim(dow):
            return np.asarray(dow) >= 5
        return dow >= 5


def diurnal_harmonic(
    hour_of_day: np.ndarray,
    peak_hour: float,
    *,
    sharpness: float = 1.0,
) -> np.ndarray:
    """A smooth 24 h-periodic bump peaking at ``peak_hour``, range [0, 1].

    Used by the traffic / price / charging-demand generators to shape diurnal
    cycles. ``sharpness`` > 1 narrows the peak (raised-cosine power).
    """
    phase = 2.0 * np.pi * (np.asarray(hour_of_day, dtype=float) - peak_hour) / HOURS_PER_DAY
    base = 0.5 * (1.0 + np.cos(phase))
    return base ** float(sharpness)
