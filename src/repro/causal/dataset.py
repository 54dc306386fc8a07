"""Item dataset for the pricing models.

The paper's causal unit is an *item*: one (charging station, time slot)
pair with features ``X`` (station and time-slot features), treatment ``T``
(discount given), and outcome ``Y`` (an EV charged). This module converts a
:class:`~repro.synth.charging.ChargingLog` into the id-based feature layout
the NCF-style models consume:

* ``station_ids`` — the station index (the NCF "user");
* ``time_ids`` — hour-of-day, optionally crossed with a weekend flag
  (the NCF "item": 24 or 48 ids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..synth.charging import ChargingLog
from ..timeutils import SlotCalendar
from ..units import HOURS_PER_DAY


@dataclass(frozen=True)
class PricingDataset:
    """Flat arrays of items for training/evaluating pricing models.

    ``stratum`` carries the generator's ground-truth latent stratum when
    available (−1 when unknown), used only for evaluation — the models never
    see it.
    """

    station_ids: np.ndarray
    time_ids: np.ndarray
    treated: np.ndarray
    charged: np.ndarray
    stratum: np.ndarray
    n_stations: int
    n_time_ids: int

    def __post_init__(self) -> None:
        n = len(self.station_ids)
        for name in ("time_ids", "treated", "charged", "stratum"):
            if len(getattr(self, name)) != n:
                raise DataError(f"dataset column {name} has inconsistent length")
        if n:
            if self.station_ids.min() < 0 or self.station_ids.max() >= self.n_stations:
                raise DataError("station_ids out of range")
            if self.time_ids.min() < 0 or self.time_ids.max() >= self.n_time_ids:
                raise DataError("time_ids out of range")
            for name in ("treated", "charged"):
                values = np.unique(getattr(self, name))
                if not np.isin(values, (0, 1)).all():
                    raise DataError(f"{name} must be binary")

    def __len__(self) -> int:
        return len(self.station_ids)

    @property
    def has_ground_truth(self) -> bool:
        """Whether the latent strata are recorded (synthetic data only)."""
        return bool(len(self)) and bool((self.stratum >= 0).all())

    def subset(self, mask: np.ndarray) -> "PricingDataset":
        """Items selected by a boolean mask."""
        if mask.shape != (len(self),):
            raise DataError(f"mask shape {mask.shape} does not match dataset")
        return PricingDataset(
            station_ids=self.station_ids[mask],
            time_ids=self.time_ids[mask],
            treated=self.treated[mask],
            charged=self.charged[mask],
            stratum=self.stratum[mask],
            n_stations=self.n_stations,
            n_time_ids=self.n_time_ids,
        )


def dataset_from_log(
    log: ChargingLog,
    *,
    n_stations: int,
    use_weekend_flag: bool = True,
) -> PricingDataset:
    """Convert a charging log into the item dataset.

    ``use_weekend_flag=True`` crosses hour-of-day with a weekend indicator
    (48 time ids); the paper's "time slot features" are not fully specified,
    and the weekly pattern is real in the generator, so the default keeps it.
    """
    hour = np.asarray(log.hour_of_day, dtype=int)
    if use_weekend_flag:
        weekend = (np.asarray(log.day_of_week, dtype=int) >= 5).astype(int)
        time_ids = hour + HOURS_PER_DAY * weekend
        n_time_ids = 2 * HOURS_PER_DAY
    else:
        time_ids = hour
        n_time_ids = HOURS_PER_DAY
    return PricingDataset(
        station_ids=np.asarray(log.station_id, dtype=int),
        time_ids=time_ids,
        treated=np.asarray(log.treated, dtype=int),
        charged=np.asarray(log.charged, dtype=int),
        stratum=np.asarray(log.stratum, dtype=int),
        n_stations=n_stations,
        n_time_ids=n_time_ids,
    )


def time_ids_for_slots(
    n_slots: int,
    *,
    calendar: SlotCalendar | None = None,
    use_weekend_flag: bool = True,
) -> np.ndarray:
    """Map simulation slots to the pricing models' time-feature ids.

    The same hour-of-day × weekend crossing as :func:`dataset_from_log`
    (48 ids by default, 24 without the weekend flag), so schedules built
    from a trained policy index the exact embedding cells the policy was
    trained on.
    """
    calendar = calendar or SlotCalendar()
    slots = np.arange(n_slots)
    hod = np.asarray(calendar.hour_of_day(slots))
    if not use_weekend_flag:
        return hod
    weekend = np.asarray(calendar.is_weekend(slots)).astype(int)
    return hod + HOURS_PER_DAY * weekend


def train_test_split_by_day(
    log: ChargingLog,
    *,
    n_stations: int,
    boundary_day: int,
    use_weekend_flag: bool = True,
) -> tuple[PricingDataset, PricingDataset]:
    """Chronological split mirroring the paper's train/evaluate protocol."""
    train_log, test_log = log.split_by_day(boundary_day)
    if len(train_log) == 0 or len(test_log) == 0:
        raise DataError(
            f"boundary_day={boundary_day} leaves an empty split "
            f"(train={len(train_log)}, test={len(test_log)})"
        )
    make = lambda l: dataset_from_log(  # noqa: E731 - tiny local alias
        l, n_stations=n_stations, use_weekend_flag=use_weekend_flag
    )
    return make(train_log), make(test_log)
