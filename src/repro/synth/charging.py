"""Synthetic EV charging behaviour with latent causal strata.

This replaces the paper's proprietary dataset (3 years × 12 campus charging
stations, 70k+ session records) with a *generative causal model* that
realises the paper's Fig. 8 diagram exactly:

* every (station, slot) item carries a **latent stratum** ``Z`` —
  *No Charge*, *Incentive Charge*, or *Always Charge* (§IV-A);
* a historical **logging policy** assigns the treatment ``T`` (a price
  discount) with a feature- and confounder-dependent propensity;
* the **outcome** ``Y`` (does an EV charge this slot?) follows the stratum
  semantics: Always ⇒ Y=1 regardless of T; Incentive ⇒ Y=T; None ⇒ Y=0;
* an **unmeasured confounder** ``U`` (a daily weather/holiday effect)
  shifts both the propensity and the activity level, so naive correlational
  estimators are biased exactly as the paper argues.

Strata probabilities vary by hour of day and are calibrated to the paper's
Fig. 12 pies: *Incentive Charge* concentrates in 18:00–24:00 (≈41 %) while
*Always Charge* dominates daytime. Aggregate session counts reproduce the
diurnal usage variation of Fig. 3.

Cells are **typed**: each (station, hour-of-day, weekend) cell draws a
persistent *type* once — habitual (realises Always/None), price-sensitive
(realises Incentive/None), or dead (always None) — and each day the cell
is *active* with probability ``cell_activity`` (modulated by the daily
confounder; habitual demand responds to good days more strongly than
price-sensitive demand, which is what biases naive uplift estimates toward
Always-heavy cells). Day-to-day variation is whether anyone shows up, not
customers switching type. This matches the paper's Table II composition:
the best method reaches ≈76 % incentive precision with almost no Always
leakage — impossible if strata were redrawn i.i.d. per day, natural when
habitual and price-sensitive demand occupy disjoint (station, hour) cells.

Because the model is generative we know every item's true stratum — the
ground truth the paper can only approximate by pre-training an NCF labeler.
Both evaluation paths are supported (see :mod:`repro.causal.strata`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DataError
from ..rng import RngFactory
from ..timeutils import SlotCalendar
from ..units import HOURS_PER_DAY


class Stratum(IntEnum):
    """The paper's three charging strata (§IV-A)."""

    NONE = 0
    INCENTIVE = 1
    ALWAYS = 2


#: Period-centre hours used for anchoring the strata probability curves
#: (centres of the paper's Fig. 12 periods).
_ANCHOR_HOURS = np.array([3.0, 9.0, 15.0, 21.0])


@dataclass(frozen=True)
class ChargingConfig:
    """Parameters of the charging behaviour model.

    The anchor tuples give the mean *realised* probability of each stratum
    at the centre of the four six-hour periods (00–06, 06–12, 12–18,
    18–24); they default to values calibrated against the paper's Fig. 12
    pies. Cell-type probabilities are anchors divided by ``cell_activity``.
    """

    n_stations: int = 12
    always_anchors: tuple[float, float, float, float] = (0.10, 0.30, 0.33, 0.21)
    incentive_anchors: tuple[float, float, float, float] = (0.05, 0.04, 0.03, 0.48)
    cell_activity: float = 0.80
    activity_jitter: float = 0.22
    station_jitter: float = 0.15
    propensity_base: float = 0.12
    propensity_evening_boost: float = 0.72
    confounder_std: float = 0.12
    confounder_propensity_weight: float = 2.0
    confounder_always_weight: float = 1.5
    confounder_incentive_weight: float = 0.4
    session_energy_mean_kwh: float = 40.0
    session_energy_std_kwh: float = 10.0

    def __post_init__(self) -> None:
        if self.n_stations <= 0:
            raise ConfigError(f"n_stations must be positive, got {self.n_stations}")
        for anchors in (self.always_anchors, self.incentive_anchors):
            if len(anchors) != 4:
                raise ConfigError("anchor tuples must have exactly 4 entries")
            if any(not 0.0 <= a <= 1.0 for a in anchors):
                raise ConfigError("anchor probabilities must lie in [0, 1]")
        if not 0.0 < self.cell_activity <= 1.0:
            raise ConfigError("cell_activity must be in (0, 1]")
        if self.activity_jitter < 0:
            raise ConfigError("activity_jitter must be non-negative")
        for a, i in zip(self.always_anchors, self.incentive_anchors):
            if (a + i) / self.cell_activity >= 1.0:
                raise ConfigError(
                    "anchor probabilities divided by cell_activity must stay "
                    "below 1 (cell-type probabilities would overflow)"
                )
        if not 0.0 <= self.station_jitter < 0.5:
            raise ConfigError("station_jitter must be in [0, 0.5)")
        if not 0.0 < self.propensity_base < 1.0:
            raise ConfigError("propensity_base must be in (0, 1)")
        if self.propensity_evening_boost < 0:
            raise ConfigError("propensity_evening_boost must be non-negative")
        if self.confounder_std < 0:
            raise ConfigError("confounder_std must be non-negative")
        if self.session_energy_mean_kwh <= 0 or self.session_energy_std_kwh < 0:
            raise ConfigError("session energy parameters must be positive")


@dataclass(frozen=True)
class ChargingLog:
    """A flat log of (station, slot) items with treatments and outcomes.

    Attributes mirror the causal diagram: ``treated`` is ``T``, ``charged``
    is ``Y``, ``stratum`` is the latent ``Z`` (ground truth, unavailable to
    models in the paper's setting), ``confounder`` is the daily ``U``.
    """

    station_id: np.ndarray
    slot: np.ndarray
    hour_of_day: np.ndarray
    day_of_week: np.ndarray
    treated: np.ndarray
    charged: np.ndarray
    stratum: np.ndarray
    confounder: np.ndarray
    energy_kwh: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.station_id)
        for name in (
            "slot",
            "hour_of_day",
            "day_of_week",
            "treated",
            "charged",
            "stratum",
            "confounder",
            "energy_kwh",
        ):
            if len(getattr(self, name)) != n:
                raise DataError(f"charging log column {name} has inconsistent length")
        if n and not np.isin(np.unique(self.stratum), list(Stratum)).all():
            raise DataError("stratum column contains values outside the Stratum enum")

    def __len__(self) -> int:
        return len(self.station_id)

    @property
    def n_sessions(self) -> int:
        """Number of charging events (Y = 1 items)."""
        return int(self.charged.sum())

    def counts_by_hour(self) -> np.ndarray:
        """Charging-session counts per hour of day (paper Fig. 3)."""
        counts = np.zeros(HOURS_PER_DAY, dtype=int)
        hours = self.hour_of_day[self.charged == 1]
        np.add.at(counts, hours, 1)
        return counts

    def split_by_day(self, boundary_day: int) -> tuple["ChargingLog", "ChargingLog"]:
        """Chronological train/test split at ``boundary_day`` (by slot)."""
        day = self.slot // HOURS_PER_DAY
        return self._mask(day < boundary_day), self._mask(day >= boundary_day)

    def _mask(self, mask: np.ndarray) -> "ChargingLog":
        return ChargingLog(
            station_id=self.station_id[mask],
            slot=self.slot[mask],
            hour_of_day=self.hour_of_day[mask],
            day_of_week=self.day_of_week[mask],
            treated=self.treated[mask],
            charged=self.charged[mask],
            stratum=self.stratum[mask],
            confounder=self.confounder[mask],
            energy_kwh=self.energy_kwh[mask],
        )


def _circular_interp(hours: np.ndarray, anchors: tuple[float, ...]) -> np.ndarray:
    """Smooth 24 h-periodic interpolation through the four anchor values."""
    hours = np.asarray(hours, dtype=float)
    # Extend anchors circularly so interpolation wraps midnight.
    xs = np.concatenate([_ANCHOR_HOURS - 24.0, _ANCHOR_HOURS, _ANCHOR_HOURS + 24.0])
    ys = np.tile(np.asarray(anchors, dtype=float), 3)
    return np.interp(hours, xs, ys)


class ChargingBehaviorModel:
    """The generative causal model of EV charging at the hub fleet."""

    def __init__(
        self,
        config: ChargingConfig | None = None,
        rng_factory: RngFactory | None = None,
        *,
        calendar: SlotCalendar | None = None,
        strata_scales: np.ndarray | None = None,
    ) -> None:
        self.config = config or ChargingConfig()
        self._factory = rng_factory or RngFactory(seed=0)
        self.calendar = calendar or SlotCalendar()
        self._strata_scales = self._validate_strata_scales(strata_scales)
        self._profiles = self._build_profiles()
        self._cell_types = self._build_cell_types()
        self._cell_activity = self._build_cell_activity()

    def _validate_strata_scales(
        self, scales: np.ndarray | None
    ) -> np.ndarray | None:
        """``(n_stations, 2)`` [incentive, always] multipliers, or ``None``.

        The multipliers reshape each station's cell-type *probabilities*
        only — the rng draw counts are fixed per station, so scaling one
        station never shifts another station's cell-type draws.
        """
        if scales is None:
            return None
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (self.config.n_stations, 2):
            raise ConfigError(
                f"strata_scales must have shape ({self.config.n_stations}, 2),"
                f" got {scales.shape}"
            )
        if not np.isfinite(scales).all() or (scales <= 0).any():
            raise ConfigError("strata_scales entries must be finite and positive")
        return scales

    # ------------------------------------------------------------------ #
    # Station personalities                                               #
    # ------------------------------------------------------------------ #

    def _build_profiles(self) -> np.ndarray:
        """``(n_stations, 3)`` [demand, incentive, always] scales.

        One ``(n, 3)`` normal draw: the same sequence as three scalar
        draws per station, station by station.
        """
        rng = self._factory.stream("charging/profiles")
        cfg = self.config
        raw = rng.normal(1.0, cfg.station_jitter, size=(cfg.n_stations, 3))
        return np.clip(raw, 0.6, 1.4)

    def _check_station_ids(self, station_ids) -> np.ndarray:
        """``station_ids`` as an int array, every id inside the fleet."""
        ids = np.asarray(station_ids)
        n = self.config.n_stations
        if ids.size and ids.dtype.kind not in "iu":
            raise ConfigError(f"station ids must be integers, got {ids.dtype}")
        outside = (ids < 0) | (ids >= n)
        if outside.any():
            raise ConfigError(f"station_id {ids[outside][0]} outside fleet of {n}")
        return ids.astype(int)

    # ------------------------------------------------------------------ #
    # Cell types                                                          #
    # ------------------------------------------------------------------ #

    def _type_probability_table(
        self, station_ids: np.ndarray, hours_of_day: np.ndarray
    ) -> np.ndarray:
        """``(stations, hours, 3)`` [dead, price-sensitive, habitual] table."""
        cfg = self.config
        hours = np.asarray(hours_of_day, dtype=float)
        demand, incentive, always = self._profiles[station_ids].T[:, :, None]
        extra_inc, extra_alw = (
            np.ones((2, 1, 1))
            if self._strata_scales is None
            else self._strata_scales[station_ids].T[:, :, None]
        )

        p_alw = (
            _circular_interp(hours, cfg.always_anchors)
            * always
            * extra_alw
            * demand
            / cfg.cell_activity
        )
        p_inc = (
            _circular_interp(hours, cfg.incentive_anchors)
            * incentive
            * extra_inc
            * demand
            / cfg.cell_activity
        )
        p_alw = np.clip(p_alw, 0.0, 0.95)
        p_inc = np.clip(p_inc, 0.0, 0.95)
        total = p_alw + p_inc
        overflow = total > 0.95
        scale = np.divide(0.95, total, out=np.ones_like(total), where=overflow)
        p_alw = p_alw * scale
        p_inc = p_inc * scale
        return np.stack([1.0 - p_alw - p_inc, p_inc, p_alw], axis=-1)

    def _build_cell_types(self) -> np.ndarray:
        """Persistent cell types: (n_stations, 48) for hour × weekend cells.

        Each station draws its weekday half, then its weekend half, of
        uniforms against the cumulative type probabilities; one
        ``(n, 2, 24)`` draw keeps that order.
        """
        rng = self._factory.stream("charging/cells")
        n = self.config.n_stations
        cumulative = np.cumsum(
            self._type_probability_table(np.arange(n), np.arange(HOURS_PER_DAY)),
            axis=-1,
        )
        draws = rng.random((n, 2, HOURS_PER_DAY))
        types = (draws[..., None] > cumulative[:, None, :, :-1]).sum(axis=-1)
        return types.reshape(n, 2 * HOURS_PER_DAY).astype(int)

    def _build_cell_activity(self) -> np.ndarray:
        """Persistent per-cell activity levels (heterogeneous demand depth).

        Real stations mix strong and weak demand pockets; the jitter puts
        some price-sensitive cells near the selection boundary, which is
        what separates good from mediocre uplift estimators in Table II.
        """
        rng = self._factory.stream("charging/activity")
        cfg = self.config
        raw = rng.normal(
            cfg.cell_activity,
            cfg.activity_jitter,
            size=(cfg.n_stations, 2 * HOURS_PER_DAY),
        )
        return np.clip(raw, 0.15, 0.98)

    # ------------------------------------------------------------------ #
    # Activity and realised strata                                        #
    # ------------------------------------------------------------------ #

    def _activity(
        self,
        cell_types: np.ndarray,
        base_activity: np.ndarray,
        confounder: np.ndarray | float,
    ) -> np.ndarray:
        """Per-item activity probability given cell type, depth, and daily U."""
        cfg = self.config
        u = np.asarray(confounder, dtype=float)
        boost = np.where(
            cell_types == int(Stratum.ALWAYS),
            cfg.confounder_always_weight,
            cfg.confounder_incentive_weight,
        )
        return np.clip(base_activity * (1.0 + boost * u), 0.0, 1.0)

    def strata_planes(
        self,
        station_ids: np.ndarray,
        slots: np.ndarray,
        rngs: Sequence[np.random.Generator],
        *,
        confounder: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Realised strata under the typed-cell process, one row per station.

        Returns ``(len(station_ids), len(slots))`` int. Row ``i`` draws one
        block of ``len(slots)`` uniforms from ``rngs[i]``, so it equals a
        one-row call with that stream whatever the other rows are.
        """
        ids = self._check_station_ids(station_ids).reshape(-1)
        if len(rngs) != len(ids):
            raise ConfigError(f"{len(rngs)} streams for {len(ids)} stations")
        slots = np.asarray(slots)
        hod = np.asarray(self.calendar.hour_of_day(slots))
        weekend = np.asarray(self.calendar.is_weekend(slots)).astype(int)
        cells = hod + HOURS_PER_DAY * weekend
        draws = np.empty((len(ids), len(slots)))
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        cell_types = self._cell_types[ids[:, None], cells]
        base_activity = self._cell_activity[ids[:, None], cells]
        active = draws < self._activity(cell_types, base_activity, confounder)
        return np.where(active, cell_types, int(Stratum.NONE)).astype(int)

    def sample_strata(
        self,
        station_id: int,
        slots: np.ndarray,
        rng: np.random.Generator,
        *,
        confounder: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """One station's realised strata: a one-row :meth:`strata_planes` call."""
        return self.strata_planes([station_id], slots, [rng], confounder=confounder)[0]

    def propensity(
        self,
        hours_of_day: np.ndarray,
        *,
        confounder: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Historical discount propensity ``P(T=1 | X, U)`` per hour.

        The logging policy discounted evenings more often (operators already
        suspected evening sensitivity) and is confounded by ``U``.
        """
        cfg = self.config
        hours = np.asarray(hours_of_day, dtype=float)
        evening = np.exp(-0.5 * (((hours - 21.0 + 12.0) % 24.0 - 12.0) / 3.0) ** 2)
        p = (
            cfg.propensity_base
            + cfg.propensity_evening_boost * evening
            + cfg.confounder_propensity_weight * np.asarray(confounder, dtype=float)
        )
        return np.clip(p, 0.02, 0.98)

    # ------------------------------------------------------------------ #
    # Log simulation                                                      #
    # ------------------------------------------------------------------ #

    def simulate_log(
        self,
        n_days: int,
        *,
        stations: list[int] | None = None,
        stream: str = "charging/log",
    ) -> ChargingLog:
        """Simulate the historical charging log over ``n_days`` days.

        One item per (station, hourly slot). Both the treatment assignment
        and the realised strata depend on the daily confounder, so the log
        exhibits genuine confounding bias.
        """
        if n_days < 0:
            raise ConfigError(f"n_days must be non-negative, got {n_days}")
        station_ids = stations if stations is not None else list(range(self.config.n_stations))
        rng = self._factory.stream(stream)

        n_slots = n_days * HOURS_PER_DAY
        slots = np.arange(n_slots)
        hod = np.asarray(self.calendar.hour_of_day(slots))
        dow = np.asarray(self.calendar.day_of_week(slots))
        day_index = slots // HOURS_PER_DAY

        daily_u = rng.normal(0.0, self.config.confounder_std, size=max(n_days, 1))
        u_per_slot = daily_u[day_index] if n_slots else np.empty(0)

        columns: dict[str, list[np.ndarray]] = {
            name: []
            for name in (
                "station_id",
                "slot",
                "hour_of_day",
                "day_of_week",
                "treated",
                "charged",
                "stratum",
                "confounder",
                "energy_kwh",
            )
        }

        for station_id in station_ids:
            strata = self.strata_planes(
                [station_id], slots, [rng], confounder=u_per_slot
            )[0]
            propensity = self.propensity(hod, confounder=u_per_slot)
            treated = (rng.random(n_slots) < propensity).astype(int)
            charged = np.where(
                strata == Stratum.ALWAYS,
                1,
                np.where(strata == Stratum.INCENTIVE, treated, 0),
            )
            energy = np.where(
                charged == 1,
                np.maximum(
                    rng.normal(
                        self.config.session_energy_mean_kwh,
                        self.config.session_energy_std_kwh,
                        size=n_slots,
                    ),
                    5.0,
                ),
                0.0,
            )
            columns["station_id"].append(np.full(n_slots, station_id))
            columns["slot"].append(slots)
            columns["hour_of_day"].append(hod)
            columns["day_of_week"].append(dow)
            columns["treated"].append(treated)
            columns["charged"].append(charged)
            columns["stratum"].append(strata)
            columns["confounder"].append(u_per_slot)
            columns["energy_kwh"].append(energy)

        return ChargingLog(
            **{name: np.concatenate(parts) if parts else np.empty(0) for name, parts in columns.items()}
        )
