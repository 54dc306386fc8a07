"""Stacked exogenous traces: ``(n_hubs, horizon)`` struct-of-arrays inputs.

:class:`FleetInputs` holds one row per hub and one column per slot of
every exogenous trace the engine reads, validated by
:func:`validate_exogenous_traces` (range checks and NaN/inf rejection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DataError, FleetError

_TRACE_NAMES = (
    "load_rate",
    "rtp_kwh",
    "pv_power_kw",
    "wt_power_kw",
    "occupied",
    "discount",
)


def validate_exogenous_traces(
    *,
    load_rate: np.ndarray,
    rtp_kwh: np.ndarray,
    pv_power_kw: np.ndarray,
    wt_power_kw: np.ndarray,
    occupied: np.ndarray,
    discount: np.ndarray,
    context: str = "hub input",
) -> None:
    """Range- and finiteness-check exogenous traces of any shape.

    :class:`FleetInputs` checks its ``(n_hubs, horizon)`` planes with it.
    NaN traces would otherwise slip through pure range checks because
    every NaN comparison is False.
    """
    traces = {
        "load_rate": load_rate,
        "rtp_kwh": rtp_kwh,
        "pv_power_kw": pv_power_kw,
        "wt_power_kw": wt_power_kw,
        "occupied": occupied,
        "discount": discount,
    }
    for name, trace in traces.items():
        arr = np.asarray(trace)
        if arr.size and not np.isfinite(arr).all():
            raise DataError(f"{context} column {name} contains NaN or inf")
    if not np.asarray(load_rate).size:
        return
    if load_rate.min() < 0 or load_rate.max() > 1:
        raise DataError("load_rate must lie in [0, 1]")
    if rtp_kwh.min() < 0:
        raise DataError("rtp_kwh must be non-negative")
    if pv_power_kw.min() < 0 or wt_power_kw.min() < 0:
        raise DataError("renewable power must be non-negative")
    if not np.isin(np.unique(occupied), (0, 1)).all():
        raise DataError("occupied must be binary")
    if discount.min() < 0 or discount.max() >= 1:
        raise DataError("discount must lie in [0, 1)")


class SlotTraces(NamedTuple):
    """One slot's exogenous columns, each shaped ``(n_hubs,)``."""

    load_rate: np.ndarray
    rtp_kwh: np.ndarray
    pv_power_kw: np.ndarray
    wt_power_kw: np.ndarray
    occupied: np.ndarray
    discount: np.ndarray


@dataclass(frozen=True)
class FleetInputs:
    """Exogenous traces for a whole fleet, all shaped ``(n_hubs, horizon)``.

    ``outage`` is an optional blackout mask; ``None`` means no blackout
    anywhere.
    """

    load_rate: np.ndarray
    rtp_kwh: np.ndarray
    pv_power_kw: np.ndarray
    wt_power_kw: np.ndarray
    occupied: np.ndarray
    discount: np.ndarray
    outage: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = np.asarray(self.load_rate).shape
        if len(shape) != 2:
            raise FleetError(
                f"fleet traces must be 2-D (n_hubs, horizon), got shape {shape}"
            )
        for name in _TRACE_NAMES[1:]:
            if np.asarray(getattr(self, name)).shape != shape:
                raise FleetError(f"fleet trace {name} has inconsistent shape")
        if self.outage is not None and np.asarray(self.outage).shape != shape:
            raise FleetError("fleet outage mask has inconsistent shape")
        validate_exogenous_traces(
            load_rate=self.load_rate,
            rtp_kwh=self.rtp_kwh,
            pv_power_kw=self.pv_power_kw,
            wt_power_kw=self.wt_power_kw,
            occupied=self.occupied,
            discount=self.discount,
            context="fleet input",
        )

    @property
    def n_hubs(self) -> int:
        """Number of hub rows."""
        return int(self.load_rate.shape[0])

    @property
    def horizon(self) -> int:
        """Number of slots per hub."""
        return int(self.load_rate.shape[1])

    def slot(self, t: int) -> SlotTraces:
        """All six trace columns at slot ``t`` — the engine's per-step view."""
        if not 0 <= t < self.horizon:
            raise FleetError(f"slot {t} out of range for horizon {self.horizon}")
        return SlotTraces(
            load_rate=self.load_rate[:, t],
            rtp_kwh=self.rtp_kwh[:, t],
            pv_power_kw=self.pv_power_kw[:, t],
            wt_power_kw=self.wt_power_kw[:, t],
            occupied=self.occupied[:, t],
            discount=self.discount[:, t],
        )

    def outage_mask(self) -> np.ndarray:
        """Boolean ``(n_hubs, horizon)`` blackout mask (all-False when None).

        The materialized mask is cached on the instance: the engine and
        its :class:`~repro.fleet.planes.SlotPlanes` both consume it, and
        the traces are frozen, so one copy serves every caller.
        """
        cached = getattr(self, "_outage_mask", None)
        if cached is None:
            if self.outage is None:
                cached = np.zeros((self.n_hubs, self.horizon), dtype=bool)
            else:
                cached = np.asarray(self.outage, dtype=bool)
            object.__setattr__(self, "_outage_mask", cached)
        return cached
