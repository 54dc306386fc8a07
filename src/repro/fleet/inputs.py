"""Stacked exogenous traces: ``(n_hubs, horizon)`` struct-of-arrays inputs.

:class:`FleetInputs` is the batched counterpart of
:class:`~repro.hub.simulation.HubInputs`: one row per hub, one column per
slot, validated by the same :func:`~repro.hub.simulation.
validate_exogenous_traces` checks (including NaN/inf rejection). Rows can
be re-extracted as plain :class:`HubInputs` for interop with the scalar
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import FleetError
from ..hub.simulation import HubInputs, validate_exogenous_traces

_TRACE_NAMES = (
    "load_rate",
    "rtp_kwh",
    "pv_power_kw",
    "wt_power_kw",
    "occupied",
    "discount",
)


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

    ``outage`` is optional like the scalar engine's mask; ``None`` means no
    blackout anywhere.
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

    def hub(self, index: int) -> HubInputs:
        """Row ``index`` as scalar-engine :class:`HubInputs`."""
        if not 0 <= index < self.n_hubs:
            raise FleetError(f"hub index {index} out of range for {self.n_hubs} hubs")
        return HubInputs(
            load_rate=self.load_rate[index],
            rtp_kwh=self.rtp_kwh[index],
            pv_power_kw=self.pv_power_kw[index],
            wt_power_kw=self.wt_power_kw[index],
            occupied=self.occupied[index],
            discount=self.discount[index],
            outage=None if self.outage is None else self.outage[index],
        )
