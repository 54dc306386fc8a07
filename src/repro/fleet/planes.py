"""Precomputed slot planes: the action-independent half of every step.

Per slot, :meth:`FleetSimulation.step` needs the base-station draw
(Eq. 1), the charging-station draw (Eq. 2), the discounted selling price,
the revenue and the action-independent part of the Eq. 7 residual — none
of which depend on the battery actions being applied. A per-slot step
would rebuild them from ``inputs.slot(t)`` tuples on every step;
:class:`SlotPlanes` computes each one **once** as an ``(n_hubs,
horizon)`` plane so the fused kernel only reads column views.

A dense cost book's exogenous columns are read-only views of these
planes and of the :class:`~repro.fleet.inputs.FleetInputs` traces, so the
planes hold the *booked* values: ``p_cs_kw`` and ``revenue`` are zero on
outage cells (charging is suspended in a blackout). The planes are
read-only for the engine's lifetime and shared across ``reset()`` calls
and stacked jobs; only the battery state is per-run.

Quantities only some slots or callers read are computed where they are
read instead of held as planes: the Eq. 6 blackout deficit and surplus on
the dark cells of a slot (:meth:`FleetSimulation.step`), and the feeder
congestion signal's :meth:`SlotPlanes.base_import_kw` and
:meth:`SlotPlanes.onsite_surplus_kw` for the slots a congestion-aware
planner asks for. The Eq. 8 price factor ``rtp * dt`` is formed per
finished block.

The draws, prices, revenue and the on-demand quantities use elementwise
arithmetic identical (term for term, in the same order) to the per-slot
expressions they replace — ``tests/test_planes.py`` pins them
bit-for-bit. ``residual_static_kw`` deliberately hoists the battery term
out of Eq. 7, which can move the affected columns by an ulp relative to
the per-slot expression; the equivalence suite in ``tests/test_fleet.py``
bounds the whole kernel at atol 1e-9 against the scalar engine frozen in
``tests/scalar_oracle``.

Memory: five float64 planes plus the boolean outage mask, about 41 bytes
per hub-slot — at the 2000-hub x 168-slot ``fleet-city`` size about
13.8 MB.
"""

from __future__ import annotations

import numpy as np

from .inputs import FleetInputs
from .params import FleetParams


def _frozen(plane: np.ndarray) -> np.ndarray:
    plane.flags.writeable = False
    return plane


class SlotPlanes:
    """``(n_hubs, horizon)`` planes of every action-independent quantity."""

    __slots__ = (
        "p_bs_kw",
        "p_cs_kw",
        "srtp_kwh",
        "revenue",
        "residual_static_kw",
        "outage",
        "outage_any",
        "_params",
        "_inputs",
    )

    def __init__(self, params: FleetParams, inputs: FleetInputs) -> None:
        self._params = params
        self._inputs = inputs
        dt = params.dt_h

        # Eq. 1 cluster draw over the whole horizon — the same shared
        # definition every other consumer uses, broadcast to 2-D.
        p_bs = params.bs_power_kw(inputs.load_rate)
        # Eq. 2 charging-station draw for the realised occupancy.
        p_cs = params.cs_power_kw(inputs.occupied)
        #: Discounted selling price SRTP = base x (1 - discount).
        self.srtp_kwh = _frozen(
            params.cs_base_price_kwh[:, None] * (1.0 - inputs.discount)
        )
        # Eq. 11 revenue of a slot.
        revenue = p_cs * dt * self.srtp_kwh

        #: Eq. 7 residual without the battery term: BS + CS - PV - WT,
        #: from the raw CS draw. ``residual = residual_static + p_bp`` per
        #: step; the blackout branch overrides it on dark cells.
        self.residual_static_kw = _frozen(
            p_bs + p_cs - inputs.pv_power_kw - inputs.wt_power_kw
        )

        #: Boolean outage mask plus a per-slot any-hub-dark fast path: at
        #: realistic outage rates almost every slot skips the dark branch.
        outage = inputs.outage_mask()
        self.outage = _frozen(outage.view())
        self.outage_any = _frozen(outage.any(axis=0))

        # Charging is suspended in a blackout: the booked CS draw and
        # revenue are zero on the dark cells.
        if self.outage_any.any():
            p_cs[outage] = 0.0
            revenue[outage] = 0.0
        #: The booked Eq. 1 BS draw, Eq. 2 CS draw and Eq. 11 revenue.
        self.p_bs_kw = _frozen(p_bs)
        self.p_cs_kw = _frozen(p_cs)
        self.revenue = _frozen(revenue)

    def base_import_kw(self, at=slice(None)) -> np.ndarray:
        """Each hub's action-independent grid draw at slots ``at``.

        BS + CS load net of renewables, zero while dark — the base load
        the feeder congestion signal (:meth:`~repro.fleet.grid.
        FeederGroup.available_import_kw`) charges against each feeder.
        ``at`` is a slot index (``(n_hubs,)``) or a slice of slots
        (``(n_hubs, width)``; the default is the whole horizon).
        """
        return np.where(
            self.outage[:, at], 0.0, np.maximum(self.residual_static_kw[:, at], 0.0)
        )

    def onsite_surplus_kw(self, at=slice(None)) -> np.ndarray:
        """On-site renewable surplus beyond the BS and CS load at slots ``at``.

        What the congestion-aware schedulers let a charge draw before it
        needs feeder headroom; ``at`` as in :meth:`base_import_kw`.
        """
        inputs = self._inputs
        p_cs = self._params.cs_power_kw(inputs.occupied[:, at])
        return np.maximum(
            inputs.pv_power_kw[:, at]
            + inputs.wt_power_kw[:, at]
            - self.p_bs_kw[:, at]
            - p_cs,
            0.0,
        )

    @property
    def n_hubs(self) -> int:
        """Number of hub rows."""
        return int(self.p_bs_kw.shape[0])

    @property
    def horizon(self) -> int:
        """Number of slots per hub."""
        return int(self.p_bs_kw.shape[1])

    @property
    def nbytes(self) -> int:
        """Total plane memory in bytes."""
        return sum(
            getattr(self, name).nbytes
            for name in self.__slots__
            if not name.startswith("_")
        )
