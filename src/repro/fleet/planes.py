"""Precomputed slot planes: the action-independent half of every step.

Per slot, :meth:`FleetSimulation.step` needs the base-station draw
(Eq. 1), the charging-station draw (Eq. 2), the discounted selling price,
the blackout deficit/surplus of the Eq. 6 emergency branch, and the
feeder congestion signal's base import — none of which depend on the
battery actions being applied. The PR-1 engine rebuilt all of them from
``inputs.slot(t)`` tuples on every step; :class:`SlotPlanes` computes
each one **once** as an ``(n_hubs, horizon)`` plane so the fused kernel
only reads column views.

The Eq. 1/Eq. 2 draws, prices, revenue, blackout deficit/surplus, and
congestion-signal planes use elementwise arithmetic identical (term for
term, in the same order) to the per-slot expressions they replace —
``tests/test_planes.py`` pins those columns bit-for-bit. Two planes
deliberately regroup a sum for speed (``residual_static_kw`` hoists the
battery term out of Eq. 7; ``rtp_dt`` pre-multiplies the Eq. 8 price by
the slot length), which can move the affected columns by an ulp relative
to the PR-3 step; the scalar-equivalence suite in ``tests/test_fleet.py``
bounds the whole kernel at atol 1e-9.

Memory: ~10 float64 planes, i.e. roughly the footprint of the
:class:`~repro.fleet.inputs.FleetInputs` traces themselves (80 bytes per
hub-slot) — at the 100-hub x 336-slot benchmark workload about 2.7 MB.
Planes are immutable for the engine's lifetime and shared across
``reset()`` calls; only the battery state is per-run.
"""

from __future__ import annotations

import numpy as np

from .inputs import FleetInputs
from .params import FleetParams


class SlotPlanes:
    """``(n_hubs, horizon)`` planes of every action-independent quantity."""

    __slots__ = (
        "p_bs_kw",
        "p_cs_kw",
        "srtp_kwh",
        "revenue",
        "rtp_dt",
        "residual_static_kw",
        "blackout_deficit_kwh",
        "blackout_surplus_kw",
        "base_import_kw",
        "onsite_surplus_kw",
        "outage",
        "outage_any",
    )

    def __init__(self, params: FleetParams, inputs: FleetInputs) -> None:
        pv = inputs.pv_power_kw
        wt = inputs.wt_power_kw
        dt = params.dt_h

        #: Eq. 1 cluster draw over the whole horizon — the same shared
        #: definition every other consumer uses, broadcast to 2-D.
        self.p_bs_kw = params.bs_power_kw(inputs.load_rate)
        #: Eq. 2 charging-station draw for the realised occupancy.
        self.p_cs_kw = params.cs_power_kw(inputs.occupied)
        #: Discounted selling price SRTP = base x (1 - discount).
        self.srtp_kwh = params.cs_base_price_kwh[:, None] * (1.0 - inputs.discount)
        #: Eq. 11 revenue of a non-blackout slot (zeroed per-row on outages).
        self.revenue = self.p_cs_kw * dt * self.srtp_kwh
        #: Eq. 8 grid-cost factor: ``grid_cost = p_grid * (rtp * dt)``.
        self.rtp_dt = inputs.rtp_kwh * dt

        #: Eq. 7 residual without the battery term: BS + CS - PV - WT.
        #: ``residual = residual_static + p_bp`` per step.
        self.residual_static_kw = self.p_bs_kw + self.p_cs_kw - pv - wt

        # Blackout branch (HubSimulation._blackout_slot): the BS deficit
        # after renewables, and the surplus when renewables over-supply.
        renewable = pv + wt
        self.blackout_deficit_kwh = np.maximum(self.p_bs_kw - renewable, 0.0) * dt
        self.blackout_surplus_kw = np.maximum(renewable - self.p_bs_kw, 0.0)

        #: Boolean outage mask plus a per-slot any-hub-dark fast path: at
        #: realistic outage rates almost every slot skips the dark branch.
        self.outage = inputs.outage_mask()
        self.outage_any = self.outage.any(axis=0)

        #: Feeder congestion signal: each hub's action-independent grid
        #: draw (BS + CS net of renewables, zero while dark) — what
        #: ``available_import_kw()`` used to rebuild per call.
        self.base_import_kw = np.where(
            self.outage,
            0.0,
            np.maximum(self.p_bs_kw + self.p_cs_kw - pv - wt, 0.0),
        )
        #: On-site renewable surplus consulted by the congestion-aware
        #: schedulers before committing a charge.
        self.onsite_surplus_kw = np.maximum(
            pv + wt - self.p_bs_kw - self.p_cs_kw, 0.0
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
        return sum(getattr(self, name).nbytes for name in self.__slots__)
