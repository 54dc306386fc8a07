"""Batch-stepping engine: advance N ECT-Hubs per slot with NumPy.

:class:`FleetSimulation` is the vectorized counterpart of
:class:`~repro.hub.simulation.HubSimulation`. Per slot it applies one
battery action per hub, resolves the Eq. 7 power balance, books Eqs. 8–11,
and overrides blackout slots (grid import zeroed, charging suspended, the
Eq. 6 emergency reserve carrying the base stations) — for **all hubs at
once** over :class:`~repro.fleet.params.FleetParams` /
:class:`~repro.fleet.inputs.FleetInputs` struct-of-arrays state.

The step is a **fused kernel**: every action-independent quantity (BS/CS
draw, prices, blackout deficits, the feeder congestion signal) is read
from the :class:`~repro.fleet.planes.SlotPlanes` cache computed once per
engine, the per-step arithmetic runs through reusable ``out=`` buffers
instead of fresh temporaries, and the Eq. 6 blackout branch is evaluated
only on the hub rows whose outage mask fires that slot. Every expression
still mirrors the scalar engine's order of operations (``BatteryPack.
_charge`` / ``_discharge`` / ``emergency_supply``, ``EctHub.
power_balance``, ``compute_slot_ledger``), so a batched run stays
numerically equivalent to N independent scalar runs; the property-style
test in ``tests/test_fleet.py`` enforces agreement within atol 1e-9.

Shared-grid coupling: hubs may be grouped onto common feeders with finite
import capacity (:class:`~repro.fleet.grid.FeederGroup`). After the
per-hub balance is resolved, the feeder allocation step curtails imports
wherever a group's aggregate draw exceeds its limit; the curtailed
energy is served from the Eq. 6 battery reserve (the same arithmetic as a
blackout slot) and whatever the reserve cannot cover is booked as
unserved. Under the default unlimited feeder the coupled step is
bit-identical to the uncoupled one.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from ..errors import ConfigError, FleetError, GridError
from .costs import FleetCostBook
from .grid import FeederGroup
from .inputs import FleetInputs
from .params import FleetParams
from .planes import SlotPlanes

#: SoC-bound tolerance, identical to the scalar ``BatteryPack`` clipping.
_SOC_EPS = 1e-12

#: The legal action set, used by the full (non-hot-path) validation.
_ACTIONS = (DISCHARGE, IDLE, CHARGE)


def _resolve_battery(kernel, soc, actions, b, applied, p_bp) -> None:
    """The battery block of one fused slot step, for all hubs at once.

    ``kernel`` holds the engine's per-hub constants, ``soc``/``actions``
    are read-only ``(n_hubs,)`` inputs and ``b`` is the reusable buffer
    namespace. On return ``b.stored``, ``b.drawn``, ``b.bus_charge_kwh``,
    ``b.bus_discharge_kwh`` and ``b.new_soc`` hold the resolved energies,
    and ``applied`` / ``p_bp`` (cost-book column views) are fully written.
    """
    # --- Charge path (BatteryPack._charge): clip the stored energy to
    # the SoC_max headroom; a fully-clipped request degrades to IDLE.
    np.subtract(kernel.soc_max_kwh, soc, out=b.headroom)
    np.maximum(b.headroom, 0.0, out=b.headroom)
    np.add(b.headroom, kernel.soc_eps, out=b.tmp)
    np.greater(kernel.stored_requested, b.tmp, out=b.mask)
    np.copyto(b.stored, kernel.stored_requested)
    np.copyto(b.stored, b.headroom, where=b.mask)
    np.equal(actions, CHARGE, out=b.charging)
    np.greater(b.stored, 0.0, out=b.mask)
    np.logical_and(b.charging, b.mask, out=b.charging)
    np.logical_not(b.charging, out=b.idle_mask)
    np.copyto(b.stored, 0.0, where=b.idle_mask)
    # stored is zero wherever not charging, so the plain divide equals
    # the old where(charging, stored/η, 0) select.
    np.divide(b.stored, kernel.charge_efficiency, out=b.bus_charge_kwh)

    # --- Discharge path (BatteryPack._discharge), both conventions.
    np.subtract(soc, kernel.soc_min_kwh, out=b.available)
    np.maximum(b.available, 0.0, out=b.available)
    np.add(b.available, kernel.soc_eps, out=b.tmp)
    np.greater(kernel.drawn_requested, b.tmp, out=b.mask)
    np.copyto(b.drawn, kernel.drawn_requested)
    np.copyto(b.drawn, b.available, where=b.mask)
    np.equal(actions, DISCHARGE, out=b.discharging)
    np.greater(b.drawn, 0.0, out=b.mask)
    np.logical_and(b.discharging, b.mask, out=b.discharging)
    np.logical_not(b.discharging, out=b.idle_mask)
    np.copyto(b.drawn, 0.0, where=b.idle_mask)
    np.multiply(b.drawn, kernel.bus_per_drawn, out=b.bus_discharge_kwh)

    # Applied action: requested unless the clip degraded it to IDLE.
    np.copyto(applied, IDLE)
    np.copyto(applied, CHARGE, where=b.charging)
    np.copyto(applied, DISCHARGE, where=b.discharging)

    # Battery bus power and the SoC advance.
    np.subtract(b.bus_charge_kwh, b.bus_discharge_kwh, out=p_bp)
    np.divide(p_bp, kernel.dt_h, out=p_bp)
    np.add(soc, b.stored, out=b.new_soc)
    np.subtract(b.new_soc, b.drawn, out=b.new_soc)


class FleetSimulation:
    """Advance a whole fleet through :class:`FleetInputs`, slot by slot."""

    def __init__(
        self,
        params: FleetParams,
        inputs: FleetInputs,
        *,
        initial_soc_fraction: float | np.ndarray = 0.5,
        feeders: FeederGroup | None = None,
        voll_per_kwh: float = 0.0,
        storage: str = "dense",
        window: int | None = None,
    ) -> None:
        if params.n_hubs != inputs.n_hubs:
            raise FleetError(
                f"params describe {params.n_hubs} hubs but inputs carry "
                f"{inputs.n_hubs}"
            )
        self.params = params
        self.inputs = inputs
        self.feeders = feeders or FeederGroup.unlimited(params.n_hubs)
        if self.feeders.n_hubs != params.n_hubs:
            raise FleetError(
                f"feeder group assigns {self.feeders.n_hubs} hubs but the "
                f"fleet has {params.n_hubs}"
            )
        if self.feeders.horizon is not None and self.feeders.horizon != inputs.horizon:
            raise FleetError(
                f"feeder capacity horizon {self.feeders.horizon} does not "
                f"match the input horizon {inputs.horizon}"
            )
        # Skip the allocation step entirely when no limit can ever bind, so
        # the uncoupled default pays nothing for the coupling machinery.
        self._coupled = not self.feeders.is_unlimited
        #: Action-independent slot planes, shared across resets.
        self.planes = SlotPlanes(params, inputs)
        self._outage = self.planes.outage
        self._initial_soc = self._as_soc_fraction(initial_soc_fraction)
        self.voll_per_kwh = float(voll_per_kwh)
        self._horizon = inputs.horizon
        #: Optional telemetry session (attach_telemetry). The hot step
        #: guards every hook behind one ``is not None`` branch, so a run
        #: without telemetry pays nothing for the instrumentation.
        self._telemetry = None
        #: Book storage layout: "dense" keeps full (n_hubs, horizon)
        #: columns; "windowed" folds committed slots into running
        #: aggregates over a bounded ring (memory stops scaling with the
        #: horizon). The kernel branches once per step to refresh the
        #: exogenous ring columns the dense path pre-fills at reset.
        self._book_storage = storage
        self._book_window = window
        self._windowed_book = storage == "windowed"
        self._precompute_constants()
        self._allocate_buffers()
        self.book = self._new_book()
        self._t = 0
        self.soc_kwh = self._reset_soc(self._initial_soc)
        self.throughput_kwh = np.zeros(params.n_hubs, np.float64)

    def _new_book(self) -> FleetCostBook:
        """A fresh cost book with the exogenous columns pre-filled.

        The BS draw, renewables, prices, blackout mask, and the
        non-blackout CS draw/revenue never depend on actions, so they are
        bulk-copied from the plane cache once per run instead of column
        by column on every step; the kernel only *fixes up* blackout rows.
        Unrecorded slots simply hold their (deterministic) future values —
        every aggregate reads the recorded range only.

        A windowed book has no full columns to pre-fill: the kernel
        refreshes the exogenous ring columns slot by slot instead.
        """
        book = FleetCostBook(
            self.params.n_hubs,
            self._horizon,
            feeders=self.feeders,
            voll_per_kwh=self.voll_per_kwh,
            storage=self._book_storage,
            window=self._book_window,
        )
        if self._windowed_book:
            return book
        planes = self.planes
        book.blackout[:] = planes.outage
        book.p_bs_kw[:] = planes.p_bs_kw
        book.p_cs_kw[:] = planes.p_cs_kw
        book.p_pv_kw[:] = self.inputs.pv_power_kw
        book.p_wt_kw[:] = self.inputs.wt_power_kw
        book.rtp_kwh[:] = self.inputs.rtp_kwh
        book.srtp_kwh[:] = planes.srtp_kwh
        book.revenue[:] = planes.revenue
        return book

    def _precompute_constants(self) -> None:
        """Action- and state-independent per-hub scalars of the battery step."""
        params = self.params
        dt = params.dt_h
        # Charge path: the stored energy a full-rate charge requests.
        self._stored_requested = params.charge_rate_kw * dt * params.charge_efficiency
        # Discharge path, both efficiency conventions: paper-exact moves
        # SoC by η·R; physical draws R/η (see BatteryPack._discharge).
        eta_dch = params.discharge_efficiency
        requested_bus_kwh = params.discharge_rate_kw * dt
        self._drawn_requested = np.where(
            params.paper_exact, requested_bus_kwh * eta_dch, requested_bus_kwh / eta_dch
        )
        self._bus_per_drawn = np.where(params.paper_exact, 1.0, eta_dch)
        # Eq. 6 reserve efficiency (blackout branch + feeder shortfalls).
        self._reserve_eta = np.where(params.paper_exact, 1.0, eta_dch)
        # Interconnection limit: 0 disables the check (GridConnection rule).
        self._limit_active = params.import_limit_kw > 0.0
        self._any_import_limit = bool(self._limit_active.any())
        #: The battery block's constants, handed to ``_resolve_battery``
        #: each step (one namespace instead of re-reading params
        #: attributes inside the hot loop).
        self._kernel = SimpleNamespace(
            soc_max_kwh=params.soc_max_kwh,
            soc_min_kwh=params.soc_min_kwh,
            charge_efficiency=params.charge_efficiency,
            stored_requested=self._stored_requested,
            drawn_requested=self._drawn_requested,
            bus_per_drawn=self._bus_per_drawn,
            dt_h=dt,
            soc_eps=_SOC_EPS,
        )

    def _allocate_buffers(self) -> None:
        """Reusable ``out=`` buffers so the hot step allocates nothing."""
        n = self.params.n_hubs

        def f():
            return np.empty(n, np.float64)

        self._buf = SimpleNamespace(
            headroom=f(),
            available=f(),
            stored=f(),
            drawn=f(),
            bus_charge_kwh=f(),
            bus_discharge_kwh=f(),
            new_soc=f(),
            residual=f(),
            throughput=f(),
            tmp=f(),
            mask=np.empty(n, np.bool_),
            charging=np.empty(n, np.bool_),
            discharging=np.empty(n, np.bool_),
            idle_mask=np.empty(n, np.bool_),
        )

    def _as_soc_fraction(self, fraction: float | np.ndarray) -> np.ndarray:
        fractions = np.broadcast_to(
            np.asarray(fraction, dtype=float), (self.params.n_hubs,)
        ).copy()
        if fractions.min() < 0.0 or fractions.max() > 1.0:
            raise ConfigError(
                f"initial_soc_fraction must be in [0, 1], got {fraction}"
            )
        return fractions

    def _reset_soc(self, fractions: np.ndarray) -> np.ndarray:
        # Mirrors BatteryPack.reset: target clipped into the legal window.
        target = fractions * self.params.capacity_kwh
        return np.minimum(
            np.maximum(target, self.params.soc_min_kwh), self.params.soc_max_kwh
        )

    # ------------------------------------------------------------------ #
    # State                                                                #
    # ------------------------------------------------------------------ #

    @property
    def n_hubs(self) -> int:
        """Number of hubs stepped together."""
        return self.params.n_hubs

    @property
    def t(self) -> int:
        """Next slot index to simulate."""
        return self._t

    @property
    def horizon(self) -> int:
        """Total number of slots."""
        return self._horizon

    @property
    def done(self) -> bool:
        """Whether the horizon has been exhausted."""
        return self._t >= self._horizon

    @property
    def soc_fraction(self) -> np.ndarray:
        """Per-hub state of charge as a fraction of capacity."""
        return self.soc_kwh / self.params.capacity_kwh

    def attach_telemetry(self, telemetry) -> None:
        """Attach (or detach with ``None``) a :class:`~repro.telemetry.
        session.Telemetry` session.

        While attached, every step books engine counters (hub-slots,
        blackout rows, feeder congestion, Eq. 6 reserve dispatches), a
        per-step duration histogram, and a per-slot ``allocation`` timer
        on coupled fleets. The booked numbers are observational only —
        the simulated run is bit-identical with or without a session.
        """
        self._telemetry = telemetry

    def reset(self, *, soc_fraction: float | np.ndarray | None = None) -> None:
        """Rewind to slot 0 and reset batteries and the fleet cost book.

        The :class:`SlotPlanes` cache and step buffers are retained — they
        depend only on the immutable params/inputs, not on the run.
        """
        self._t = 0
        if self._telemetry is not None:
            self._telemetry.metrics.inc("engine.resets")
        self.book = self._new_book()
        fractions = (
            self._initial_soc
            if soc_fraction is None
            else self._as_soc_fraction(soc_fraction)
        )
        self.soc_kwh = self._reset_soc(fractions)
        self.throughput_kwh = np.zeros(self.params.n_hubs, np.float64)

    # ------------------------------------------------------------------ #
    # Stepping                                                             #
    # ------------------------------------------------------------------ #

    def _check_actions(self, actions: np.ndarray) -> None:
        """Cheap exact membership check for {-1, 0, 1} (no ``np.isin``).

        Integer dtypes only need a min/max range check; float dtypes use
        three equality compares (0.5 or NaN never equals a legal action).
        Exotic dtypes fall back to the full ``np.isin``.
        """
        kind = actions.dtype.kind
        if kind in "iub":
            if int(actions.min()) < -1 or int(actions.max()) > 1:
                raise FleetError("battery actions must be -1, 0, or 1")
        elif kind == "f":
            valid = (
                (actions == DISCHARGE) | (actions == IDLE) | (actions == CHARGE)
            )
            if not valid.all():
                raise FleetError("battery actions must be -1, 0, or 1")
        elif not np.isin(actions, _ACTIONS).all():
            raise FleetError("battery actions must be -1, 0, or 1")

    def step(self, actions: np.ndarray) -> dict[str, np.ndarray]:
        """Apply one battery action per hub to the current slot.

        ``actions`` has shape ``(n_hubs,)`` with entries in {−1, 0, 1}.
        Returns the recorded slot columns as read-side views into the
        cost book (arrays of shape ``(n_hubs,)``).
        """
        if self.done:
            raise FleetError(f"fleet horizon of {self.horizon} slots exhausted")
        actions = np.asarray(actions)
        if actions.shape != (self.n_hubs,):
            raise FleetError(
                f"actions must have shape ({self.n_hubs},), got {actions.shape}"
            )
        self._check_actions(actions)

        tele = self._telemetry
        step_start = time.perf_counter() if tele is not None else 0.0

        t = self._t
        params = self.params
        dt = params.dt_h
        planes = self.planes
        b = self._buf
        soc = self.soc_kwh
        book = self.book
        # The slot is resolved directly into the book's storage through
        # these writable column views; it only becomes visible to the
        # aggregates at commit_slot, so a mid-step raise books nothing.
        dest = book.begin_slot(t)
        if self._windowed_book:
            # The ring column may hold an evicted slot's values; rewrite
            # the exogenous columns the dense path bulk-fills at reset
            # and zero the branch-written ones (every other column is
            # overwritten unconditionally below).
            inputs = self.inputs
            np.copyto(dest["blackout"], planes.outage[:, t])
            np.copyto(dest["p_bs_kw"], planes.p_bs_kw[:, t])
            np.copyto(dest["p_cs_kw"], planes.p_cs_kw[:, t])
            np.copyto(dest["p_pv_kw"], inputs.pv_power_kw[:, t])
            np.copyto(dest["p_wt_kw"], inputs.wt_power_kw[:, t])
            np.copyto(dest["rtp_kwh"], inputs.rtp_kwh[:, t])
            np.copyto(dest["srtp_kwh"], planes.srtp_kwh[:, t])
            np.copyto(dest["revenue"], planes.revenue[:, t])
            np.copyto(dest["unserved_kwh"], 0.0)
            np.copyto(dest["import_shortfall_kw"], 0.0)
        applied = dest["action"]
        p_bp = dest["p_bp_kw"]
        p_grid = dest["p_grid_kw"]
        surplus = dest["surplus_kw"]
        unserved = dest["unserved_kwh"]

        # --- Battery block (BatteryPack._charge/_discharge fused):
        # resolves stored/drawn energy, the applied action, the battery
        # bus power, and the SoC advance.
        _resolve_battery(self._kernel, soc, actions, b, applied, p_bp)

        # --- Eq. 7 (EctHub.power_balance): import the residual, curtail
        # surplus. The action-independent part comes from the plane cache.
        np.add(planes.residual_static_kw[:, t], p_bp, out=b.residual)
        np.maximum(b.residual, 0.0, out=p_grid)
        np.negative(b.residual, out=surplus)
        np.maximum(surplus, 0.0, out=surplus)
        np.add(b.stored, b.drawn, out=b.throughput)

        # The exogenous columns (BS/CS draw, renewables, prices, blackout
        # mask, non-blackout revenue) were bulk-filled at reset; the
        # unserved/shortfall columns start zeroed and are only re-zeroed
        # when a branch below may write them.
        outage_now = bool(planes.outage_any[t])
        coupled = self._coupled
        if outage_now or coupled:
            np.copyto(unserved, 0.0)

        # --- Blackout branch, only on the rows whose outage fires now
        # (HubSimulation._blackout_slot + BatteryPack.emergency_supply:
        # charging suspended, the action overridden, SoC allowed below
        # SoC_min). Most slots skip this block entirely.
        if outage_now:
            dark = np.flatnonzero(planes.outage[:, t])
            dest["p_cs_kw"][dark] = 0.0
            dest["revenue"][dark] = 0.0

            soc_pre = soc[dark]
            deficit_kwh = planes.blackout_deficit_kwh[dark, t]
            eta = self._reserve_eta[dark]
            drawn_dark = np.minimum(deficit_kwh / eta, soc_pre)
            served_kwh = drawn_dark * eta
            p_bp[dark] = np.where(served_kwh > 0.0, -served_kwh / dt, 0.0)
            p_grid[dark] = 0.0
            surplus[dark] = planes.blackout_surplus_kw[dark, t]
            b.new_soc[dark] = soc_pre - drawn_dark
            b.throughput[dark] = drawn_dark
            unserved[dark] = deficit_kwh - served_kwh
            applied[dark] = IDLE
            if tele is not None:
                tele.metrics.inc("engine.blackout_hub_slots", dark.size)
                tele.metrics.inc(
                    "engine.reserve_dispatches",
                    int(np.count_nonzero(drawn_dark > 0.0)),
                )

        # The per-hub interconnection limit applies to the *requested*
        # import, before any feeder-level curtailment (blackout rows
        # request 0 kW, so a positive limit can never fire there).
        if self._any_import_limit:
            np.greater(p_grid, params.import_limit_kw, out=b.mask)
            np.logical_and(b.mask, self._limit_active, out=b.mask)
            if b.mask.any():
                hub = int(np.argmax(b.mask))
                raise GridError(
                    f"hub {hub}: import of {p_grid[hub]:.3f} kW exceeds the "
                    f"interconnection limit of "
                    f"{params.import_limit_kw[hub]:.3f} kW"
                )

        if coupled:
            # Resolve feeder contention; the curtailed import is served
            # from the Eq. 6 reserve exactly like a blackout deficit
            # (blackout hubs request 0 import, so they pass through).
            if tele is None:
                granted, shortfall_kw = self.feeders.allocate(p_grid, t)
            else:
                alloc_start = time.perf_counter()
                granted, shortfall_kw = self.feeders.allocate(p_grid, t)
                tele.metrics.add_time(
                    "allocation", time.perf_counter() - alloc_start
                )
            np.copyto(p_grid, granted)
            np.copyto(dest["import_shortfall_kw"], shortfall_kw)
            shortfall_kwh = shortfall_kw * dt
            eta = self._reserve_eta
            drawn_short = np.minimum(shortfall_kwh / eta, b.new_soc)
            served_kwh = drawn_short * eta
            p_bp -= np.where(drawn_short > 0.0, served_kwh / dt, 0.0)
            b.new_soc -= drawn_short
            b.throughput += drawn_short
            # (x/η)·η can exceed x by one ulp — never book negative unserved.
            unserved += np.maximum(shortfall_kwh - served_kwh, 0.0)
            if tele is not None:
                congested = int(np.count_nonzero(shortfall_kw > 0.0))
                if congested:
                    tele.metrics.inc("engine.congested_hub_slots", congested)
                    tele.metrics.inc(
                        "engine.curtailed_kwh", float(shortfall_kwh.sum())
                    )
                    tele.metrics.inc(
                        "engine.reserve_dispatches",
                        int(np.count_nonzero(drawn_short > 0.0)),
                    )

        # Eqs. 8, 9, 11 — identical expressions to compute_slot_ledger.
        np.multiply(p_grid, planes.rtp_dt[:, t], out=dest["grid_cost"])
        np.not_equal(applied, IDLE, out=b.mask)
        np.multiply(b.mask, params.c_bp_per_slot, out=dest["bp_cost"])

        # Commit the battery state as fresh arrays (like the PR-3 engine)
        # so caller-held `soc_kwh`/`throughput_kwh` snapshots stay valid
        # forever; the scratch buffers are reused next step.
        self.soc_kwh = b.new_soc.copy()
        np.copyto(dest["soc_kwh"], self.soc_kwh)
        self.throughput_kwh = self.throughput_kwh + b.throughput

        book.commit_slot(t)
        self._t += 1
        if tele is not None:
            tele.metrics.inc("engine.slots")
            tele.metrics.inc("engine.hub_slots", self.params.n_hubs)
            tele.metrics.observe(
                "engine.step_seconds", time.perf_counter() - step_start
            )
        # The views were the kernel's write targets; hand them out
        # read-only so a caller cannot silently corrupt the booked slot.
        for column in dest.values():
            column.flags.writeable = False
        return dest

    def available_import_kw(self) -> np.ndarray:
        """Per-hub feeder headroom signal for the *current* slot.

        Each hub's action-independent grid draw (BS + CS load net of
        renewables, zero during a blackout) is read from the
        :class:`SlotPlanes` cache and charged against its feeder; the
        remaining capacity is fair-shared over the feeder's members.
        Congestion-aware schedulers charge only when the battery's extra
        import fits this signal. Infinite under the unlimited default.
        """
        if self.done:
            raise FleetError(f"fleet horizon of {self.horizon} slots exhausted")
        t = self._t
        return self.feeders.available_import_kw(
            self.planes.base_import_kw[:, t], t
        )

    def run(self, scheduler) -> FleetCostBook:
        """Run the remaining horizon under ``scheduler(simulation) -> actions``.

        ``scheduler`` may expose a ``reset(simulation)`` hook (the fleet
        schedulers do); it is invoked once before stepping. Every action
        batch still gets exact membership validation — the per-step check
        in :meth:`_check_actions` rejects everything ``np.isin`` would,
        just without its sort-based cost. Returns the completed
        :class:`FleetCostBook`.
        """
        reset_hook = getattr(scheduler, "reset", None)
        if callable(reset_hook):
            reset_hook(self)
        while not self.done:
            self.step(scheduler(self))
        return self.book
