"""Batch-stepping engine: advance N ECT-Hubs per slot with NumPy.

:class:`FleetSimulation` is the program's simulation engine (one hub is a
fleet of one). Per slot it applies one battery action per hub, resolves the Eq. 7 power balance, books Eqs. 8–11,
and overrides blackout slots (grid import zeroed, charging suspended, the
Eq. 6 emergency reserve carrying the base stations) — for **all hubs at
once** over :class:`~repro.fleet.params.FleetParams` /
:class:`~repro.fleet.inputs.FleetInputs` struct-of-arrays state.

The step is a **fused kernel**: the action-independent draws, prices,
revenue and static residual are read from the
:class:`~repro.fleet.planes.SlotPlanes` cache computed once per engine
(which a dense book's exogenous columns view, copying nothing), the
balance and book columns are written with ``out=`` straight into the cost
books' storage, and the Eq. 6 blackout branch — deficit and surplus
included — is evaluated only on the hub rows whose outage mask fires that
slot. Every expression still mirrors the order of operations of the
one-hub-at-a-time scalar engine frozen in ``tests/scalar_oracle``
(``BatteryPack._charge`` / ``_discharge`` / ``emergency_supply``,
``EctHub.power_balance``, ``compute_slot_ledger``), so a batched run
stays numerically equivalent to N independent scalar runs; the
property-style test in ``tests/test_fleet.py`` enforces agreement within
atol 1e-9.

Core and finish: Eqs. 7–11 split into a sequential part and an
elementwise one. The **core** — the battery block, the Eq. 7 import, the
blackout rows, the import-limit check, the feeder allocation with its
Eq. 6 reserve draw, and the SoC — reads the previous slot's SoC, so it
runs once per slot; it leaves the Eq. 7 residual in the surplus column.
The **finish** — the curtailed surplus ``max(-residual, 0)``, ``C_grid``,
``C_BP`` and every book's commit — is elementwise over slots. The public
:meth:`FleetSimulation.step` runs the core and then a one-slot finish
over the slot views the core holds. An open-loop
:meth:`FleetSimulation.run_jobs` knows a whole block's actions before it
steps them: it validates them once, runs the core slot by slot and
finishes the block at once, booking every slot bit for bit as the
per-slot path does.

Shared-grid coupling: hubs may be grouped onto common feeders with finite
import capacity (:class:`~repro.fleet.grid.FeederGroup`). After the
per-hub balance is resolved, the feeder allocation step curtails imports
wherever a group's aggregate draw exceeds its limit; the curtailed
energy is served from the Eq. 6 battery reserve (the same arithmetic as a
blackout slot) and whatever the reserve cannot cover is booked as
unserved. Under the default unlimited feeder the coupled step is
bit-identical to the uncoupled one.

Job axis: ``n_jobs > 1`` stacks several runs of one fleet — jobs that
differ only in their feeder policy, initial SoC, VoLL and scheduler —
into one engine, so a same-fleet sweep pays the per-step numpy overhead
once per slot instead of once per job. Battery state and the
action-dependent book columns gain a leading ``(n_jobs, n_hubs)`` axis;
params, inputs, slot planes and the exogenous book columns are shared
and broadcast. Every kernel expression is elementwise over hubs, feeder
sums are ``bincount`` sums in hub order, and each job's book is a
C-contiguous row block, so each job's book is bit-identical to its
standalone run's.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..energy.battery import CHARGE, DISCHARGE, IDLE
from ..errors import ConfigError, FleetError, GridError
from .costs import FleetCostBook, column_dtype
from .grid import FeederGroup
from .inputs import FleetInputs
from .params import FleetParams
from .planes import SlotPlanes

#: SoC-bound tolerance, identical to the scalar ``BatteryPack`` clipping.
_SOC_EPS = 1e-12

#: The legal action set, used by the full (non-hot-path) validation.
_ACTIONS = (DISCHARGE, IDLE, CHARGE)

#: Hub-slots of actions one block of :meth:`FleetSimulation.run_jobs`
#: plans at once: enough slots to amortise the scheduler calls, few
#: enough that a city-size fleet's block stays a small fraction of its
#: book (2000 hubs plan 32-slot blocks).
_BLOCK_HUB_SLOTS = 2**16


def _read_only(column: np.ndarray) -> np.ndarray:
    """A read-only alias of ``column``: every slice of it is read-only too."""
    alias = column.view()
    alias.flags.writeable = False
    return alias


def _resolve_battery(kernel, soc, actions, applied, p_bp):
    """The battery block of one fused slot step, for all hubs at once.

    ``kernel`` holds the engine's per-hub constants; ``soc``/``actions``
    are read-only inputs of the engine's state shape (``(n_hubs,)``, or
    ``(n_jobs, n_hubs)`` stacked). Writes ``applied`` / ``p_bp`` (cost-book
    column views) and returns the advanced SoC as a fresh array. On a
    fleet this small every numpy call costs about the same, so the block
    is written for the fewest calls: one ``np.where`` per clip, and the
    degrade to IDLE as a product with the action mask (the energies are
    >= 0, so it zeroes them to ``+0.0`` exactly like a select).
    """
    # --- Charge path (BatteryPack._charge): clip the stored energy to
    # the SoC_max headroom; a fully-clipped request degrades to IDLE.
    headroom = np.maximum(kernel.soc_max_kwh - soc, 0.0)
    requested = kernel.stored_requested
    stored = np.where(requested > headroom + kernel.soc_eps, headroom, requested)
    charging = (actions == CHARGE) & (stored > 0.0)
    stored = stored * charging

    # --- Discharge path (BatteryPack._discharge), both conventions.
    available = np.maximum(soc - kernel.soc_min_kwh, 0.0)
    requested = kernel.drawn_requested
    drawn = np.where(requested > available + kernel.soc_eps, available, requested)
    discharging = (actions == DISCHARGE) & (drawn > 0.0)
    drawn = drawn * discharging

    # Applied action: requested unless the clip degraded it to IDLE
    # (CHARGE = 1, DISCHARGE = -1, IDLE = 0; at most one mask is set).
    np.subtract(charging, discharging, out=applied, dtype=applied.dtype)

    # Battery bus power and the SoC advance. stored is zero wherever not
    # charging, so the plain divide equals a where(charging, stored/η, 0).
    p_bp[...] = (
        stored / kernel.charge_efficiency - drawn * kernel.bus_per_drawn
    ) / kernel.dt_h
    return (soc + stored) - drawn


class FleetSimulation:
    """Advance a whole fleet through :class:`FleetInputs`, slot by slot.

    With ``n_jobs > 1`` the engine steps several jobs over the same fleet
    at once (see the module docstring): ``feeders`` and ``voll_per_kwh``
    then take one entry per job (a single value is shared),
    ``initial_soc_fraction`` broadcasts to ``(n_jobs, n_hubs)``,
    :meth:`step` takes ``(n_jobs, n_hubs)`` actions, :meth:`run_jobs`
    drives one scheduler per job, and :attr:`books` holds one cost book
    per job. :attr:`n_hubs` counts the hub columns stepped,
    ``n_jobs x params.n_hubs``.
    """

    def __init__(
        self,
        params: FleetParams,
        inputs: FleetInputs,
        *,
        initial_soc_fraction: float | np.ndarray = 0.5,
        feeders: FeederGroup | Sequence[FeederGroup] | None = None,
        voll_per_kwh: float | Sequence[float] = 0.0,
        storage: str = "dense",
        n_jobs: int = 1,
    ) -> None:
        if params.n_hubs != inputs.n_hubs:
            raise FleetError(
                f"params describe {params.n_hubs} hubs but inputs carry "
                f"{inputs.n_hubs}"
            )
        if int(n_jobs) < 1:
            raise FleetError(f"n_jobs must be positive, got {n_jobs}")
        self.params = params
        self.inputs = inputs
        self.n_jobs = int(n_jobs)
        #: Shape of the battery state and of every per-job slot column.
        self._shape = (
            (params.n_hubs,) if self.n_jobs == 1 else (self.n_jobs, params.n_hubs)
        )
        #: Each job's own feeders (its policy, capacities and topology).
        self.job_feeders = tuple(
            group or FeederGroup.unlimited(params.n_hubs)
            for group in self._per_job(feeders, "feeder groups")
        )
        for group in self.job_feeders:
            if group.n_hubs != params.n_hubs:
                raise FleetError(
                    f"feeder group assigns {group.n_hubs} hubs but the "
                    f"fleet has {params.n_hubs}"
                )
            if group.horizon is not None and group.horizon != inputs.horizon:
                raise FleetError(
                    f"feeder capacity horizon {group.horizon} does not "
                    f"match the input horizon {inputs.horizon}"
                )
        #: The group one allocate call per slot resolves: the job's own
        #: feeders, or every job's feeders stacked with offset ids.
        self.feeders = (
            self.job_feeders[0]
            if self.n_jobs == 1
            else FeederGroup.stack(self.job_feeders)
        )
        # Skip the allocation step entirely when no limit can ever bind, so
        # the uncoupled default pays nothing for the coupling machinery.
        self._coupled = not self.feeders.is_unlimited
        #: Action-independent slot planes, shared across resets and jobs.
        self.planes = SlotPlanes(params, inputs)
        self._outage = self.planes.outage
        self._initial_soc = self._as_soc_fraction(initial_soc_fraction)
        self.job_voll_per_kwh = tuple(
            float(voll) for voll in self._per_job(voll_per_kwh, "VoLL values")
        )
        self.voll_per_kwh = self.job_voll_per_kwh[0]
        self._horizon = inputs.horizon
        #: Optional telemetry sessions, one per job (attach_telemetry). The
        #: hot step guards every hook behind one ``is not None`` branch, so
        #: a run without telemetry pays nothing for the instrumentation.
        self._telemetry = None
        #: Book storage layout: "dense" keeps full (n_hubs, horizon)
        #: columns; "windowed" folds committed slots into running
        #: aggregates over a bounded ring (the book's memory stops scaling
        #: with the horizon; the planes and inputs still span it). The
        #: kernel branches once per step to refresh the exogenous ring
        #: columns the dense path pre-fills at reset.
        self._book_storage = storage
        self._windowed_book = storage == "windowed"
        self._precompute_constants()
        #: Reusable ``out=`` scratch of the import-limit check.
        self._limit_mask = np.empty(self._shape, np.bool_)
        self._books = self._new_books()
        self._t = 0
        self.soc_kwh = self._reset_soc(self._initial_soc)

    def _per_job(self, value, what: str) -> tuple:
        """One entry per job: a sequence as given, anything else shared."""
        if isinstance(value, (list, tuple)):
            if len(value) != self.n_jobs:
                raise FleetError(f"{len(value)} {what} for {self.n_jobs} jobs")
            return tuple(value)
        return (value,) * self.n_jobs

    def _new_books(self) -> tuple[FleetCostBook, ...]:
        """Fresh cost books, one per job, over the engine's own storage.

        The exogenous columns (BS draw, renewables, prices, blackout mask,
        CS draw and revenue) never depend on actions: every job shares
        them, and a dense book's are read-only views of the plane cache
        and the input traces, which already hold the booked values (the
        planes zero the CS draw and revenue on outage cells), so a run
        copies none of them. Unrecorded slots simply hold their
        (deterministic) future values — every aggregate reads the
        recorded range only. The action columns are ``(n_jobs * n_hubs,
        width)`` arrays whose job row blocks are each book's columns.

        A windowed book's exogenous columns are rings of its own, which
        the kernel refreshes from the same planes block by block.
        """
        n_hubs, n_jobs, horizon = self.params.n_hubs, self.n_jobs, self._horizon
        width = FleetCostBook.slot_width(horizon, self._book_storage)
        if self._windowed_book:
            shared = {
                name: np.zeros((n_hubs, width), column_dtype(name))
                for name in FleetCostBook.EXOGENOUS_COLUMNS
            }
        else:
            planes = self._exogenous_planes()
            shared = {
                name: _read_only(np.asarray(planes[name], column_dtype(name)))
                for name in FleetCostBook.EXOGENOUS_COLUMNS
            }
        stacked = {
            name: np.zeros((n_jobs * n_hubs, width), column_dtype(name))
            for name in FleetCostBook.ACTION_COLUMNS
        }
        #: The exogenous columns: plane views (dense) or the rings the
        #: kernel rewrites (windowed).
        self._exogenous = shared
        # The action columns are kept as views in the state shape plus the
        # slot axis (the job row blocks are contiguous, so this reshapes
        # freely): ``column[..., slot]`` is then one slot in the shape a
        # step reads and writes, as the shared ``(n_hubs, width)`` columns'.
        state_shape = (*self._shape, width)
        #: The action-column views the kernel writes, in
        #: ``FleetCostBook.ACTION_COLUMNS`` order.
        self._kernel_columns = tuple(
            stacked[name].reshape(state_shape)
            for name in FleetCostBook.ACTION_COLUMNS
        )
        #: Read-only aliases of every column: a step hands out slices of
        #: these, so a caller cannot corrupt a booked slot.
        self._read_columns = (
            *((name, _read_only(column)) for name, column in shared.items()),
            *(
                (name, _read_only(column).reshape(state_shape))
                for name, column in stacked.items()
            ),
        )
        self._slot_width = width
        return tuple(
            FleetCostBook(
                n_hubs,
                horizon,
                feeders=self.job_feeders[job],
                voll_per_kwh=self.job_voll_per_kwh[job],
                storage=self._book_storage,
                columns={
                    **shared,
                    **{
                        name: column[job * n_hubs : (job + 1) * n_hubs]
                        for name, column in stacked.items()
                    },
                },
            )
            for job in range(n_jobs)
        )

    def _exogenous_planes(self) -> dict[str, np.ndarray]:
        """The plane or input trace each exogenous book column books."""
        planes, inputs = self.planes, self.inputs
        return {
            "blackout": planes.outage,
            "p_bs_kw": planes.p_bs_kw,
            "p_cs_kw": planes.p_cs_kw,
            "p_pv_kw": inputs.pv_power_kw,
            "p_wt_kw": inputs.wt_power_kw,
            "rtp_kwh": inputs.rtp_kwh,
            "srtp_kwh": planes.srtp_kwh,
            "revenue": planes.revenue,
        }

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

    def _as_soc_fraction(self, fraction: float | np.ndarray) -> np.ndarray:
        fractions = np.broadcast_to(
            np.asarray(fraction, dtype=float), self._shape
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
        """Number of hub columns stepped together (jobs x hubs)."""
        return self.n_jobs * self.params.n_hubs

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
    def books(self) -> tuple[FleetCostBook, ...]:
        """One cost book per job, in job order."""
        return self._books

    def attach_telemetry(self, telemetry) -> None:
        """Attach (or detach with ``None``) a :class:`~repro.telemetry.
        session.Telemetry` session — on a stacked engine, one per job (a
        single session books every job).

        While attached, every step books each job's engine counters
        (hub-slots, blackout rows, feeder congestion, Eq. 6 reserve
        dispatches), a per-step duration histogram, and a per-slot
        ``allocation`` timer on coupled fleets; a stacked step books each
        job an equal share of its time. The booked numbers are
        observational only — the simulated run is bit-identical with or
        without a session.
        """
        self._telemetry = (
            None
            if telemetry is None
            else self._per_job(telemetry, "telemetry sessions")
        )

    def reset(self, *, soc_fraction: float | np.ndarray | None = None) -> None:
        """Rewind to slot 0 and reset batteries and the fleet cost books.

        The :class:`SlotPlanes` cache and step buffers are retained — they
        depend only on the immutable params/inputs, not on the run.
        """
        self._t = 0
        if self._telemetry is not None:
            for session in self._telemetry:
                session.metrics.inc("engine.resets")
        self._books = self._new_books()
        fractions = (
            self._initial_soc
            if soc_fraction is None
            else self._as_soc_fraction(soc_fraction)
        )
        self.soc_kwh = self._reset_soc(fractions)

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

    def step(
        self,
        actions: np.ndarray,
        *,
        validated: bool = False,
        finish: bool = True,
    ) -> dict[str, np.ndarray] | None:
        """Apply one battery action per hub to the current slot.

        ``actions`` has the state shape — ``(n_hubs,)``, or ``(n_jobs,
        n_hubs)`` on a stacked engine — with entries in {−1, 0, 1}.
        Returns the recorded slot columns as read-side views into the
        cost books: the action columns in the state shape, the shared
        exogenous columns ``(n_hubs,)``. ``validated=True`` skips the
        shape and membership checks for a caller that has already made
        them (:meth:`repro.rl.fleet_env.FleetEnv.step` checks its action
        codes before mapping them to these).

        The step is the sequential core of the slot (battery, Eq. 7
        import, blackout rows, import limit, feeder allocation with its
        reserve draw, the SoC) followed by a one-slot finish (the
        elementwise surplus and Eqs. 8–9 columns, then the commit).
        ``finish=False`` runs the core only and returns ``None``: the
        open-loop :meth:`run_jobs` steps a whole block that way and then
        finishes and commits the block at once. The slot stays out of the
        books until that finish, so only a block run may pass it.
        """
        if self.done:
            raise FleetError(f"fleet horizon of {self.horizon} slots exhausted")
        if not validated:
            actions = np.asarray(actions)
            if actions.shape != self._shape:
                raise FleetError(
                    f"actions must have shape {self._shape}, got {actions.shape}"
                )
            self._check_actions(actions)

        tele = self._telemetry
        step_start = time.perf_counter() if tele is not None else 0.0

        t = self._t
        params = self.params
        dt = params.dt_h
        planes = self.planes
        soc = self.soc_kwh
        # The slot is resolved directly into the books' storage through
        # these writable column views; it only becomes visible to the
        # aggregates at the commit, so a mid-step raise books nothing.
        # Dense columns start zeroed at reset and every write below is an
        # assignment except the coupled unserved ``+=``, which follows the
        # last raise, so a slot stepped again after a raise books the
        # same values.
        slot = t % self._slot_width if self._windowed_book else t
        columns = [column[..., slot] for column in self._kernel_columns]
        (  # FleetCostBook.ACTION_COLUMNS order
            applied,
            p_bp,
            p_grid,
            surplus,
            booked_soc,
            _,
            _,
            unserved,
            shortfall,
        ) = columns
        if finish and self._windowed_book:
            self._refresh_ring(t, t + 1)

        # --- Battery block (BatteryPack._charge/_discharge fused):
        # resolves stored/drawn energy, the applied action, the battery
        # bus power, and the SoC advance.
        new_soc = _resolve_battery(
            self._kernel, soc, actions, applied, p_bp
        )

        # --- Eq. 7 (EctHub.power_balance): import the residual. The
        # action-independent part comes from the plane cache; the residual
        # itself waits in the surplus column for the finish to curtail.
        np.add(planes.residual_static_kw[:, t], p_bp, out=surplus)
        np.maximum(surplus, 0.0, out=p_grid)

        # --- Blackout branch, only on the rows whose outage fires now
        # (HubSimulation._blackout_slot + BatteryPack.emergency_supply:
        # charging suspended, the action overridden, SoC allowed below
        # SoC_min). Most slots skip this block entirely. The outage mask
        # is shared, so every job goes dark on the same hub columns. The
        # exogenous columns already book the dark rows (the planes zero
        # their CS draw and revenue); the BS deficit after renewables and
        # the surplus when renewables over-supply are formed here, on the
        # dark rows only.
        if planes.outage_any[t]:
            dark = np.flatnonzero(planes.outage[:, t])
            inputs = self.inputs
            p_bs = planes.p_bs_kw[dark, t]
            renewable = inputs.pv_power_kw[dark, t] + inputs.wt_power_kw[dark, t]
            soc_pre = soc[..., dark]
            deficit_kwh = np.maximum(p_bs - renewable, 0.0) * dt
            eta = self._reserve_eta[dark]
            drawn_dark = np.minimum(deficit_kwh / eta, soc_pre)
            served_kwh = drawn_dark * eta
            p_bp[..., dark] = np.where(served_kwh > 0.0, -served_kwh / dt, 0.0)
            p_grid[..., dark] = 0.0
            # The negated surplus, which the finish's max(-residual, 0)
            # turns back into it exactly (the surplus is >= +0.0).
            surplus[..., dark] = -np.maximum(renewable - p_bs, 0.0)
            new_soc[..., dark] = soc_pre - drawn_dark
            unserved[..., dark] = deficit_kwh - served_kwh
            applied[..., dark] = IDLE
            if tele is not None:
                dispatches = drawn_dark.reshape(self.n_jobs, -1) > 0.0
                for session, job_dispatches in zip(tele, dispatches):
                    session.metrics.inc("engine.blackout_hub_slots", dark.size)
                    session.metrics.inc(
                        "engine.reserve_dispatches",
                        int(np.count_nonzero(job_dispatches)),
                    )

        # The per-hub interconnection limit applies to the *requested*
        # import, before any feeder-level curtailment (blackout rows
        # request 0 kW, so a positive limit can never fire there).
        if self._any_import_limit:
            mask = self._limit_mask
            np.greater(p_grid, params.import_limit_kw, out=mask)
            np.logical_and(mask, self._limit_active, out=mask)
            if mask.any():
                where = np.unravel_index(int(np.argmax(mask)), self._shape)
                hub = int(where[-1])
                job = f"job {int(where[0])}, " if self.n_jobs > 1 else ""
                raise GridError(
                    f"{job}hub {hub}: import of {p_grid[where]:.3f} kW exceeds "
                    f"the interconnection limit of "
                    f"{params.import_limit_kw[hub]:.3f} kW"
                )

        if self._coupled:
            # Resolve feeder contention; the curtailed import is served
            # from the Eq. 6 reserve exactly like a blackout deficit
            # (blackout hubs request 0 import, so they pass through). A
            # stacked engine resolves every job's feeders in one call.
            request = p_grid.reshape(-1)
            if tele is None:
                granted, shortfall_kw = self.feeders.allocate(request, t)
            else:
                alloc_start = time.perf_counter()
                granted, shortfall_kw = self.feeders.allocate(request, t)
                share = (time.perf_counter() - alloc_start) / self.n_jobs
                for session in tele:
                    session.metrics.add_time("allocation", share)
            shortfall_kw = shortfall_kw.reshape(self._shape)
            np.copyto(p_grid, granted.reshape(self._shape))
            np.copyto(shortfall, shortfall_kw)
            # Where no feeder curtailed anybody every term of the draw is
            # +0.0 (the booked unserved is never -0.0), so it is skipped.
            if shortfall_kw.any():
                self._draw_reserve(shortfall_kw, new_soc, p_bp, unserved)

        # Commit the battery state as a fresh array (like the PR-3 engine)
        # so a caller-held `soc_kwh` snapshot stays valid forever; the
        # battery block made `new_soc` this step.
        self.soc_kwh = new_soc
        np.copyto(booked_soc, new_soc)
        self._t += 1
        if finish:
            self._finish(t, t + 1, columns, t, params.c_bp_per_slot)
        if tele is not None:
            share = (time.perf_counter() - step_start) / self.n_jobs
            for session in tele:
                session.metrics.inc("engine.slots")
                session.metrics.inc("engine.hub_slots", params.n_hubs)
                session.metrics.observe("engine.step_seconds", share)
        if not finish:
            return None
        # The write views stay inside the kernel; callers get the slot
        # through the read-only aliases.
        return {name: column[..., slot] for name, column in self._read_columns}

    def _draw_reserve(self, shortfall_kw, new_soc, p_bp, unserved) -> None:
        """Serve a slot's feeder shortfall from the Eq. 6 battery reserve.

        The curtailed import is drawn from the reserve exactly like a
        blackout deficit; ``new_soc``, ``p_bp`` and ``unserved`` (the
        slot's views) are updated in place, and what the reserve cannot
        cover is booked as unserved.
        """
        dt = self.params.dt_h
        shortfall_kwh = shortfall_kw * dt
        eta = self._reserve_eta
        drawn_short = np.minimum(shortfall_kwh / eta, new_soc)
        served_kwh = drawn_short * eta
        p_bp -= np.where(drawn_short > 0.0, served_kwh / dt, 0.0)
        new_soc -= drawn_short
        # (x/η)·η can exceed x by one ulp — never book negative unserved.
        unserved += np.maximum(shortfall_kwh - served_kwh, 0.0)
        tele = self._telemetry
        if tele is not None:
            n_jobs = self.n_jobs
            for session, job_short, job_short_kwh, job_drawn in zip(
                tele,
                shortfall_kw.reshape(n_jobs, -1),
                shortfall_kwh.reshape(n_jobs, -1),
                drawn_short.reshape(n_jobs, -1),
            ):
                congested = int(np.count_nonzero(job_short > 0.0))
                if congested:
                    session.metrics.inc("engine.congested_hub_slots", congested)
                    session.metrics.inc(
                        "engine.curtailed_kwh", float(job_short_kwh.sum())
                    )
                    session.metrics.inc(
                        "engine.reserve_dispatches",
                        int(np.count_nonzero(job_drawn > 0.0)),
                    )

    def _refresh_ring(self, start: int, stop: int) -> None:
        """Ready a windowed ring's columns for slots ``[start, stop)``.

        The ring columns may hold evicted slots' values: copy in the
        exogenous columns a dense book views in the plane cache, and zero
        the columns the core writes only on blackout rows or curtailed
        coupled slots. The slots must not wrap the ring.
        """
        first = start % self._slot_width
        ring_slots = slice(first, first + stop - start)
        for name, plane in self._exogenous_planes().items():
            self._exogenous[name][:, ring_slots] = plane[:, start:stop]
        for column in self._kernel_columns[-2:]:  # unserved, shortfall
            column[..., ring_slots] = 0.0

    def _finish(self, start: int, stop: int, columns, at, c_bp) -> None:
        """Book slots ``[start, stop)`` once the core has stepped them.

        The elementwise half of Eqs. 7–11: ``columns`` are the nine
        action-column views of those slots (one slot's, as the core holds
        them, or a block's ``[..., first:last]`` slices), ``at`` indexes
        the same slots of the planes and ``c_bp`` is the per-hub battery
        wear cost shaped to broadcast against them. Every expression is
        elementwise, so a block finish books each slot bit for bit as a
        one-slot finish would.
        """
        applied, _, p_grid, surplus, _, grid_cost, bp_cost, _, _ = columns
        # Eq. 7 curtailment: the core left the residual in the column.
        np.negative(surplus, out=surplus)
        np.maximum(surplus, 0.0, out=surplus)
        # Eqs. 8, 9, 11 — identical expressions to compute_slot_ledger.
        rtp_dt = self.inputs.rtp_kwh[:, at] * self.params.dt_h
        np.multiply(p_grid, rtp_dt, out=grid_cost)
        np.multiply(applied != IDLE, c_bp, out=bp_cost)
        for book in self._books:
            book.commit_slots(start, stop)

    def available_import_kw(self) -> np.ndarray:
        """Per-hub feeder headroom signal for the *current* slot.

        Each hub's action-independent grid draw (BS + CS load net of
        renewables, zero during a blackout) is read from the
        :class:`SlotPlanes` cache and charged against its feeder; the
        remaining capacity is fair-shared over the feeder's members.
        Congestion-aware schedulers charge only when the battery's extra
        import fits this signal. Infinite under the unlimited default.
        A stacked engine returns one row per job, each from its own
        feeders.
        """
        if self.done:
            raise FleetError(f"fleet horizon of {self.horizon} slots exhausted")
        t = self._t
        base = self.planes.base_import_kw(t)
        if self.n_jobs == 1:
            return self.feeders.available_import_kw(base, t)
        return np.stack(
            [group.available_import_kw(base, t) for group in self.job_feeders]
        )

    def run_jobs(
        self, schedulers: Sequence, *, lead: Sequence[int] | None = None
    ) -> tuple[FleetCostBook, ...]:
        """Run the remaining horizon with one open-loop planner per job.

        Each scheduler's ``reset`` hook runs once, with its own job's
        view: the engine itself when single, else a lane that looks like
        a standalone ``(n_hubs,)`` engine of that job. The view carries
        the traces, planes and feeders but no battery state, so a plan
        cannot depend on the run: the horizon is cut into blocks of
        ``_BLOCK_HUB_SLOTS // n_hubs`` slots (at least one), each leader
        plans a whole block in one ``scheduler(view, start, stop)`` call,
        the engine validates the block's actions once, steps the SoC chain
        slot by slot and then finishes and commits the block at once
        (blocks of a windowed book end at the ring's edge). ``lead[j]``
        names the job whose scheduler plans job ``j``'s actions (default:
        its own; a lead must lead itself): equal configurations over one
        fleet and feeder topology emit equal actions, so they share one
        call per block.
        Returns the completed books, in job order.
        """
        n_jobs = self.n_jobs
        if len(schedulers) != n_jobs:
            raise FleetError(f"{len(schedulers)} schedulers for {n_jobs} jobs")
        lead = list(range(n_jobs)) if lead is None else [int(k) for k in lead]
        if len(lead) != n_jobs or any(
            not 0 <= k < n_jobs or lead[k] != k for k in lead
        ):
            raise FleetError(f"invalid scheduler leads {lead} for {n_jobs} jobs")
        views = [self] if n_jobs == 1 else [_JobLane(self, j) for j in range(n_jobs)]
        for scheduler, view in zip(schedulers, views):
            reset_hook = getattr(scheduler, "reset", None)
            if callable(reset_hook):
                reset_hook(view)
        leaders = sorted(set(lead))
        rows = [leaders.index(k) for k in lead]
        calls = [(schedulers[k], views[k]) for k in leaders]
        block = max(1, _BLOCK_HUB_SLOTS // self.n_hubs)
        n_hubs = self.params.n_hubs
        while not self.done:
            start = self._t
            stop = min(start + block, self._horizon)
            if self._windowed_book:
                # A block never wraps the ring, so its slots are one slice
                # of every ring column (also when the run starts mid-ring).
                width = self._slot_width
                stop = min(stop, start - start % width + width)
            plans = [scheduler(view, start, stop) for scheduler, view in calls]
            for plan in plans:
                if np.shape(plan) != (n_hubs, stop - start):
                    raise FleetError(
                        f"a scheduler planned actions of shape {np.shape(plan)} "
                        f"for the {stop - start} slots from {start}; expected "
                        f"{(n_hubs, stop - start)}"
                    )
            # Slot-major, so each step reads one contiguous action batch.
            actions = np.stack([np.transpose(plans[r]) for r in rows], axis=1)
            if n_jobs == 1:
                actions = actions[:, 0]
            self._check_actions(actions)
            self._step_block(actions)
        return self._books

    def _step_block(self, actions: np.ndarray) -> None:
        """Step one block of validated, slot-major actions from slot ``t``.

        Only the SoC chain runs per slot (:meth:`step` with
        ``finish=False``); the block's elementwise columns and every
        book's commit follow once for the whole block. A step that raises
        leaves the slots before it finished and committed, as a
        slot-by-slot run would.
        """
        start = self._t
        if self._windowed_book:
            self._refresh_ring(start, start + len(actions))
        try:
            for slot_actions in actions:
                self.step(slot_actions, validated=True, finish=False)
        finally:
            stop = self._t
            if stop > start:
                first = start % self._slot_width if self._windowed_book else start
                block = slice(first, first + stop - start)
                self._finish(
                    start,
                    stop,
                    [column[..., block] for column in self._kernel_columns],
                    slice(start, stop),
                    self.params.c_bp_per_slot[:, None],
                )


class _JobLane:
    """One job of a stacked engine, as that job's scheduler sees it.

    Carries the read side of a standalone ``(n_hubs,)`` engine that the
    open-loop fleet schedulers plan from — sizes, params, traces, planes
    and the job's own feeders — and steps nothing. It holds no battery
    state and no clock: a scheduler that reads the batteries cannot
    share its actions across jobs and must run on its own engine.
    """

    def __init__(self, sim: FleetSimulation, job: int) -> None:
        self.params = sim.params
        self.inputs = sim.inputs
        self.planes = sim.planes
        self.feeders = sim.job_feeders[job]
        self.n_hubs = sim.params.n_hubs
        self.horizon = sim.horizon
