"""Fleet-level Eq. 8–12 accounting over ``(n_hubs, horizon)`` arrays.

:class:`FleetCostBook` stores every resolved slot quantity column-wise and
exposes the paper's aggregates both **per hub** (arrays) and for the whole
**network** (scalars).

With shared-grid coupling the book also tracks the feeder dimension:
``import_shortfall_kw`` records each hub's curtailed import, and the
per-feeder aggregates (imports, shortfalls, peaks, congested slots) roll
hub columns up by the :class:`~repro.fleet.grid.FeederGroup` assignment.

Storage modes
-------------
``storage="dense"`` (default) keeps every column at full
``(n_hubs, horizon)`` resolution — memory grows with the horizon, but any
slot can be inspected after the fact (the slot columns, the per-feeder
slot matrices). ``storage="windowed"`` keeps only a bounded ring of the most
recent :data:`DEFAULT_WINDOW` slots and folds each committed slot into running
aggregates (per-hub totals, the daily Eq. 12 matrix, per-feeder
import/shortfall/peak/congestion, blackout counts), so memory stops
scaling with the horizon — a 10k-hub × 1-year run fits in RAM. All
aggregate properties work identically in both modes (the windowed fold
accumulates in slot order; agreement with dense is equivalence-tested at
atol 1e-9); full-column accessors raise :class:`FleetError` in windowed
mode.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import FleetError
from .grid import FeederGroup

#: Supported per-slot storage layouts.
STORAGE_MODES = ("dense", "windowed")

#: Ring size when ``storage="windowed"``: one day of hourly slots.
DEFAULT_WINDOW = 24

#: Day length of the daily Eq. 12 rewards (the engine's hourly slot
#: contract).
_SLOTS_PER_DAY = 24

#: Hub-slots per block of the per-feeder roll-up: the flat bin array of a
#: 2000-hub fleet stays at 32 slots (512 KB) however long the horizon.
_ROLLUP_HUB_SLOTS = 2**16


def column_dtype(name: str):
    """Pinned storage dtype of one book column."""
    if name == "action":
        return np.int64
    if name == "blackout":
        return np.bool_
    return np.float64


class FleetCostBook:
    """Slot-by-slot records for a whole fleet, filled as the engine steps."""

    #: Columns no battery action changes: a stacked engine's jobs share
    #: one copy of each.
    EXOGENOUS_COLUMNS = (
        "blackout",
        "p_bs_kw",
        "p_cs_kw",
        "p_pv_kw",
        "p_wt_kw",
        "rtp_kwh",
        "srtp_kwh",
        "revenue",
    )
    #: Columns the battery actions decide: one row block per stacked job.
    ACTION_COLUMNS = (
        "action",
        "p_bp_kw",
        "p_grid_kw",
        "surplus_kw",
        "soc_kwh",
        "grid_cost",
        "bp_cost",
        "unserved_kwh",
        "import_shortfall_kw",
    )

    _FLOAT_COLUMNS = (
        "p_bs_kw",
        "p_cs_kw",
        "p_bp_kw",
        "p_pv_kw",
        "p_wt_kw",
        "p_grid_kw",
        "surplus_kw",
        "rtp_kwh",
        "srtp_kwh",
        "soc_kwh",
        "grid_cost",
        "bp_cost",
        "revenue",
        "unserved_kwh",
        "import_shortfall_kw",
    )

    def __init__(
        self,
        n_hubs: int,
        horizon: int,
        *,
        feeders: FeederGroup | None = None,
        voll_per_kwh: float = 0.0,
        storage: str = "dense",
        columns: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """``columns`` optionally supplies the storage of some columns —
        ``(n_hubs, slot_width)`` arrays of the column's dtype (see
        :meth:`slot_width`); the rest start as zeros. A stacked engine
        passes each job's row block of its job-axis arrays plus the
        shared exogenous columns this way.
        """
        if n_hubs <= 0 or horizon < 0:
            raise FleetError(
                f"invalid fleet book shape ({n_hubs} hubs, {horizon} slots)"
            )
        if voll_per_kwh < 0 or not np.isfinite(voll_per_kwh):
            raise FleetError(
                f"voll_per_kwh must be finite and non-negative, got {voll_per_kwh}"
            )
        if storage not in STORAGE_MODES:
            raise FleetError(
                f"unknown book storage {storage!r}; "
                f"available: {', '.join(STORAGE_MODES)}"
            )
        self.voll_per_kwh = float(voll_per_kwh)
        self.feeders = feeders or FeederGroup.unlimited(n_hubs)
        if self.feeders.n_hubs != n_hubs:
            raise FleetError(
                f"feeder group assigns {self.feeders.n_hubs} hubs but the "
                f"book holds {n_hubs}"
            )
        self.n_hubs = n_hubs
        self.horizon = horizon
        self.storage = storage
        self._windowed = storage == "windowed"
        width = self.slot_width(horizon, storage)
        self.window: int | None = width if self._windowed else None
        given = dict(columns or {})
        unknown = set(given) - set(self.EXOGENOUS_COLUMNS + self.ACTION_COLUMNS)
        if unknown:
            raise FleetError(f"unknown fleet book columns {sorted(unknown)}")
        # Hot-path columns carry pinned dtypes (float64 / int64 / bool_)
        # so layouts match across platforms.
        storage_columns: dict[str, np.ndarray] = {}
        for name in ("action", "blackout", *self._FLOAT_COLUMNS):
            dtype = column_dtype(name)
            column = given.get(name)
            if column is None:
                column = np.zeros((n_hubs, width), dtype)
            elif column.shape != (n_hubs, width) or column.dtype != dtype:
                raise FleetError(
                    f"column {name!r} must be a ({n_hubs}, {width}) "
                    f"{np.dtype(dtype).name} array, got {column.shape} "
                    f"{column.dtype.name}"
                )
            storage_columns[name] = column
        if self._windowed:
            self._ring: dict[str, np.ndarray] = storage_columns
            self._init_accumulators()
        else:
            for name, column in storage_columns.items():
                setattr(self, name, column)
        self._n_recorded = 0

    @staticmethod
    def slot_width(horizon: int, storage: str) -> int:
        """Slots each column stores: the horizon (dense) or the ring size."""
        if storage != "windowed":
            return horizon
        return min(DEFAULT_WINDOW, max(horizon, 1))

    def _init_accumulators(self) -> None:
        n, n_feeders = self.n_hubs, self.feeders.n_feeders
        n_days = -(-self.horizon // _SLOTS_PER_DAY)
        self._acc_op_cost = np.zeros(n, np.float64)
        self._acc_revenue = np.zeros(n, np.float64)
        self._acc_unserved = np.zeros(n, np.float64)
        self._acc_import_shortfall = np.zeros(n, np.float64)
        self._acc_daily = np.zeros((n, n_days), np.float64)
        self._acc_feeder_import = np.zeros(n_feeders, np.float64)
        self._acc_feeder_shortfall = np.zeros(n_feeders, np.float64)
        self._acc_feeder_peak = np.zeros(n_feeders, np.float64)
        self._congested_slots = 0
        self._blackout_hub_slots = 0

    def __getattr__(self, name: str):
        # Normal lookup failed: in windowed mode the per-slot columns do
        # not exist as attributes — explain instead of AttributeError.
        if name in FleetCostBook._FLOAT_COLUMNS or name in ("action", "blackout"):
            raise FleetError(
                f"per-slot column {name!r} needs storage='dense'; the "
                f"windowed book folds slots into running aggregates"
            )
        raise AttributeError(name)

    def __len__(self) -> int:
        return self._n_recorded

    @property
    def nbytes(self) -> int:
        """Bytes held by the per-slot storage (plus windowed accumulators).

        Deterministic by construction — the city-scale benchmark's memory
        guard compares windowed vs dense footprints through this.
        """
        if self._windowed:
            total = sum(column.nbytes for column in self._ring.values())
            total += sum(
                acc.nbytes
                for acc in (
                    self._acc_op_cost,
                    self._acc_revenue,
                    self._acc_unserved,
                    self._acc_import_shortfall,
                    self._acc_daily,
                    self._acc_feeder_import,
                    self._acc_feeder_shortfall,
                    self._acc_feeder_peak,
                )
            )
            return int(total)
        total = self.action.nbytes + self.blackout.nbytes
        total += sum(getattr(self, name).nbytes for name in self._FLOAT_COLUMNS)
        return int(total)

    def commit_slots(self, start: int, stop: int) -> None:
        """Mark slots ``[start, stop)`` as recorded once their columns hold them.

        The book has no write path of its own: :class:`~repro.fleet.
        simulation.FleetSimulation` resolves slots straight into the
        storage it handed the book (``columns=``) and commits them
        afterwards — one slot per public ``step``, a whole block per
        open-loop block — so a step that raises mid-flight leaves the
        recorded range untouched. Windowed storage keeps slot ``t`` in ring
        column ``t % window``, so a committed block must not wrap the
        ring; its slots fold into the running aggregates here, in slot
        order.
        """
        if start != self._n_recorded:
            raise FleetError(
                f"slots must be recorded in order; expected {self._n_recorded}, "
                f"got {start}"
            )
        if not start < stop <= self.horizon:
            raise FleetError(
                f"slots [{start}, {stop}) outside the book horizon {self.horizon}"
            )
        if self._windowed:
            self._fold(start, stop)
        self._n_recorded = stop

    def _fold(self, start: int, stop: int) -> None:
        ring, first = self._ring, start % self.window
        ring_slots = slice(first, first + stop - start)
        if ring_slots.stop > self.window:
            raise FleetError(
                f"slots [{start}, {stop}) wrap the {self.window}-slot ring"
            )
        feeder_import = self.feeders.feeder_sums(ring["p_grid_kw"][:, ring_slots])
        feeder_shortfall = self.feeders.feeder_sums(
            ring["import_shortfall_kw"][:, ring_slots]
        )
        for offset in range(stop - start):
            column = first + offset
            grid_cost = ring["grid_cost"][:, column]
            bp_cost = ring["bp_cost"][:, column]
            revenue = ring["revenue"][:, column]
            unserved = ring["unserved_kwh"][:, column]
            self._acc_op_cost += grid_cost
            self._acc_op_cost += bp_cost
            self._acc_revenue += revenue
            self._acc_unserved += unserved
            self._acc_import_shortfall += ring["import_shortfall_kw"][:, column]
            self._acc_daily[:, (start + offset) // _SLOTS_PER_DAY] += (
                revenue - grid_cost - bp_cost - self.voll_per_kwh * unserved
            )
            self._acc_feeder_import += feeder_import[:, offset]
            self._acc_feeder_shortfall += feeder_shortfall[:, offset]
            np.maximum(
                self._acc_feeder_peak,
                feeder_import[:, offset],
                out=self._acc_feeder_peak,
            )
        # Shortfalls are non-negative, so a feeder sum is positive exactly
        # when any member was curtailed — the count matches dense exactly.
        self._congested_slots += int(np.count_nonzero(feeder_shortfall > 0.0))
        self._blackout_hub_slots += int(
            np.count_nonzero(ring["blackout"][:, ring_slots])
        )

    def _require_dense(self, what: str) -> None:
        if self._windowed:
            raise FleetError(
                f"{what} needs storage='dense'; the windowed book keeps "
                f"only running aggregates plus a {self.window}-slot ring"
            )

    # ------------------------------------------------------------------ #
    # Per-hub aggregates (arrays of shape (n_hubs,))                       #
    # ------------------------------------------------------------------ #

    def _recorded(self, name: str) -> np.ndarray:
        return getattr(self, name)[:, : self._n_recorded]

    def _row_blocks(self) -> list[slice]:
        """Hub-row blocks of about :data:`_ROLLUP_HUB_SLOTS` recorded
        hub-slots each, which the dense aggregates combine columns over so
        a combined block stays small on a city-size fleet. Every per-hub
        aggregate is a row-wise reduction, so a block's rows come out bit
        for bit as the whole book's would."""
        rows = max(1, _ROLLUP_HUB_SLOTS // max(self._n_recorded, 1))
        return [slice(start, start + rows) for start in range(0, self.n_hubs, rows)]

    @property
    def operating_cost_per_hub(self) -> np.ndarray:
        """Eq. 10 per hub: ``OC_i = Σ_t [C_grid + C_BP]``."""
        if self._windowed:
            return self._acc_op_cost.copy()
        grid_cost, bp_cost = self._recorded("grid_cost"), self._recorded("bp_cost")
        total = np.empty(self.n_hubs, np.float64)
        for block in self._row_blocks():
            total[block] = (grid_cost[block] + bp_cost[block]).sum(axis=1)
        return total

    @property
    def charging_revenue_per_hub(self) -> np.ndarray:
        """Eq. 11 per hub: ``CR_i = Σ_t P_CS · SRTP``."""
        if self._windowed:
            return self._acc_revenue.copy()
        return self._recorded("revenue").sum(axis=1)

    @property
    def voll_cost_per_hub(self) -> np.ndarray:
        """Value-of-lost-load penalty per hub: ``VoLL · unserved_i``."""
        return self.voll_per_kwh * self.unserved_per_hub_kwh

    @property
    def profit_per_hub(self) -> np.ndarray:
        """Eq. 12 per hub plus lost load: ``Ψ_i = CR_i − OC_i − VoLL·U_i``."""
        return (
            self.charging_revenue_per_hub
            - self.operating_cost_per_hub
            - self.voll_cost_per_hub
        )

    @property
    def unserved_per_hub_kwh(self) -> np.ndarray:
        """Energy that could not be served (blackouts + feeder shortfalls)."""
        if self._windowed:
            return self._acc_unserved.copy()
        return self._recorded("unserved_kwh").sum(axis=1)

    @property
    def import_shortfall_per_hub_kwh(self) -> np.ndarray:
        """Grid import curtailed by feeder limits, per hub (1 h slots)."""
        if self._windowed:
            return self._acc_import_shortfall.copy()
        return self._recorded("import_shortfall_kw").sum(axis=1)

    @property
    def blackout_hub_slots(self) -> int:
        """Recorded (hub, slot) pairs spent in a blackout."""
        if self._windowed:
            return self._blackout_hub_slots
        return int(self.blackout[:, : self._n_recorded].sum())

    # ------------------------------------------------------------------ #
    # Per-feeder congestion aggregates                                     #
    # ------------------------------------------------------------------ #

    @property
    def n_feeders(self) -> int:
        """Number of feeders the fleet hangs off."""
        return self.feeders.n_feeders

    def _per_feeder_slots(self, name: str) -> np.ndarray:
        """Roll a hub column up to ``(n_feeders, n_recorded)``.

        The flat-bin sums run over blocks of :data:`_ROLLUP_HUB_SLOTS`
        hub-slots, so the bin array stays small on a city-size fleet.
        """
        column = self._recorded(name)
        rolled = np.empty((self.feeders.n_feeders, self._n_recorded), np.float64)
        width = max(1, _ROLLUP_HUB_SLOTS // self.n_hubs)
        for start in range(0, self._n_recorded, width):
            block = slice(start, start + width)
            rolled[:, block] = self.feeders.feeder_sums(column[:, block])
        return rolled

    def feeder_import_kw(self) -> np.ndarray:
        """Granted feeder draw per slot, shape ``(n_feeders, n_recorded)``."""
        self._require_dense("feeder_import_kw()")
        return self._per_feeder_slots("p_grid_kw")

    def feeder_shortfall_kw(self) -> np.ndarray:
        """Curtailed feeder draw per slot, shape ``(n_feeders, n_recorded)``."""
        self._require_dense("feeder_shortfall_kw()")
        return self._per_feeder_slots("import_shortfall_kw")

    def _import_aggregates(self) -> tuple[np.ndarray, np.ndarray]:
        """Imported energy and worst-slot draw per feeder, one roll-up."""
        if self._windowed:
            return self._acc_feeder_import.copy(), self._acc_feeder_peak.copy()
        imports = self.feeder_import_kw()
        if imports.shape[1] == 0:
            return imports.sum(axis=1), np.zeros(self.feeders.n_feeders)
        return imports.sum(axis=1), imports.max(axis=1)

    def _shortfall_aggregates(self) -> tuple[np.ndarray, int]:
        """Curtailed energy per feeder and congested feeder-slots, one roll-up."""
        if self._windowed:
            return self._acc_feeder_shortfall.copy(), self._congested_slots
        shortfall = self.feeder_shortfall_kw()
        return shortfall.sum(axis=1), int((shortfall > 0.0).sum())

    def feeder_aggregates(self) -> dict:
        """The four per-feeder aggregates below, each column rolled up once."""
        import_kwh, peak_import_kw = self._import_aggregates()
        shortfall_kwh, congested = self._shortfall_aggregates()
        return {
            "congested_feeder_slots": congested,
            "feeder_import_kwh": import_kwh,
            "feeder_shortfall_kwh": shortfall_kwh,
            "feeder_peak_import_kw": peak_import_kw,
        }

    @property
    def feeder_import_kwh(self) -> np.ndarray:
        """Imported energy per feeder (uniform 1 h slots)."""
        return self._import_aggregates()[0]

    @property
    def feeder_shortfall_kwh(self) -> np.ndarray:
        """Curtailed import energy per feeder (uniform 1 h slots)."""
        return self._shortfall_aggregates()[0]

    @property
    def feeder_peak_import_kw(self) -> np.ndarray:
        """Worst-slot granted draw per feeder."""
        return self._import_aggregates()[1]

    @property
    def congested_feeder_slots(self) -> int:
        """Feeder-slots where the import limit curtailed somebody."""
        return self._shortfall_aggregates()[1]

    # ------------------------------------------------------------------ #
    # Network totals                                                       #
    # ------------------------------------------------------------------ #

    @property
    def operating_cost(self) -> float:
        """Network Eq. 10 total."""
        return float(self.operating_cost_per_hub.sum())

    @property
    def charging_revenue(self) -> float:
        """Network Eq. 11 total."""
        return float(self.charging_revenue_per_hub.sum())

    @property
    def voll_cost(self) -> float:
        """Network value-of-lost-load penalty."""
        return float(self.voll_cost_per_hub.sum())

    @property
    def profit(self) -> float:
        """Network Eq. 12 total (lost-load penalty included)."""
        return float(self.profit_per_hub.sum())

    @property
    def total_unserved_kwh(self) -> float:
        """Network energy shortfall (blackouts + feeder curtailment)."""
        return float(self.unserved_per_hub_kwh.sum())

    @property
    def total_import_shortfall_kwh(self) -> float:
        """Network grid import curtailed by feeder limits."""
        return float(self.import_shortfall_per_hub_kwh.sum())

    def daily_rewards(self) -> np.ndarray:
        """Eq. 12 profit per (hub, day) — shape ``(n_hubs, n_days)``."""
        if self._windowed:
            n_days = -(-self._n_recorded // _SLOTS_PER_DAY)
            return self._acc_daily[:, :n_days].copy()
        if self._n_recorded == 0:
            return np.zeros((self.n_hubs, 0))
        revenue, grid_cost, bp_cost, unserved = (
            self._recorded(name)
            for name in ("revenue", "grid_cost", "bp_cost", "unserved_kwh")
        )
        starts = np.arange(0, self._n_recorded, _SLOTS_PER_DAY)
        daily = np.empty((self.n_hubs, starts.size), np.float64)
        for block in self._row_blocks():
            rewards = np.subtract(revenue[block], grid_cost[block])
            np.subtract(rewards, bp_cost[block], out=rewards)
            lost = np.multiply(unserved[block], self.voll_per_kwh)
            np.subtract(rewards, lost, out=rewards)
            daily[block] = np.add.reduceat(rewards, starts, axis=1)
        return daily
