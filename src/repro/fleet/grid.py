"""Shared-grid coupling: feeder groups with finite import capacity.

The PR-1 engine treats hubs as electrically independent, but city-scale
deployments hang many ECT-Hubs off common feeders/transformers whose
capacity one hub's import can exhaust for its neighbours. A
:class:`FeederGroup` assigns every hub to one feeder and carries a
per-slot import capacity per feeder; :meth:`FeederGroup.allocate` resolves
one slot's contention — when a group's aggregate grid draw exceeds its
feeder limit, imports are curtailed **proportionally** (default) or in
descending **priority** order, and the per-hub shortfall is returned for
the engine to route through the battery-reserve / unserved-energy
accounting.

Export capacity is not modelled: the batched engine enforces the paper's
no-feed-in rule (``FleetParams.from_hub_configs`` rejects
``allow_export``), so feeder export is identically zero and on-site
surplus is curtailed at the hub.

The default coupling is :meth:`FeederGroup.unlimited` — one feeder of
infinite capacity — under which the coupled engine is slot-for-slot
identical to the uncoupled PR-1 engine (property-tested at atol 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FleetError

#: Supported contention-resolution policies.
ALLOCATION_POLICIES = ("proportional", "priority")


def _segment_prefix_sum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums within ``[bounds[k], bounds[k+1])`` segments."""
    ahead = np.zeros(values.shape[0])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ahead[lo + 1 : hi] = np.cumsum(values[lo : hi - 1])
    return ahead


@dataclass(frozen=True)
class FeederGroup:
    """Hub→feeder assignment plus per-feeder import capacity.

    Attributes
    ----------
    assignment:
        ``(n_hubs,)`` integer array; entry *i* is the feeder hub *i* hangs
        off. Every value must lie in ``[0, n_feeders)``; feeders may be
        empty.
    import_capacity_kw:
        Per-feeder import limit, either static ``(n_feeders,)`` or
        per-slot ``(n_feeders, horizon)``. ``np.inf`` disables the limit
        for that feeder(-slot); values must be non-negative and not NaN.
    policy:
        ``"proportional"`` scales every member's import by the same factor
        when the group limit binds; ``"priority"`` serves members in
        descending :attr:`priority` order (ties broken by hub index) until
        the capacity is exhausted.
    priority:
        Optional ``(n_hubs,)`` positive weights for the priority policy
        (ignored by proportional). ``None`` means uniform priority, which
        makes the priority policy a greedy fill in hub order.
    """

    assignment: np.ndarray
    import_capacity_kw: np.ndarray
    policy: str = "proportional"
    priority: np.ndarray | None = None

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment)
        if assignment.ndim != 1 or assignment.shape[0] == 0:
            raise FleetError("feeder assignment must be a non-empty 1-D array")
        if not np.issubdtype(assignment.dtype, np.integer):
            if not np.all(assignment == assignment.astype(int)):
                raise FleetError("feeder assignment must hold integer feeder ids")
            assignment = assignment.astype(int)
        capacity = np.asarray(self.import_capacity_kw, dtype=float)
        if capacity.ndim not in (1, 2) or capacity.shape[0] == 0:
            raise FleetError(
                "import_capacity_kw must be (n_feeders,) or (n_feeders, horizon)"
            )
        if np.isnan(capacity).any() or (capacity < 0.0).any():
            raise FleetError("feeder capacities must be non-negative and not NaN")
        if assignment.min() < 0 or assignment.max() >= capacity.shape[0]:
            raise FleetError(
                f"feeder assignment must lie in [0, {capacity.shape[0]}), got "
                f"range [{assignment.min()}, {assignment.max()}]"
            )
        if self.policy not in ALLOCATION_POLICIES:
            raise FleetError(
                f"unknown allocation policy {self.policy!r}; "
                f"available: {', '.join(ALLOCATION_POLICIES)}"
            )
        priority = self.priority
        if priority is not None:
            priority = np.asarray(priority, dtype=float)
            if priority.shape != assignment.shape:
                raise FleetError(
                    f"priority must have shape {assignment.shape}, "
                    f"got {priority.shape}"
                )
            if not np.isfinite(priority).all() or (priority <= 0.0).any():
                raise FleetError("priority weights must be finite and positive")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "import_capacity_kw", capacity)
        object.__setattr__(self, "priority", priority)
        # Cached: schedulers consult this every slot on the hot path.
        object.__setattr__(self, "_is_unlimited", bool(np.isinf(capacity).all()))

    # ------------------------------------------------------------------ #
    # Construction                                                         #
    # ------------------------------------------------------------------ #

    @classmethod
    def unlimited(cls, n_hubs: int) -> "FeederGroup":
        """The uncoupled default: every hub on one infinite feeder."""
        if n_hubs <= 0:
            raise FleetError(f"n_hubs must be positive, got {n_hubs}")
        return cls(
            assignment=np.zeros(n_hubs, dtype=int),
            import_capacity_kw=np.array([np.inf]),
        )

    @classmethod
    def uniform(
        cls,
        n_hubs: int,
        n_feeders: int,
        capacity_kw: float | np.ndarray,
        *,
        policy: str = "proportional",
        priority: np.ndarray | None = None,
    ) -> "FeederGroup":
        """Round-robin hubs over ``n_feeders`` equal-capacity feeders.

        ``capacity_kw`` may be a scalar (every feeder, every slot), a
        ``(n_feeders,)`` array, or a full ``(n_feeders, horizon)`` block.
        """
        if n_hubs <= 0:
            raise FleetError(f"n_hubs must be positive, got {n_hubs}")
        if n_feeders <= 0:
            raise FleetError(f"n_feeders must be positive, got {n_feeders}")
        if n_feeders > n_hubs:
            raise FleetError(
                f"{n_feeders} feeders for {n_hubs} hubs leaves feeders empty"
            )
        capacity = np.asarray(capacity_kw, dtype=float)
        if capacity.ndim == 0:
            capacity = np.full(n_feeders, float(capacity))
        return cls(
            assignment=np.arange(n_hubs) % n_feeders,
            import_capacity_kw=capacity,
            policy=policy,
            priority=priority,
        )

    # ------------------------------------------------------------------ #
    # Shape / structure                                                    #
    # ------------------------------------------------------------------ #

    @property
    def n_hubs(self) -> int:
        """Number of hubs assigned to feeders."""
        return int(self.assignment.shape[0])

    @property
    def n_feeders(self) -> int:
        """Number of feeders in the group."""
        return int(self.import_capacity_kw.shape[0])

    @property
    def horizon(self) -> int | None:
        """Capacity horizon when per-slot, else None (static capacity)."""
        if self.import_capacity_kw.ndim == 2:
            return int(self.import_capacity_kw.shape[1])
        return None

    @property
    def members(self) -> np.ndarray:
        """``(n_feeders,)`` hub counts per feeder."""
        return np.bincount(self.assignment, minlength=self.n_feeders)

    @property
    def is_unlimited(self) -> bool:
        """True when no feeder limit can ever bind (the uncoupled default)."""
        return self._is_unlimited

    def capacity_at(self, t: int) -> np.ndarray:
        """``(n_feeders,)`` import capacity for slot ``t``."""
        if self.import_capacity_kw.ndim == 2:
            if not 0 <= t < self.import_capacity_kw.shape[1]:
                raise FleetError(
                    f"slot {t} outside the feeder capacity horizon "
                    f"{self.import_capacity_kw.shape[1]}"
                )
            return self.import_capacity_kw[:, t]
        return self.import_capacity_kw

    def feeder_demand_kw(self, import_kw: np.ndarray) -> np.ndarray:
        """Aggregate per-hub imports into ``(n_feeders,)`` feeder draw."""
        return np.bincount(
            self.assignment, weights=import_kw, minlength=self.n_feeders
        )

    # ------------------------------------------------------------------ #
    # Allocation                                                           #
    # ------------------------------------------------------------------ #

    def allocate(self, import_kw: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one slot's contention: ``(granted_kw, shortfall_kw)``.

        ``import_kw`` is each hub's requested grid draw. Where a feeder's
        aggregate request fits its capacity the request is granted in
        full; otherwise the group's imports are curtailed per
        :attr:`policy`. Granted + shortfall reproduces the request
        exactly, both arrays are non-negative, and per-feeder granted
        totals never exceed capacity (beyond float rounding).
        """
        demand = np.asarray(import_kw, dtype=float)
        if demand.shape != self.assignment.shape:
            raise FleetError(
                f"import_kw must have shape {self.assignment.shape}, "
                f"got {demand.shape}"
            )
        if self.is_unlimited:
            return demand, np.zeros_like(demand)
        capacity = self.capacity_at(t)
        if self.policy == "proportional":
            granted = self._allocate_proportional(demand, capacity)
        else:
            granted = self._allocate_priority(demand, capacity)
        shortfall = np.maximum(demand - granted, 0.0)
        return granted, shortfall

    def _allocate_proportional(
        self, demand: np.ndarray, capacity: np.ndarray
    ) -> np.ndarray:
        """Scale every member of an over-subscribed feeder by cap/draw."""
        feeder_demand = np.bincount(
            self.assignment, weights=demand, minlength=self.n_feeders
        )
        scale = np.ones(self.n_feeders)
        over = feeder_demand > capacity
        if not over.any():
            return demand
        scale[over] = capacity[over] / feeder_demand[over]
        return demand * scale[self.assignment]

    def _allocate_priority(
        self, demand: np.ndarray, capacity: np.ndarray
    ) -> np.ndarray:
        """Greedy fill in descending priority order within each feeder."""
        n = self.n_hubs
        priority = (
            np.ones(n) if self.priority is None else self.priority
        )
        # Sort by (feeder, -priority, hub index); each hub's queue-ahead
        # demand is then an exclusive prefix sum within its feeder segment.
        # _segment_prefix_sum computes it per segment, never globally: a
        # global cumsum minus the segment-start offset would leak other
        # feeders' rounding into this feeder's grants, so one feeder's
        # grants would depend on how much the feeders before it draw.
        order = np.lexsort((np.arange(n), -priority, self.assignment))
        feeder_sorted = self.assignment[order]
        demand_sorted = demand[order]
        starts = np.r_[0, np.flatnonzero(np.diff(feeder_sorted)) + 1]
        bounds = np.r_[starts, n]
        ahead = _segment_prefix_sum(demand_sorted, bounds)
        granted_sorted = np.clip(
            capacity[feeder_sorted] - ahead, 0.0, demand_sorted
        )
        granted = np.empty(n, np.float64)
        granted[order] = granted_sorted
        return granted

    # ------------------------------------------------------------------ #
    # Scheduler signal                                                     #
    # ------------------------------------------------------------------ #

    def available_import_kw(
        self, base_import_kw: np.ndarray, t: int
    ) -> np.ndarray:
        """Per-hub fair share of feeder headroom beyond the base load.

        ``base_import_kw`` is each hub's action-independent grid draw for
        the slot (BS + CS load net of renewables, zero for blackout hubs).
        The remaining feeder headroom is split evenly over the feeder's
        members — the congestion signal the vectorized schedulers consult
        before committing to a charge. Infinite while unconstrained, so
        uncoupled fleets see an always-permissive signal.
        """
        base = np.asarray(base_import_kw, dtype=float)
        if base.shape != self.assignment.shape:
            raise FleetError(
                f"base_import_kw must have shape {self.assignment.shape}, "
                f"got {base.shape}"
            )
        if self.is_unlimited:
            return np.full(self.n_hubs, np.inf)
        headroom = np.maximum(
            self.capacity_at(t) - self.feeder_demand_kw(base), 0.0
        )
        return (headroom / np.maximum(self.members, 1))[self.assignment]
