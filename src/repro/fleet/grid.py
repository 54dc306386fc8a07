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

Export capacity is not modelled: the engine enforces the paper's
no-feed-in rule, so feeder export is identically zero and on-site
surplus is curtailed at the hub.

The default coupling is :meth:`FeederGroup.unlimited` — one feeder of
infinite capacity — under which the coupled engine is slot-for-slot
identical to the uncoupled PR-1 engine (property-tested at atol 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import FleetError

#: Supported contention-resolution policies.
ALLOCATION_POLICIES = ("proportional", "priority")


class _PriorityPlan:
    """The static half of the priority fill: everything that depends only
    on the assignment, the priorities and which feeders fill by priority.

    ``order`` sorts the priority-fed hubs by (feeder, -priority, hub
    index); each feeder's members then form one segment. Every segment is
    a row of a zero-padded ``(n_segments, width)`` matrix whose column 0
    stays zero, so one ``cumsum`` along axis 1 yields each hub's
    exclusive queue-ahead demand at ``reads``; ``writes`` (= ``reads + 1``)
    are where the sorted demands go.
    """

    __slots__ = ("order", "feeder_sorted", "reads", "writes", "shape")

    def __init__(
        self, assignment: np.ndarray, priority: np.ndarray, hubs: np.ndarray
    ) -> None:
        order = hubs[np.lexsort((hubs, -priority[hubs], assignment[hubs]))]
        feeder_sorted = assignment[order]
        starts = np.flatnonzero(np.r_[True, np.diff(feeder_sorted) != 0])
        lengths = np.diff(np.r_[starts, order.size])
        segment = np.repeat(np.arange(starts.size), lengths)
        column = np.arange(order.size) - starts[segment]
        width = int(lengths.max()) + 1
        self.order = order
        self.feeder_sorted = feeder_sorted
        self.reads = segment * width + column
        self.writes = self.reads + 1
        self.shape = (starts.size, width)

    def queue_ahead(self, demand_sorted: np.ndarray) -> np.ndarray:
        """Exclusive prefix sums of ``demand_sorted`` within each segment.

        ``cumsum`` accumulates sequentially along a row, so each segment's
        sums are bit-identical to a ``cumsum`` over that segment alone.
        """
        padded = np.zeros(self.shape)
        padded.ravel()[self.writes] = demand_sorted
        return np.cumsum(padded, axis=1).ravel()[self.reads]


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
        the capacity is exhausted. A tuple gives one policy per feeder
        (what :meth:`stack` builds for jobs with different policies); a
        tuple of one repeated policy collapses to that string.
    priority:
        Optional ``(n_hubs,)`` positive weights for the priority policy
        (ignored by proportional). ``None`` means uniform priority, which
        makes the priority policy a greedy fill in hub order.
    """

    assignment: np.ndarray
    import_capacity_kw: np.ndarray
    policy: str | tuple[str, ...] = "proportional"
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
        n_feeders = capacity.shape[0]
        policy = self.policy
        if isinstance(policy, (tuple, list)):
            policy = tuple(policy)
            if len(policy) != n_feeders:
                raise FleetError(
                    f"{len(policy)} feeder policies for {n_feeders} feeders"
                )
            if len(set(policy)) == 1:
                policy = policy[0]
        for name in (policy,) if isinstance(policy, str) else set(policy):
            if name not in ALLOCATION_POLICIES:
                raise FleetError(
                    f"unknown allocation policy {name!r}; "
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
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "priority", priority)
        # Cached: schedulers consult these every slot on the hot path.
        object.__setattr__(self, "_is_unlimited", bool(np.isinf(capacity).all()))
        members = np.bincount(assignment, minlength=n_feeders)
        members.flags.writeable = False
        object.__setattr__(self, "_members", members)
        # The allocation's static data: which feeders fill by priority
        # and, for those, the sort order and segment layout.
        if isinstance(policy, str):
            by_priority = np.full(n_feeders, policy == "priority")
        else:
            by_priority = np.array([name == "priority" for name in policy])
        priority_hubs = np.flatnonzero(by_priority[assignment])
        plan = None
        if priority_hubs.size:
            weights = np.ones(assignment.shape[0]) if priority is None else priority
            plan = _PriorityPlan(assignment, weights, priority_hubs)
        object.__setattr__(self, "_priority_plan", plan)
        object.__setattr__(
            self, "_any_proportional", priority_hubs.size < assignment.shape[0]
        )

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
    def stack(cls, groups: Sequence["FeederGroup"]) -> "FeederGroup":
        """One group over several jobs' hubs, each job on its own feeders.

        Job *j*'s hubs follow job *j-1*'s, and its feeder ids are offset
        by the feeders before it, so one :meth:`allocate` call resolves
        every job's contention: per-feeder sums are still ``bincount`` sums
        in hub order, and each feeder keeps its own job's policy. The
        groups must share a capacity horizon (or all be static).
        """
        if not groups:
            raise FleetError("stack needs at least one feeder group")
        horizons = {group.horizon for group in groups}
        if len(horizons) != 1:
            raise FleetError(
                f"stacked feeder groups must share a capacity horizon, got "
                f"{sorted(horizons, key=str)}"
            )
        offsets = np.cumsum([0] + [group.n_feeders for group in groups[:-1]])
        policies: list[str] = []
        for group in groups:
            policy = group.policy
            policies.extend(
                [policy] * group.n_feeders if isinstance(policy, str) else policy
            )
        priority = None
        if any(group.priority is not None for group in groups):
            priority = np.concatenate(
                [
                    np.ones(group.n_hubs) if group.priority is None else group.priority
                    for group in groups
                ]
            )
        return cls(
            assignment=np.concatenate(
                [group.assignment + offset for group, offset in zip(groups, offsets)]
            ),
            import_capacity_kw=np.concatenate(
                [group.import_capacity_kw for group in groups]
            ),
            policy=tuple(policies),
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
        return self._members

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
        if self._priority_plan is None:
            granted = self._allocate_proportional(demand, capacity)
        else:
            # Priority feeders overwrite their members' proportional
            # grants; each grant only reads its own feeder's sums.
            granted = (
                self._allocate_proportional(demand, capacity).copy()
                if self._any_proportional
                else np.empty(demand.shape[0], np.float64)
            )
            self._allocate_priority(demand, capacity, granted)
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
        self, demand: np.ndarray, capacity: np.ndarray, granted: np.ndarray
    ) -> None:
        """Greedy fill in descending priority order within each feeder.

        Writes the grants of the priority-fed hubs into ``granted``. Each
        hub's queue-ahead demand is an exclusive prefix sum within its
        feeder segment, computed per segment, never globally: a global
        cumsum minus the segment-start offset would leak other feeders'
        rounding into this feeder's grants, so one feeder's grants would
        depend on how much the feeders before it draw.
        """
        plan = self._priority_plan
        demand_sorted = demand[plan.order]
        ahead = plan.queue_ahead(demand_sorted)
        granted[plan.order] = np.clip(
            capacity[plan.feeder_sorted] - ahead, 0.0, demand_sorted
        )

    def feeder_sums(self, block: np.ndarray) -> np.ndarray:
        """Roll an ``(n_hubs, width)`` block of hub values up to feeders.

        One ``bincount`` over ``(feeder, slot)`` bins: the flattened
        weights run hub-major, so every bin accumulates its hubs in hub
        order from 0.0, exactly like a bincount of that column alone (and
        like ``np.add.at`` into zeros). Returns ``(n_feeders, width)``.
        """
        width = block.shape[1]
        bins = (self.assignment[:, None] * width + np.arange(width)).ravel()
        return np.bincount(
            bins, weights=block.ravel(), minlength=self.n_feeders * width
        ).reshape(self.n_feeders, width)

    # ------------------------------------------------------------------ #
    # Scheduler signal                                                     #
    # ------------------------------------------------------------------ #

    def available_import_kw(
        self, base_import_kw: np.ndarray, t: int
    ) -> np.ndarray:
        """Per-hub fair share of feeder headroom beyond the base load.

        ``base_import_kw`` is each hub's action-independent grid draw (BS +
        CS load net of renewables, zero for blackout hubs): ``(n_hubs,)``
        for slot ``t``, or an ``(n_hubs, width)`` block for slots ``t`` to
        ``t + width - 1``, which returns the block of per-slot signals in
        one pass. The remaining feeder headroom is split evenly over the
        feeder's members — the congestion signal the vectorized schedulers
        consult before committing to a charge. Infinite while
        unconstrained, so uncoupled fleets see an always-permissive signal.
        """
        base = np.asarray(base_import_kw, dtype=float)
        if base.ndim not in (1, 2) or base.shape[0] != self.n_hubs:
            raise FleetError(
                f"base_import_kw must be ({self.n_hubs},) or ({self.n_hubs}, "
                f"width), got {base.shape}"
            )
        if self.is_unlimited:
            return np.full(base.shape, np.inf)
        if base.ndim == 1:
            return self.available_import_kw(base[:, None], t)[:, 0]
        width = base.shape[1]
        capacity = self.import_capacity_kw
        if capacity.ndim == 2:
            if t < 0 or t + width > capacity.shape[1]:
                raise FleetError(
                    f"slots [{t}, {t + width}) outside the feeder capacity "
                    f"horizon {capacity.shape[1]}"
                )
            capacity = capacity[:, t : t + width]
        else:
            capacity = capacity[:, None]
        headroom = np.maximum(capacity - self.feeder_sums(base), 0.0)
        return (headroom / np.maximum(self.members, 1)[:, None])[self.assignment]
