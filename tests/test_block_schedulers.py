"""Block planning: the fleet schedulers plan whole blocks of slots at once.

Every scheduler's block plan must equal, bit for bit, what it decided one
slot at a time (the frozen :func:`fleet_oracle.per_slot_schedule`), on
single and stacked engines, coupled and uncoupled, whatever the block
size; the block feeder headroom must equal the per-slot signal column by
column; and a run must make one scheduler call per leader per block
while stepping and allocating once per slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FleetError
from repro.fleet import (
    FLEET_SCHEDULERS,
    FeederGroup,
    FleetRandomScheduler,
    FleetSimulation,
    build_default_fleet,
    make_fleet_scheduler,
)
from repro.fleet import simulation
from repro.rng import RngFactory

from fleet_oracle import (
    per_slot_available_import_kw,
    per_slot_schedule,
    uniform_feeders,
)

N_HUBS = 9
N_FEEDERS = 3
DAYS = 3
HORIZON = 24 * DAYS

#: Block budgets in hub-slots per job: 1-slot blocks, 7-slot blocks (part
#: of a day, not a divisor of the horizon, so the last block is short),
#: and one block larger than the whole horizon.
BLOCK_SLOTS = (1, 7, 10 * HORIZON)


@pytest.fixture(scope="module")
def fleet():
    _, sim = build_default_fleet(
        N_HUBS, n_days=DAYS, seed=5, outage_probability=0.02
    )
    assert sim.planes.outage.any()
    return sim.params, sim.inputs, sim.planes


def scheduler(name: str):
    if name == "random":
        return FleetRandomScheduler.from_factory(RngFactory(seed=23), N_HUBS)
    return make_fleet_scheduler(name, n_hubs=N_HUBS)


def feeder_groups(planes, params) -> dict[str, FeederGroup | None]:
    """Uncoupled, static, and per-slot capacities that sometimes fit a
    full-rate charge on top of the base load and sometimes do not."""
    assignment = np.arange(N_HUBS) % N_FEEDERS
    members = np.bincount(assignment)
    base = np.stack(
        [planes.base_import_kw()[assignment == f].sum(axis=0) for f in range(N_FEEDERS)]
    )
    rng = np.random.default_rng(3)
    spare = rng.uniform(-0.3, 1.2, base.shape) * members[:, None]
    per_slot = np.maximum(base + spare * params.charge_rate_kw.mean(), 0.0)
    priority = rng.uniform(0.5, 2.0, N_HUBS)
    return {
        "uncoupled": None,
        "static": uniform_feeders(
            N_HUBS, N_FEEDERS, float(per_slot.mean()), policy="proportional"
        ),
        "proportional": uniform_feeders(N_HUBS, N_FEEDERS, per_slot),
        "priority": uniform_feeders(
            N_HUBS, N_FEEDERS, per_slot, policy="priority", priority=priority
        ),
    }


class Recording(FleetSimulation):
    """Records every action batch ``run_jobs`` hands the per-slot core
    (``step`` with ``finish=False``)."""

    def step(self, actions, **kwargs):
        self.requested.append(np.array(actions))
        return super().step(actions, **kwargs)


def recording(params, inputs, **kwargs) -> Recording:
    sim = Recording(params, inputs, **kwargs)
    sim.requested = []
    return sim


def set_block(monkeypatch, slots: int, n_hubs: int) -> None:
    monkeypatch.setattr(simulation, "_BLOCK_HUB_SLOTS", slots * n_hubs)


# --------------------------------------------------------------------- #
# Block plans == the per-slot oracle                                      #
# --------------------------------------------------------------------- #


def test_feeders_make_the_headroom_bind(fleet):
    """The per-slot capacities really suppress some charges (else the
    coupled cases below would test nothing the uncoupled ones do not)."""
    params, inputs, planes = fleet
    feeders = feeder_groups(planes, params)["proportional"]
    view = FleetSimulation(params, inputs, feeders=feeders)
    for name in ("rule-based", "greedy-renewable"):
        aware = per_slot_schedule(make_fleet_scheduler(name, n_hubs=N_HUBS), view)
        blind = per_slot_schedule(
            make_fleet_scheduler(name, n_hubs=N_HUBS, congestion_aware=False), view
        )
        assert (aware != blind).any()
        assert (aware == 1).any()


@pytest.mark.parametrize("block", BLOCK_SLOTS)
@pytest.mark.parametrize("coupling", ["uncoupled", "static", "proportional", "priority"])
@pytest.mark.parametrize("name", FLEET_SCHEDULERS)
def test_single_engine_plans_equal_per_slot_oracle(
    fleet, monkeypatch, name, coupling, block
):
    params, inputs, planes = fleet
    feeders = feeder_groups(planes, params)[coupling]
    set_block(monkeypatch, block, N_HUBS)
    sim = recording(params, inputs, feeders=feeders)
    sim.run(scheduler(name))
    planned = np.stack(sim.requested, axis=1)
    want = per_slot_schedule(scheduler(name), sim)
    assert planned.dtype == want.dtype
    assert planned.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", BLOCK_SLOTS)
@pytest.mark.parametrize("coupled", [False, True])
def test_stacked_engine_plans_equal_per_slot_oracle(
    fleet, monkeypatch, coupled, block
):
    """Four jobs on their own feeders (stacked into one group for the
    allocation); jobs 0 and 1 share job 0's plan, planned against job 0's
    feeders, as the per-slot loop shared its per-slot actions."""
    params, inputs, planes = fleet
    groups = feeder_groups(planes, params)
    job_feeders = [
        groups["proportional"],
        groups["priority"],
        groups["priority"],
        groups["proportional"],
    ]
    if not coupled:
        job_feeders = [None] * len(job_feeders)
    names = ["rule-based", "rule-based", "greedy-renewable", "random"]
    lead = [0, 0, 2, 3]
    set_block(monkeypatch, block, len(names) * N_HUBS)
    sim = recording(params, inputs, feeders=job_feeders, n_jobs=len(names))
    sim.run_jobs([scheduler(name) for name in names], lead=lead)
    planned = np.stack(sim.requested, axis=-1)
    assert planned.shape == (len(names), N_HUBS, HORIZON)
    for job, leader in enumerate(lead):
        view = FleetSimulation(params, inputs, feeders=job_feeders[leader])
        want = per_slot_schedule(scheduler(names[leader]), view)
        assert planned[job].tobytes() == want.tobytes()


def test_wrong_plan_shape_is_rejected(fleet):
    params, inputs, _ = fleet

    def one_slot_only(view, start, stop):
        return np.zeros((view.n_hubs, 1), dtype=int)

    sim = FleetSimulation(params, inputs)
    with pytest.raises(FleetError, match="planned actions of shape"):
        sim.run(one_slot_only)


# --------------------------------------------------------------------- #
# Call counts                                                             #
# --------------------------------------------------------------------- #


class Counted:
    """Delegates to a scheduler and records the blocks it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.blocks = []

    def reset(self, view):
        self.inner.reset(view)

    def __call__(self, view, start, stop):
        self.blocks.append((start, stop))
        return self.inner(view, start, stop)


def test_one_call_per_leader_per_block(fleet, monkeypatch):
    params, inputs, planes = fleet
    groups = feeder_groups(planes, params)
    n_jobs = 4
    set_block(monkeypatch, 10, n_jobs * N_HUBS)
    allocations = []
    allocate = FeederGroup.allocate

    def counted_allocate(self, import_kw, t):
        allocations.append(t)
        return allocate(self, import_kw, t)

    monkeypatch.setattr(FeederGroup, "allocate", counted_allocate)
    sim = recording(
        params,
        inputs,
        feeders=[groups["proportional"], groups["priority"]] * 2,
        n_jobs=n_jobs,
    )
    schedulers = [Counted(scheduler(name)) for name in ("rule-based", "idle") * 2]
    sim.run_jobs(schedulers, lead=[0, 1, 0, 1])
    blocks = [(start, min(start + 10, HORIZON)) for start in range(0, HORIZON, 10)]
    assert schedulers[0].blocks == blocks
    assert schedulers[1].blocks == blocks
    assert schedulers[2].blocks == schedulers[3].blocks == []
    assert len(sim.requested) == HORIZON
    assert allocations == list(range(HORIZON))


def test_default_budget_plans_a_small_fleet_in_one_block(fleet):
    params, inputs, _ = fleet
    counted = Counted(scheduler("rule-based"))
    FleetSimulation(params, inputs).run(counted)
    assert counted.blocks == [(0, HORIZON)]


# --------------------------------------------------------------------- #
# Block feeder headroom == the per-slot signal                            #
# --------------------------------------------------------------------- #


def headroom_groups(planes, params) -> dict[str, FeederGroup]:
    groups = feeder_groups(planes, params)
    return {
        "static": groups["static"],
        "per-slot": groups["proportional"],
        "unlimited": FeederGroup.unlimited(N_HUBS),
        "stacked": FeederGroup.stack([groups["proportional"], groups["priority"]]),
    }


@pytest.mark.parametrize("kind", ["static", "per-slot", "unlimited", "stacked"])
def test_block_headroom_equals_per_slot_signal(fleet, kind):
    params, inputs, planes = fleet
    group = headroom_groups(planes, params)[kind]
    base = planes.base_import_kw()
    if group.n_hubs != N_HUBS:
        base = np.concatenate([base, base[::-1]])
    base = base.copy()
    base[:, 5] = -0.0  # signed zeros sum like the per-slot bincount
    for start, stop in ((0, HORIZON), (5, 6), (3, 40), (HORIZON - 1, HORIZON)):
        block = group.available_import_kw(base[:, start:stop], start)
        assert block.shape == (group.n_hubs, stop - start)
        for t in range(start, stop):
            column = block[:, t - start]
            want = per_slot_available_import_kw(group, base[:, t], t)
            assert column.tobytes() == want.tobytes()
            single = group.available_import_kw(base[:, t], t)
            assert single.shape == (group.n_hubs,)
            assert single.tobytes() == want.tobytes()


def test_block_headroom_checks_its_block(fleet):
    params, _, planes = fleet
    group = feeder_groups(planes, params)["proportional"]
    base = planes.base_import_kw()
    with pytest.raises(FleetError, match="outside the feeder capacity horizon"):
        group.available_import_kw(base[:, :10], HORIZON - 5)
    with pytest.raises(FleetError, match="base_import_kw must be"):
        group.available_import_kw(base[:-1, :10], 0)
