"""Block finish: an open-loop run books each slot bit for bit as one step would.

``FleetSimulation.run_jobs`` runs only the SoC chain per slot and then
finishes a whole block at once — the elementwise surplus and Eqs. 8–9
columns, one commit per book, the windowed fold. Every book column (dense)
or every ring column and running aggregate (windowed) must equal the
per-slot path of :func:`fleet_oracle.per_slot_run`, which finishes and
commits each slot before stepping the next: with blackouts inside a block,
stacked jobs on mixed feeder policies, a run that starts mid-ring, the
telemetry counters, and runs that raise mid-way. The dense per-feeder
roll-up must equal ``np.add.at`` bit for bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import FleetError, GridError
from repro.fleet import FeederGroup, FleetCostBook, FleetSimulation, build_default_fleet
from repro.fleet import costs, simulation
from repro.telemetry import Telemetry

from fleet_oracle import per_slot_fold, per_slot_run, uniform_feeders

N_HUBS = 7
DAYS = 3
HORIZON = 24 * DAYS

#: Slots per block: 1-slot blocks, 7-slot blocks (neither a divisor of the
#: 24-slot ring nor of the horizon), and one block past the horizon.
BLOCK_SLOTS = (1, 7, 10 * HORIZON)

STORAGES = ("dense", "windowed")


@pytest.fixture(scope="module")
def fleet():
    _, sim = build_default_fleet(
        N_HUBS, n_days=DAYS, seed=11, outage_probability=0.05
    )
    outage_slots = np.flatnonzero(sim.planes.outage_any)
    # Blackouts fall inside 7-slot blocks, not only on their edges.
    assert (outage_slots % 7 != 0).any() and (outage_slots % 7 != 6).any()
    return sim.params, sim.inputs, sim.planes


def feeder_groups(planes) -> dict:
    """Round-robin feeders whose per-slot capacity sometimes binds."""
    assignment = np.arange(N_HUBS) % 3
    base = np.stack(
        [planes.base_import_kw()[assignment == f].sum(axis=0) for f in range(3)]
    )
    scale = np.random.default_rng(4).uniform(0.6, 1.6, base.shape)
    capacity = np.maximum(base * scale, 0.0)
    priority = np.random.default_rng(5).uniform(0.5, 2.0, N_HUBS)
    return {
        "proportional": uniform_feeders(N_HUBS, 3, capacity),
        "priority": uniform_feeders(
            N_HUBS, 3, capacity, policy="priority", priority=priority
        ),
        "loose": uniform_feeders(N_HUBS, 3, 2.0 * capacity),
    }


def random_plan(n_jobs: int, seed: int = 0) -> np.ndarray:
    shape = (N_HUBS, HORIZON) if n_jobs == 1 else (n_jobs, N_HUBS, HORIZON)
    return np.random.default_rng(seed).integers(-1, 2, shape)


class Replay:
    """An open-loop planner that plays back one job's fixed plan."""

    def __init__(self, plan: np.ndarray) -> None:
        self.plan = plan
        self.blocks: list[tuple[int, int]] = []

    def __call__(self, view, start, stop):
        self.blocks.append((start, stop))
        return self.plan[:, start:stop]


def engine(fleet, storage: str, jobs: str = "single") -> FleetSimulation:
    params, inputs, planes = fleet
    groups = feeder_groups(planes)
    if jobs == "single":
        return FleetSimulation(
            params,
            inputs,
            feeders=groups["priority"],
            voll_per_kwh=2.0,
            storage=storage,
        )
    # Three jobs on mixed feeder policies, VoLLs and initial SoCs.
    return FleetSimulation(
        params,
        inputs,
        feeders=[groups["proportional"], groups["priority"], groups["loose"]],
        voll_per_kwh=[0.0, 2.5, 7.0],
        initial_soc_fraction=np.array([[0.2], [0.5], [0.9]]),
        storage=storage,
        n_jobs=3,
    )


def run_blocks(sim: FleetSimulation, plan: np.ndarray) -> list[Replay]:
    jobs = [plan] if sim.n_jobs == 1 else list(plan)
    planners = [Replay(job_plan) for job_plan in jobs]
    sim.run_jobs(planners)
    return planners


def book_state(book: FleetCostBook, ring_slots=None) -> dict:
    """Everything a book holds, as bytes: the recorded range of every
    dense column, or a windowed book's running aggregates and its ring
    (only the columns of ``ring_slots``, when given)."""
    if book.storage == "dense":
        n = book._n_recorded
        return {
            name: getattr(book, name)[:, :n].tobytes()
            for name in FleetCostBook.EXOGENOUS_COLUMNS + FleetCostBook.ACTION_COLUMNS
        }
    kept = slice(None) if ring_slots is None else [t % book.window for t in ring_slots]
    state = {
        f"ring.{name}": column[:, kept].tobytes() for name, column in book._ring.items()
    }
    for name, value in vars(book).items():
        if name.startswith("_acc_"):
            state[name] = value.tobytes()
    state["counts"] = (
        book._n_recorded,
        book._congested_slots,
        book._blackout_hub_slots,
    )
    return state


def assert_same_books(
    got: FleetSimulation, want: FleetSimulation, ring_slots=None
) -> None:
    assert got.t == want.t
    assert got.soc_kwh.tobytes() == want.soc_kwh.tobytes()
    for got_book, want_book in zip(got.books, want.books, strict=True):
        assert got_book._n_recorded == want_book._n_recorded
        got_state = book_state(got_book, ring_slots)
        want_state = book_state(want_book, ring_slots)
        assert got_state.keys() == want_state.keys()
        for name in want_state:
            assert got_state[name] == want_state[name], name


def set_block(monkeypatch, slots: int, sim: FleetSimulation) -> None:
    monkeypatch.setattr(simulation, "_BLOCK_HUB_SLOTS", slots * sim.n_hubs)


# --------------------------------------------------------------------- #
# Block runs == the per-slot path                                         #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("block", BLOCK_SLOTS)
@pytest.mark.parametrize("jobs", ["single", "stacked"])
@pytest.mark.parametrize("storage", STORAGES)
def test_block_run_equals_per_slot_path(fleet, monkeypatch, storage, jobs, block):
    sim, oracle = engine(fleet, storage, jobs), engine(fleet, storage, jobs)
    plan = random_plan(sim.n_jobs)
    set_block(monkeypatch, block, sim)
    planners = run_blocks(sim, plan)
    per_slot_run(oracle, plan)
    assert_same_books(sim, oracle)
    assert sum(book.blackout_hub_slots for book in sim.books) > 0
    assert sum(
        book.feeder_aggregates()["congested_feeder_slots"] for book in sim.books
    ) > 0
    if storage == "windowed":
        # No block wraps the ring.
        blocks = planners[0].blocks
        assert all(start // 24 == (stop - 1) // 24 for start, stop in blocks)


class CurtailedEverywhere(np.ndarray):
    """A shortfall array that reports a curtailment on every slot, so the
    engine runs the Eq. 6 reserve draw also where nobody was curtailed."""

    def any(self, *args, **kwargs):
        return True


@pytest.mark.parametrize("jobs", ["single", "stacked"])
@pytest.mark.parametrize("storage", STORAGES)
def test_skipped_reserve_draw_books_the_drawn_bits(fleet, monkeypatch, storage, jobs):
    """Coupled slots where the allocation curtailed nobody skip the Eq. 6
    reserve draw. The per-slot path with the draw run on every slot must
    book the same bits — p_bp_kw and unserved_kwh included — over a run
    that mixes curtailed and uncurtailed slots, blackouts among them."""
    if jobs == "single":
        sim, oracle = engine(fleet, storage), engine(fleet, storage)
        plan = random_plan(1, seed=2)
    else:
        # On the tight feeders some job is curtailed on nearly every slot:
        # stack three loose ones under a mostly idle plan instead.
        params, inputs, planes = fleet
        groups = feeder_groups(planes)
        loose = groups["loose"]
        feeders = [loose, dataclasses.replace(loose, policy="priority"), loose]
        sim, oracle = (
            FleetSimulation(
                params,
                inputs,
                feeders=feeders,
                voll_per_kwh=[0.0, 2.5, 7.0],
                initial_soc_fraction=np.array([[0.2], [0.5], [0.9]]),
                storage=storage,
                n_jobs=3,
            )
            for _ in range(2)
        )
        plan = np.random.default_rng(2).choice(
            [-1, 0, 1], size=(3, N_HUBS, HORIZON), p=[0.1, 0.8, 0.1]
        )
    run_blocks(sim, plan)
    allocate = FeederGroup.allocate
    curtailed = []

    def draw_everywhere(group, import_kw, t):
        granted, shortfall = allocate(group, import_kw, t)
        curtailed.append(bool(shortfall.any()))
        return granted, shortfall.view(CurtailedEverywhere)

    monkeypatch.setattr(FeederGroup, "allocate", draw_everywhere)
    per_slot_run(oracle, plan)
    assert len(curtailed) == HORIZON
    assert any(curtailed) and not all(curtailed)
    assert_same_books(sim, oracle)
    if storage == "dense":
        for got, want in zip(sim.books, oracle.books):
            assert got.p_bp_kw.tobytes() == want.p_bp_kw.tobytes()
            assert got.unserved_kwh.tobytes() == want.unserved_kwh.tobytes()
            # The reserve served curtailed import off the dark rows.
            lit = ~got.blackout & (got.import_shortfall_kw > 0.0)
            assert (got.unserved_kwh[lit] > 0.0).any() or (
                got.p_bp_kw[lit] < 0.0
            ).any()


@pytest.mark.parametrize("storage", STORAGES)
def test_block_run_after_manual_steps_is_off_the_ring_grid(
    fleet, monkeypatch, storage
):
    """Five public steps first, so every 7-slot block starts off the ring's
    grid; a windowed run cuts its blocks at the ring's edge."""
    sim, oracle = engine(fleet, storage, "stacked"), engine(fleet, storage, "stacked")
    plan = random_plan(sim.n_jobs, seed=1)
    for t in range(5):
        sim.step(plan[..., t])
    set_block(monkeypatch, 7, sim)
    planners = run_blocks(sim, plan)
    per_slot_run(oracle, plan)
    assert_same_books(sim, oracle)
    blocks = planners[0].blocks
    assert blocks[0] == (5, 12)
    if storage == "windowed":
        assert blocks[2] == (19, 24) and blocks[3] == (24, 31)
    else:
        assert blocks[2] == (19, 26)
    assert blocks[-1][1] == HORIZON


@pytest.mark.parametrize("block", BLOCK_SLOTS)
def test_windowed_fold_equals_a_slot_order_fold_of_dense(fleet, monkeypatch, block):
    """The windowed aggregates are bit for bit the dense columns folded one
    slot at a time, in slot order."""
    dense = engine(fleet, "dense", "stacked")
    windowed = engine(fleet, "windowed", "stacked")
    plan = random_plan(dense.n_jobs, seed=5)
    set_block(monkeypatch, block, dense)
    run_blocks(dense, plan)
    run_blocks(windowed, plan)
    for dense_book, windowed_book in zip(dense.books, windowed.books):
        feeders = windowed_book.feeder_aggregates()
        for name, want in per_slot_fold(dense_book).items():
            got = feeders[name] if name in feeders else getattr(windowed_book, name)
            got = got() if callable(got) else got
            if isinstance(want, int):
                assert got == want, name
            else:
                assert got.tobytes() == want.tobytes(), name


def test_telemetry_counters_equal_the_per_slot_path(fleet, monkeypatch):
    sim, oracle = engine(fleet, "dense", "stacked"), engine(fleet, "dense", "stacked")
    plan = random_plan(sim.n_jobs, seed=2)
    sessions = [Telemetry(include_meta=False) for _ in range(sim.n_jobs)]
    oracle_sessions = [Telemetry(include_meta=False) for _ in range(sim.n_jobs)]
    sim.attach_telemetry(sessions)
    oracle.attach_telemetry(oracle_sessions)
    set_block(monkeypatch, 7, sim)
    run_blocks(sim, plan)
    per_slot_run(oracle, plan)
    assert_same_books(sim, oracle)
    for got, want in zip(sessions, oracle_sessions):
        got, want = got.metrics.snapshot(), want.metrics.snapshot()
        assert json.dumps(got["counters"]) == json.dumps(want["counters"])
        assert got["counters"]["engine.slots"] == HORIZON
        assert got["counters"]["engine.blackout_hub_slots"] > 0
        assert got["counters"]["engine.congested_hub_slots"] > 0
        for name in ("engine.step_seconds",):
            assert got["histograms"][name]["count"] == want["histograms"][name]["count"]
        allocations = got["timers"]["allocation"]["count"]
        assert allocations == want["timers"]["allocation"]["count"] == HORIZON


# --------------------------------------------------------------------- #
# Runs that raise mid-way                                                 #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("bad", [2, 0.5])
def test_bad_plan_raises_before_its_block_steps(fleet, monkeypatch, storage, bad):
    """An illegal action in slot 30 fails the check of its block (dense
    [28, 35), windowed [24, 31)) before any of its slots steps; the
    blocks before it stay booked."""
    sim, oracle = engine(fleet, storage), engine(fleet, storage)
    plan = random_plan(1, seed=3).astype(type(bad))
    plan[4, 30] = bad
    set_block(monkeypatch, 7, sim)
    planner = Replay(plan)
    with pytest.raises(FleetError, match="battery actions must be -1, 0, or 1"):
        sim.run_jobs([planner])
    start = planner.blocks[-1][0]
    assert start == (28 if storage == "dense" else 24)
    assert sim.t == sim.books[0]._n_recorded == start
    for t in range(start):
        oracle.step(plan[:, t])
    assert_same_books(sim, oracle)


@pytest.mark.parametrize("storage", STORAGES)
def test_raise_mid_block_books_the_slots_before_it(fleet, monkeypatch, storage):
    """A hub's interconnection limit trips inside a block: the slots before
    the trip are finished and committed, exactly as a per-slot run books
    them, and both runs raise on the same slot. (A windowed block run has
    already refreshed the ring columns of the block's later slots, which
    hold no recorded slot's values either way, so only the committed
    slots of the tripped block are compared there.)"""
    params, inputs, _ = fleet
    plan = random_plan(1, seed=4)
    probe = FleetSimulation(params, inputs)
    per_slot_run(probe, plan)
    request = probe.books[0].p_grid_kw[0]
    # The first slot past 10 whose import beats every earlier one.
    trip = next(t for t in range(10, HORIZON) if request[t] > request[:t].max())
    limits = np.full(N_HUBS, 0.0)
    limits[0] = request[:trip].max()
    limited = dataclasses.replace(params, import_limit_kw=limits)
    sim = FleetSimulation(limited, inputs, storage=storage)
    oracle = FleetSimulation(limited, inputs, storage=storage)
    set_block(monkeypatch, 7, sim)
    planner = Replay(plan)
    with pytest.raises(GridError, match="interconnection limit"):
        sim.run_jobs([planner])
    with pytest.raises(GridError, match="interconnection limit"):
        per_slot_run(oracle, plan)
    start, stop = planner.blocks[-1]
    assert start < trip < stop - 1  # inside a block, neither end
    assert sim.t == sim.books[0]._n_recorded == trip
    assert_same_books(sim, oracle, ring_slots=range(start, trip))


# --------------------------------------------------------------------- #
# The book's block commit and per-feeder roll-up                          #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("rollup_slots", [1, 5, 10 * HORIZON])
def test_feeder_rollup_equals_add_at(monkeypatch, rollup_slots):
    """The flat-bin ``bincount`` roll-up sums each feeder's hubs in hub
    order from 0.0, as ``np.add.at`` does — on values whose sum depends on
    the order, signed zeros, and a feeder with no hubs."""
    n_hubs, horizon, n_feeders = 9, 50, 4
    rng = np.random.default_rng(6)
    values = rng.uniform(0.0, 1.0, (n_hubs, horizon)) * 10.0 ** rng.integers(
        -8, 9, (n_hubs, horizon)
    )
    values[:, 3] = -0.0
    values[::2, 7] = -0.0
    assignment = np.array([2, 0, 2, 1, 0, 2, 2, 1, 0])  # feeder 3 is empty
    feeders = uniform_feeders(n_hubs, n_feeders, 1.0)
    feeders = dataclasses.replace(feeders, assignment=assignment)
    book = FleetCostBook(
        n_hubs,
        horizon,
        feeders=feeders,
        columns={"p_grid_kw": values, "import_shortfall_kw": values[::-1].copy()},
    )
    book.commit_slots(0, 20)
    book.commit_slots(20, horizon - 1)
    monkeypatch.setattr(costs, "_ROLLUP_HUB_SLOTS", rollup_slots * n_hubs)
    for got, column in (
        (book.feeder_import_kw(), values),
        (book.feeder_shortfall_kw(), values[::-1]),
    ):
        want = np.zeros((n_feeders, horizon - 1))
        np.add.at(want, assignment, column[:, : horizon - 1])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_rows", [1, 4, 100])
def test_row_blocked_aggregates_equal_whole_book_expressions(monkeypatch, block_rows):
    """Operating cost and daily rewards combine their columns over hub-row
    blocks (1-row, uneven 4-row and whole-book blocks here) and reduce
    each row as the whole-book expressions do, on a partly recorded book
    of values whose sums depend on the order."""
    n_hubs, horizon, recorded = 9, 80, 61
    rng = np.random.default_rng(7)

    def column():
        return rng.uniform(0.0, 1.0, (n_hubs, horizon)) * 10.0 ** rng.integers(
            -8, 9, (n_hubs, horizon)
        )

    columns = {
        name: column() for name in ("revenue", "grid_cost", "bp_cost", "unserved_kwh")
    }
    book = FleetCostBook(n_hubs, horizon, voll_per_kwh=3.7, columns=columns)
    book.commit_slots(0, recorded)
    monkeypatch.setattr(costs, "_ROLLUP_HUB_SLOTS", block_rows * recorded)
    kept = {name: values[:, :recorded] for name, values in columns.items()}
    want_cost = (kept["grid_cost"] + kept["bp_cost"]).sum(axis=1)
    rewards = (
        kept["revenue"]
        - kept["grid_cost"]
        - kept["bp_cost"]
        - 3.7 * kept["unserved_kwh"]
    )
    want_daily = np.add.reduceat(rewards, np.arange(0, recorded, 24), axis=1)
    assert book.operating_cost_per_hub.tobytes() == want_cost.tobytes()
    assert book.daily_rewards().tobytes() == want_daily.tobytes()


def test_commit_slots_checks_its_block():
    book = FleetCostBook(3, 30, storage="windowed")
    with pytest.raises(FleetError, match="expected 0, got 1"):
        book.commit_slots(1, 2)
    with pytest.raises(FleetError, match="outside the book horizon"):
        book.commit_slots(0, 31)
    with pytest.raises(FleetError, match="outside the book horizon"):
        book.commit_slots(0, 0)
    book.commit_slots(0, 20)
    with pytest.raises(FleetError, match="wrap the 24-slot ring"):
        book.commit_slots(20, 26)
    book.commit_slots(20, 24)
    book.commit_slots(24, 30)
    assert book._n_recorded == 30
