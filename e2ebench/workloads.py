"""The four canonical workloads: what each runs, its sizes, and its checks.

A workload turns a seed into the input of one public ``repro.api`` call
(``prepare``), makes that call and writes the ``--out`` export
(``deliver``), and checks the export it wrote (``check``). ``prepare`` is
the resolved spec and stays outside the timed region; ``deliver`` is the
timed region — spec to ``--out`` JSON on disk.

``deliver`` looks every program function up as a module attribute at call
time (``api.run``, ``experiments_base.write_results_json``), so the traced
run's wrappers, installed on those attributes, see the same calls the
untraced run makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

#: Relative tolerance of the Eq. 12 profit identity checks.
PROFIT_RTOL = 1e-9

#: Slots per simulated day (hourly slots).
SLOTS_PER_DAY = 24


@dataclass(frozen=True)
class Workload:
    """One named workload and the sizes it states.

    Why each workload exists is recorded with it in ``BENCHMARK.json``.
    """

    name: str
    #: ``seed -> api input`` (a ScenarioSpec or SweepSpec).
    prepare: Callable[[int], Any]
    #: ``api input -> result or list of results``.
    run: Callable[[Any], Any]
    #: Export payload -> list of failed-check messages.
    check: Callable[[Any], list[str]]
    #: Simulated hub-slots per run; the numerator of ``hub_slots_per_s``.
    hub_slots: int


def deliver(workload: Workload, prepared: Any, out_path) -> None:
    """The timed region: one ``api`` call plus ``write_results_json``."""
    from repro.experiments import base as experiments_base

    experiments_base.write_results_json(workload.run(prepared), out_path)


# --------------------------------------------------------------------- #
# Checks shared by the fleet-result workloads                            #
# --------------------------------------------------------------------- #


def _close(a: float, b: float, rtol: float = PROFIT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def check_fleet_data(data: dict, *, n_hubs: int, days: int, label: str) -> list[str]:
    """Sizes plus ``profit == revenue - operating - voll`` for one result."""
    failures = []
    if data.get("n_hubs") != n_hubs:
        failures.append(f"{label}: n_hubs {data.get('n_hubs')} != {n_hubs}")
    if data.get("days") != days:
        failures.append(f"{label}: days {data.get('days')} != {days}")
    profit = data["network_profit"]
    terms = (
        data["network_charging_revenue"]
        - data["network_operating_cost"]
        - data["network_voll_cost"]
    )
    if not _close(profit, terms):
        failures.append(
            f"{label}: network_profit {profit!r} != revenue - operating - voll "
            f"{terms!r}"
        )
    if len(data["profit_per_hub"]) != n_hubs:
        failures.append(f"{label}: {len(data['profit_per_hub'])} per-hub profits")
    return failures


# --------------------------------------------------------------------- #
# city                                                                   #
# --------------------------------------------------------------------- #

CITY_HUBS = 2000
CITY_DAYS = 7
CITY_FEEDERS = 20
CITY_FEEDER_CAPACITY_KW = 4000.0


def prepare_city(seed: int):
    from repro.spec import spec_from_fleet_flags

    return spec_from_fleet_flags(
        n_hubs=CITY_HUBS,
        days=CITY_DAYS,
        seed=seed,
        n_feeders=CITY_FEEDERS,
        feeder_capacity_kw=CITY_FEEDER_CAPACITY_KW,
    )


def run_city(spec):
    from repro import api

    return api.run(spec)


def check_city(payload: dict) -> list[str]:
    data = payload["data"]
    failures = check_fleet_data(data, n_hubs=CITY_HUBS, days=CITY_DAYS, label="city")
    if data.get("n_feeders") != CITY_FEEDERS:
        failures.append(f"city: n_feeders {data.get('n_feeders')} != {CITY_FEEDERS}")
    return failures


# --------------------------------------------------------------------- #
# sweep                                                                  #
# --------------------------------------------------------------------- #

SWEEP_PRESET = "congested-city"
SWEEP_HUBS = 48
SWEEP_DAYS = 28
SWEEP_SCHEDULERS = ("rule-based", "greedy-renewable", "idle", "random")
SWEEP_ALLOCATIONS = ("proportional", "priority")
SWEEP_JOBS = len(SWEEP_SCHEDULERS) * len(SWEEP_ALLOCATIONS)


def prepare_sweep(seed: int):
    from repro.spec import SweepSpec, get_preset

    base = get_preset(SWEEP_PRESET).with_overrides(
        {"run.days": SWEEP_DAYS, "run.seed": seed}
    )
    return SweepSpec(
        base=base,
        parameters={
            "scheduler.name": SWEEP_SCHEDULERS,
            "grid.allocation": SWEEP_ALLOCATIONS,
        },
        name="bench-sweep",
    )


def run_sweep(sweep):
    from repro import api

    return api.run_sweep(sweep, jobs=1)


def check_sweep(payload: list) -> list[str]:
    if len(payload) != SWEEP_JOBS:
        return [f"sweep: {len(payload)} results != {SWEEP_JOBS} jobs"]
    failures = []
    seen = set()
    for index, result in enumerate(payload):
        data = result["data"]
        failures += check_fleet_data(
            data, n_hubs=SWEEP_HUBS, days=SWEEP_DAYS, label=f"sweep[{index}]"
        )
        overrides = data["sweep_overrides"]
        seen.add((overrides["scheduler.name"], overrides["grid.allocation"]))
    expected = {(s, a) for s in SWEEP_SCHEDULERS for a in SWEEP_ALLOCATIONS}
    if seen != expected:
        failures.append(f"sweep: job grid {sorted(seen)} != {sorted(expected)}")
    return failures


# --------------------------------------------------------------------- #
# pricing                                                                #
# --------------------------------------------------------------------- #

PRICING_SCALE = 0.5
PRICING_HUBS = 50
PRICING_DAYS = 4
PRICING_TRAIN_DAYS = 15
PRICING_EPOCHS = 15
PRICING_METHODS = ("none", "evening", "ours", "or", "ips", "dr")


def prepare_pricing(seed: int):
    from repro.spec import spec_from_price_flags

    return spec_from_price_flags(scale=PRICING_SCALE, seed=seed)


def run_pricing(spec):
    from repro import api

    return api.run_pricing(spec)


def check_pricing(payload: dict) -> list[str]:
    """Sizes, the method lineup, and profit == sum of daily rewards.

    The pricing export keeps per-method profit and the hub-mean daily
    reward, not the revenue/cost terms, so the Eq. 12 identity is
    checked in its folded form: mean daily reward x hubs x days.
    """
    data = payload["data"]
    failures = []
    if data.get("n_hubs") != PRICING_HUBS:
        failures.append(f"pricing: n_hubs {data.get('n_hubs')} != {PRICING_HUBS}")
    if data.get("days") != PRICING_DAYS:
        failures.append(f"pricing: days {data.get('days')} != {PRICING_DAYS}")
    if tuple(data.get("methods", ())) != PRICING_METHODS:
        failures.append(f"pricing: methods {data.get('methods')} != {PRICING_METHODS}")
    pricing = data["spec"]["pricing"]
    if (pricing["train_days"], pricing["epochs"]) != (
        PRICING_TRAIN_DAYS,
        PRICING_EPOCHS,
    ):
        failures.append(
            f"pricing: train_days/epochs {pricing['train_days']}/"
            f"{pricing['epochs']} != {PRICING_TRAIN_DAYS}/{PRICING_EPOCHS}"
        )
    for name, row in data["per_method"].items():
        folded = row["avg_daily_reward_per_hub"] * PRICING_HUBS * PRICING_DAYS
        if not _close(row["network_profit"], folded, rtol=1e-9):
            failures.append(
                f"pricing[{name}]: network_profit {row['network_profit']!r} != "
                f"daily rewards x hubs x days {folded!r}"
            )
    return failures


# --------------------------------------------------------------------- #
# train                                                                  #
# --------------------------------------------------------------------- #

TRAIN_HUBS = 6
TRAIN_EPISODE_DAYS = 5
TRAIN_EPISODES = 40
TRAIN_EVAL_EPISODES = 5
#: Untrained and trained evaluation, each stochastic and greedy.
TRAIN_EVAL_PASSES = 4


def prepare_train(seed: int):
    from repro.spec import spec_from_train_fleet_flags

    return spec_from_train_fleet_flags(seed=seed)


def run_train(spec):
    from repro import api

    return api.train_fleet(spec)


def check_train(payload: dict) -> list[str]:
    """Sizes, a finite training curve, and the paired-improvement identity."""
    data = payload["data"]
    failures = []
    expected = {
        "n_hubs": TRAIN_HUBS,
        "episode_days": TRAIN_EPISODE_DAYS,
        "train_episodes": TRAIN_EPISODES,
        "eval_episodes": TRAIN_EVAL_EPISODES,
    }
    for key, value in expected.items():
        if data.get(key) != value:
            failures.append(f"train: {key} {data.get(key)} != {value}")
    curve = data["training_curve"]
    if len(curve) != TRAIN_EPISODES or not all(math.isfinite(v) for v in curve):
        failures.append(f"train: training curve of {len(curve)} values not finite")
    improvement = data["trained_mean_reward"] - data["untrained_mean_reward"]
    if not _close(data["improvement"], improvement):
        failures.append(
            f"train: improvement {data['improvement']!r} != trained - untrained "
            f"{improvement!r}"
        )
    return failures


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="city",
            prepare=prepare_city,
            run=run_city,
            check=check_city,
            hub_slots=CITY_HUBS * CITY_DAYS * SLOTS_PER_DAY,
        ),
        Workload(
            name="sweep",
            prepare=prepare_sweep,
            run=run_sweep,
            check=check_sweep,
            hub_slots=SWEEP_JOBS * SWEEP_HUBS * SWEEP_DAYS * SLOTS_PER_DAY,
        ),
        Workload(
            name="pricing",
            prepare=prepare_pricing,
            run=run_pricing,
            check=check_pricing,
            hub_slots=len(PRICING_METHODS)
            * PRICING_HUBS
            * PRICING_DAYS
            * SLOTS_PER_DAY,
        ),
        Workload(
            name="train",
            prepare=prepare_train,
            run=run_train,
            check=check_train,
            hub_slots=(TRAIN_EPISODES + TRAIN_EVAL_PASSES * TRAIN_EVAL_EPISODES)
            * TRAIN_EPISODE_DAYS
            * SLOTS_PER_DAY
            * TRAIN_HUBS,
        ),
    )
}
