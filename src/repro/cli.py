"""Command-line entry point: regenerate any paper artifact, run any spec.

Usage::

    ect-hub list
    ect-hub run table2 [--scale 1.0] [--seed 0] [--out results.json]
    ect-hub run-all [--scale 0.5] [--out results.json]

    ect-hub fleet --n-hubs 200 [--days 14] [--scheduler rule-based]
    ect-hub fleet --preset congested-city --set run.days=3
    ect-hub fleet --spec scenario.json --out results.json
    ect-hub fleet --preset congested-city --storage windowed

    ect-hub train-fleet --n-hubs 12 --episodes 100
    ect-hub train-fleet --preset congested-city --set rl.train_episodes=50

    ect-hub price --n-hubs 100 [--methods none,evening,ours,or,ips,dr]
    ect-hub price --preset congested-city --set pricing.feeder_aware=true

    ect-hub presets [--show NAME] [--check]
    ect-hub sweep --preset fleet-default --param run.seed=0,1,2
    ect-hub sweep --spec sweep.json --out sweep.json

``fleet`` accepts either the legacy engine flags (a shim that folds them
into a :class:`~repro.spec.scenario.ScenarioSpec`) or a declarative
scenario via ``--spec FILE`` / ``--preset NAME`` plus dotted ``--set
key=value`` overrides. ``sweep`` expands a base spec × parameter grid and
runs every job. ``--out PATH`` persists experiment ``data`` dicts as JSON
so results can be diffed across runs and PRs.

Observability: every subcommand takes ``-v/--verbose`` and ``-q/--quiet``
(the :mod:`repro.telemetry.log` threshold); the run-shaped subcommands
additionally take ``--telemetry`` (collect + print a RunTelemetry
summary; with ``--out`` the record also lands in a ``*.telemetry.json``
sidecar) and ``--trace-out PATH`` (export the nested phase trace and
full record as JSON).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ParallelError, ReproError
from .experiments import available_experiments, run_experiment
from .experiments.base import write_results_json
from .fleet.grid import ALLOCATION_POLICIES
from .fleet.schedulers import FLEET_SCHEDULERS
from .spec import (
    ScenarioSpec,
    SweepSpec,
    available_presets,
    get_preset,
    parse_assignments,
    parse_override_value,
    spec_from_fleet_flags,
    spec_from_price_flags,
    spec_from_train_fleet_flags,
    verify_roundtrips,
)
from .telemetry import (
    Telemetry,
    log,
    telemetry_sidecar_path,
    write_telemetry_json,
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="ect-hub",
        description="ECT-Hub reproduction: regenerate paper tables/figures.",
    )
    # Shared per-subcommand flags: verbosity on everything, telemetry on
    # the run-shaped subcommands (parents= so they sit after the
    # subcommand where users type them).
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity_g = verbosity.add_mutually_exclusive_group()
    verbosity_g.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="show debug-level log lines",
    )
    verbosity_g.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress info-level log lines (warnings/errors only)",
    )
    telemetry_args = argparse.ArgumentParser(add_help=False)
    telemetry_args.add_argument(
        "--telemetry",
        action="store_true",
        help="collect run telemetry (phase timings, engine counters) and "
        "print a summary; with --out, also write a *.telemetry.json sidecar",
    )
    telemetry_args.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the nested phase trace + RunTelemetry record as JSON "
        "(implies --telemetry)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list available experiment ids", parents=[verbosity]
    )

    run_p = sub.add_parser(
        "run",
        help="run one experiment",
        parents=[verbosity, telemetry_args],
    )
    run_p.add_argument("experiment", choices=available_experiments())
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep-style experiments "
        "(0 = all cores; default: serial)",
    )
    run_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    all_p = sub.add_parser(
        "run-all", help="run every experiment", parents=[verbosity]
    )
    all_p.add_argument("--scale", type=float, default=1.0)
    all_p.add_argument("--seed", type=int, default=0)
    all_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    fleet_p = sub.add_parser(
        "fleet",
        help="batch-simulate an N-hub fleet (vectorized engine)",
        parents=[verbosity, telemetry_args],
    )
    spec_g = fleet_p.add_argument_group("declarative scenario")
    spec_g.add_argument(
        "--spec", type=str, default=None, help="scenario spec JSON file"
    )
    spec_g.add_argument(
        "--preset", type=str, default=None, help="named preset (see `presets`)"
    )
    spec_g.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override, e.g. --set grid.feeder_capacity_kw=400",
    )
    flag_g = fleet_p.add_argument_group(
        "engine flags (legacy shim; not combinable with --spec/--preset)"
    )
    flag_g.add_argument("--n-hubs", type=int, default=None)
    flag_g.add_argument("--days", type=int, default=None)
    flag_g.add_argument(
        "--scheduler", choices=sorted(FLEET_SCHEDULERS), default=None
    )
    flag_g.add_argument(
        "--n-feeders",
        type=int,
        default=None,
        help="feeders hubs are round-robined over (shared-grid coupling)",
    )
    flag_g.add_argument(
        "--feeder-capacity",
        type=float,
        default=None,
        help="per-feeder import capacity in kW (default: unlimited/uncoupled)",
    )
    flag_g.add_argument(
        "--allocation",
        choices=list(ALLOCATION_POLICIES),
        default=None,
        help="contention policy when a feeder limit binds",
    )
    fleet_p.add_argument(
        "--storage",
        choices=("dense", "windowed"),
        default=None,
        help="cost-book layout: 'windowed' folds slots into running "
        "aggregates so memory stops scaling with the horizon "
        "(sugar for --set run.storage=...)",
    )
    fleet_p.add_argument("--scale", type=float, default=None)
    fleet_p.add_argument("--seed", type=int, default=None)
    fleet_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    train_p = sub.add_parser(
        "train-fleet",
        help="train PPO on (n_hubs,) action batches over the fleet engine",
        parents=[verbosity, telemetry_args],
    )
    train_spec_g = train_p.add_argument_group("declarative scenario")
    train_spec_g.add_argument(
        "--spec", type=str, default=None, help="scenario spec JSON file"
    )
    train_spec_g.add_argument(
        "--preset", type=str, default=None, help="named preset (see `presets`)"
    )
    train_spec_g.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override, e.g. --set rl.train_episodes=100",
    )
    train_flag_g = train_p.add_argument_group(
        "schedule flags (shim; not combinable with --spec/--preset)"
    )
    train_flag_g.add_argument("--n-hubs", type=int, default=None)
    train_flag_g.add_argument("--days", type=int, default=None)
    train_flag_g.add_argument(
        "--episodes",
        type=int,
        default=None,
        help="PPO training episodes (one update per episode)",
    )
    train_flag_g.add_argument(
        "--eval-episodes",
        type=int,
        default=None,
        help="evaluation episodes before and after training",
    )
    train_p.add_argument("--scale", type=float, default=None)
    train_p.add_argument("--seed", type=int, default=None)
    train_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    price_p = sub.add_parser(
        "price",
        help="compare discount pricing policies over one fleet (Table III)",
        parents=[verbosity, telemetry_args],
    )
    price_spec_g = price_p.add_argument_group("declarative scenario")
    price_spec_g.add_argument(
        "--spec", type=str, default=None, help="scenario spec JSON file"
    )
    price_spec_g.add_argument(
        "--preset", type=str, default=None, help="named preset (see `presets`)"
    )
    price_spec_g.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override, e.g. --set pricing.discount_level=0.3",
    )
    price_flag_g = price_p.add_argument_group(
        "pricing flags (shim; not combinable with --spec/--preset)"
    )
    price_flag_g.add_argument("--n-hubs", type=int, default=None)
    price_flag_g.add_argument("--days", type=int, default=None)
    price_flag_g.add_argument(
        "--train-days",
        type=int,
        default=None,
        help="simulated historical log length the policies train on",
    )
    price_flag_g.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="ECT-Price training epochs (baselines split the same budget)",
    )
    price_flag_g.add_argument(
        "--discount",
        type=float,
        default=None,
        help="discount level in [0, 1) offered on selected hub-slots",
    )
    price_flag_g.add_argument(
        "--feeder-capacity",
        type=float,
        default=None,
        help="per-feeder import capacity in kW; also turns on feeder-aware "
        "pricing (default: unlimited/uncoupled)",
    )
    price_p.add_argument(
        "--methods",
        type=str,
        default=None,
        metavar="M1,M2,...",
        help="comma-separated policies to compare "
        "(default: none,evening,ours,or,ips,dr)",
    )
    price_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes, one method per job "
        "(0 = all cores; default: serial, byte-identical either way)",
    )
    price_p.add_argument("--scale", type=float, default=None)
    price_p.add_argument("--seed", type=int, default=None)
    price_p.add_argument("--out", type=str, default=None, help="write data as JSON")

    presets_p = sub.add_parser(
        "presets", help="list/inspect scenario presets", parents=[verbosity]
    )
    presets_p.add_argument(
        "--show", type=str, default=None, metavar="NAME", help="print a preset as JSON"
    )
    presets_p.add_argument(
        "--check",
        action="store_true",
        help="round-trip and compile every preset (CI smoke check)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="expand a base spec x parameter grid and run every job",
        parents=[verbosity, telemetry_args],
    )
    sweep_p.add_argument(
        "--spec", type=str, default=None, help="SweepSpec JSON file"
    )
    sweep_p.add_argument(
        "--preset", type=str, default=None, help="base scenario from a preset"
    )
    sweep_p.add_argument(
        "--base-spec", type=str, default=None, help="base scenario JSON file"
    )
    sweep_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override applied to the base before expansion",
    )
    sweep_p.add_argument(
        "--param",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="grid axis, e.g. --param run.seed=0,1,2 (repeatable)",
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = all cores; default: serial, "
        "byte-identical results either way)",
    )
    sweep_p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="jobs per worker task (default: ~4 chunks per worker; bigger "
        "chunks amortise submit overhead and assembly recompiles)",
    )
    sweep_p.add_argument("--out", type=str, default=None, help="write data as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns the process exit code."""
    args = build_parser().parse_args(argv)
    log.configure(
        verbose=getattr(args, "verbose", False),
        quiet=getattr(args, "quiet", False),
    )
    try:
        return _dispatch(args)
    except ReproError as error:
        log.error(f"ect-hub {args.command}: error: {error}")
        if isinstance(error, ParallelError) and error.job_traceback:
            log.error("worker traceback (job-side):\n" + error.job_traceback)
        return 1


def _telemetry_session(args: argparse.Namespace) -> Telemetry | None:
    """The run's telemetry session, or ``None`` when not requested."""
    if getattr(args, "telemetry", False) or getattr(args, "trace_out", None):
        return Telemetry()
    return None


def _emit_telemetry(
    telemetry: Telemetry | None, args: argparse.Namespace
) -> None:
    """Print the telemetry summary and write the requested export files.

    Called after the run (and, for sweeps, after job records have been
    absorbed), so the session snapshot is the complete RunTelemetry
    record at this point.
    """
    if telemetry is None:
        return
    for line in telemetry.summary_lines():
        log.info(line)
    record = telemetry.to_dict()
    if getattr(args, "trace_out", None):
        log.info(f"wrote {write_telemetry_json(record, args.trace_out)}")
    if getattr(args, "out", None):
        sidecar = telemetry_sidecar_path(args.out)
        log.info(f"wrote {write_telemetry_json(record, sidecar)}")


def _resolve_spec_args(
    args: argparse.Namespace,
    shim_flags: dict[str, object],
    build_shim,
    override_hint: str,
) -> ScenarioSpec:
    """Shared ``--spec/--preset/--set`` vs engine-flag resolution.

    ``shim_flags`` maps flag spellings to parsed values (``None`` =
    unset); declarative mode rejects any set flag with ``override_hint``
    as the suggested ``--set`` replacement, flag mode calls
    ``build_shim(scale, seed)`` to fold them into a spec.
    """
    declarative = args.spec is not None or args.preset is not None
    if args.spec is not None and args.preset is not None:
        raise ConfigError("--spec and --preset are mutually exclusive")
    if declarative:
        used = sorted(
            name for name, value in shim_flags.items() if value is not None
        )
        if used:
            raise ConfigError(
                f"{', '.join(used)} cannot be combined with --spec/--preset; "
                f"use --set overrides instead (e.g. --set {override_hint})"
            )
        spec = (
            ScenarioSpec.load(args.spec)
            if args.spec is not None
            else get_preset(args.preset)
        )
        sugar: dict[str, object] = {}
        if args.scale is not None:
            sugar["run.scale"] = args.scale
        if args.seed is not None:
            sugar["run.seed"] = args.seed
        if sugar:
            spec = spec.with_overrides(sugar)
    else:
        spec = build_shim(
            scale=args.scale if args.scale is not None else 1.0,
            seed=args.seed if args.seed is not None else 0,
        )
    if args.overrides:
        spec = spec.with_overrides(parse_assignments(args.overrides))
    return spec


def _fleet_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the ``fleet`` subcommand's arguments into one spec."""
    return _resolve_spec_args(
        args,
        {
            "--n-hubs": args.n_hubs,
            "--days": args.days,
            "--scheduler": args.scheduler,
            "--n-feeders": args.n_feeders,
            "--feeder-capacity": args.feeder_capacity,
            "--allocation": args.allocation,
        },
        lambda *, scale, seed: spec_from_fleet_flags(
            scale=scale,
            seed=seed,
            n_hubs=args.n_hubs,
            days=args.days,
            scheduler=args.scheduler if args.scheduler is not None else "rule-based",
            n_feeders=args.n_feeders if args.n_feeders is not None else 1,
            feeder_capacity_kw=args.feeder_capacity,
            allocation=args.allocation if args.allocation is not None else "proportional",
        ),
        "fleet.n_hubs=48",
    )


def _train_fleet_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the ``train-fleet`` subcommand's arguments into one spec."""
    return _resolve_spec_args(
        args,
        {
            "--n-hubs": args.n_hubs,
            "--days": args.days,
            "--episodes": args.episodes,
            "--eval-episodes": args.eval_episodes,
        },
        lambda *, scale, seed: spec_from_train_fleet_flags(
            scale=scale,
            seed=seed,
            n_hubs=args.n_hubs,
            days=args.days,
            train_episodes=args.episodes,
            eval_episodes=args.eval_episodes,
        ),
        "rl.train_episodes=20",
    )


def _price_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the ``price`` subcommand's arguments into one spec."""
    return _resolve_spec_args(
        args,
        {
            "--n-hubs": args.n_hubs,
            "--days": args.days,
            "--train-days": args.train_days,
            "--epochs": args.epochs,
            "--discount": args.discount,
            "--feeder-capacity": args.feeder_capacity,
        },
        lambda *, scale, seed: spec_from_price_flags(
            scale=scale,
            seed=seed,
            n_hubs=args.n_hubs,
            days=args.days,
            train_days=args.train_days,
            epochs=args.epochs,
            discount_level=args.discount,
            feeder_aware=args.feeder_capacity is not None,
            feeder_capacity_kw=args.feeder_capacity,
        ),
        "pricing.discount_level=0.3",
    )


def _price_methods(args: argparse.Namespace) -> tuple[str, ...] | None:
    """Parse ``--methods M1,M2,...`` (``None`` = the default lineup)."""
    if args.methods is None:
        return None
    methods = tuple(
        name.strip() for name in args.methods.split(",") if name.strip()
    )
    if not methods:
        raise ConfigError("--methods needs at least one policy name")
    return methods


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """Resolve the ``sweep`` subcommand's arguments into one SweepSpec."""
    sources = [args.spec, args.preset, args.base_spec]
    if sum(source is not None for source in sources) != 1:
        raise ConfigError(
            "sweep needs exactly one of --spec, --preset, or --base-spec"
        )
    if args.spec is not None:
        sweep = SweepSpec.load(args.spec)
        if args.overrides or args.params:
            raise ConfigError(
                "--set/--param cannot be combined with a full --spec sweep file"
            )
        return sweep
    base = (
        get_preset(args.preset)
        if args.preset is not None
        else ScenarioSpec.load(args.base_spec)
    )
    if args.overrides:
        base = base.with_overrides(parse_assignments(args.overrides))
    if not args.params:
        raise ConfigError("sweep needs at least one --param KEY=V1,V2,... axis")
    parameters: dict[str, tuple] = {}
    for raw in args.params:
        key, sep, values = raw.partition("=")
        if not sep or not key or not values:
            raise ConfigError(f"--param {raw!r} must look like key.path=v1,v2,...")
        parameters[key] = tuple(
            parse_override_value(value) for value in values.split(",")
        )
    return SweepSpec(base=base, parameters=parameters, name=f"{base.name}-sweep")


def _dispatch(args: argparse.Namespace) -> int:
    # Local import: repro.api pulls in the experiment registry package,
    # which imports this module's siblings; keep CLI start-up light.
    from . import api

    if args.command == "list":
        for experiment_id in available_experiments():
            log.info(experiment_id)
        return 0
    if args.command == "run":
        telemetry = _telemetry_session(args)
        result = run_experiment(
            args.experiment,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            telemetry=telemetry,
        )
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "run-all":
        results = []
        for experiment_id in available_experiments():
            result = run_experiment(experiment_id, scale=args.scale, seed=args.seed)
            results.append(result)
            log.info(result.rendered())
            log.info("")
        if args.out:
            log.info(f"wrote {write_results_json(results, args.out)}")
        return 0
    if args.command == "fleet":
        telemetry = _telemetry_session(args)
        spec = _fleet_spec(args)
        if args.storage is not None:
            spec = spec.with_overrides({"run.storage": args.storage})
        result = api.run(spec, telemetry=telemetry)
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "train-fleet":
        telemetry = _telemetry_session(args)
        result = api.train_fleet(_train_fleet_spec(args), telemetry=telemetry)
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "price":
        telemetry = _telemetry_session(args)
        result = api.run_pricing(
            _price_spec(args),
            methods=_price_methods(args),
            jobs=args.jobs,
            telemetry=telemetry,
        )
        log.info(result.rendered())
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(result, args.out)}")
        return 0
    if args.command == "presets":
        if args.check:
            names = verify_roundtrips(build_specs=True)
            log.info(f"ok: {len(names)} presets round-trip and compile")
            return 0
        if args.show is not None:
            log.info(get_preset(args.show).to_json())
            return 0
        for name in available_presets():
            log.info(f"{name:<24} {get_preset(name).description}")
        return 0
    if args.command == "sweep":
        telemetry = _telemetry_session(args)
        sweep = _sweep_spec(args)
        jobs = sweep.jobs()
        log.info(f"sweep {sweep.name}: {len(jobs)} jobs over {sweep.base.name!r}")
        results = api.run_sweep(
            sweep,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            telemetry=telemetry,
        )
        for job, result in zip(jobs, results):
            data = result.data
            label = job.label() or "(base)"
            log.info(
                f"  [{job.index}] {label}: profit ${data['network_profit']:,.0f}, "
                f"unserved {data['network_unserved_kwh']:,.1f} kWh, "
                f"curtailed {data['import_shortfall_kwh']:,.1f} kWh"
            )
        _emit_telemetry(telemetry, args)
        if args.out:
            log.info(f"wrote {write_results_json(results, args.out)}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
