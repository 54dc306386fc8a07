"""Every function in ``src/repro`` runs from some entry point.

``tests/test_callers.py`` matches callers by name, so a method that shares
its name with live code (``act``, ``slice``, ``contains``) passes it even
when nothing calls it. This check runs the program instead. It records the
code object of every call into ``src/repro`` with ``sys.setprofile`` (and
``threading.setprofile``, and inside forked pool workers, which inherit
the hook), while it drives the fixed entry points of :func:`run_entry_points`:

* every registry experiment, through ``run-all`` at a small scale;
* one ``deliver`` of each ``e2ebench`` workload;
* every script under ``examples/``;
* the CLI commands CI smokes, sweeps and pricing serial and over a
  two-worker pool, ``fleet --spec`` and ``sweep --spec`` on saved files
  (an older-schema payload among them), and ``price`` with the oracle
  policy and with feeder-aware pricing.

It then walks the AST of every ``def`` in ``src/repro`` (methods and
nested functions too) and prints ``path:line  name`` for each one whose
code never started. A body that is only a docstring and one ``raise`` (an
abstract hook) is exempt. Any other never-run function must be listed,
with its reason, in ``tests/test_callers.py``'s ``ALLOWED``; the one
allow-list serves both checks. The script exits 1 when a never-run
function is not allowed, or when an ``ALLOWED`` entry is needed by
neither check (it ran and has a caller by name, or it is gone).

Run from the repository root (about a minute; too slow for tier-1, so CI
runs it as its own step)::

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


@dataclass(frozen=True)
class Definition:
    """One ``def`` under the scanned package."""

    qualname: str
    path: Path
    #: First line of the code object: the first decorator's, else the def's.
    line: int
    name: str
    #: The body is a docstring (optional) plus a single ``raise``.
    raise_only: bool

    @property
    def key(self) -> tuple[str, int, str]:
        return (str(self.path), self.line, self.name)


def _raise_only(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def function_definitions(package: Path = PACKAGE) -> list[Definition]:
    """Every function, method and nested function under ``package``."""
    found = []

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(
                    Definition(qualname, path, line, child.name, _raise_only(child))
                )
                visit(child, path, qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text()), path, module)
    return found


class CallCollector:
    """Record ``(file, first line, name)`` of every code object called
    under ``package`` while the context is open, forked workers included.

    A worker forked from the profiled thread inherits the hook; an
    after-fork callback empties its inherited set and registers an exit
    finalizer that writes what the worker ran to a scratch directory,
    merged into :attr:`ran` when the context closes. A fork after that
    records nothing.
    """

    def __init__(self, package: Path = PACKAGE) -> None:
        self.prefix = str(package) + os.sep
        self.ran: set[tuple[str, int, str]] = set()
        self._codes: set = set()
        self._dumps: tempfile.TemporaryDirectory | None = None

    def _keys(self) -> set[tuple[str, int, str]]:
        return {
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in self._codes
            if code.co_filename.startswith(self.prefix)
        }

    def _in_worker(self) -> None:
        if self._dumps is None:
            return
        self._codes.clear()
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        sys.setprofile(None)
        path = Path(self._dumps.name) / f"{os.getpid()}.json"
        path.write_text(json.dumps(sorted(self._keys())))

    def __enter__(self) -> "CallCollector":
        self._dumps = tempfile.TemporaryDirectory(prefix="reachability-")
        codes = self._codes

        def hook(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)

        mp_util.register_after_fork(self, CallCollector._in_worker)
        threading.setprofile(hook)
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        self.ran |= self._keys()
        for dump in Path(self._dumps.name).glob("*.json"):
            self.ran |= {tuple(key) for key in json.loads(dump.read_text())}
        self._dumps.cleanup()
        self._dumps = None


# --------------------------------------------------------------------- #
# Entry points                                                           #
# --------------------------------------------------------------------- #

#: Scale of the registry experiments: each runs in seconds.
EXPERIMENT_SCALE = 0.1

#: What a schema-3 spec carried that schema 4 removed: loading it drops
#: them with one deprecation warning (the migration of saved specs).
_V3_CHARGING_STATION = {"dc_path_efficiency": 0.97, "ac_path_efficiency": 0.92}


def _cli(*argv: str, exit_code: int = 0) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code != exit_code:
        raise SystemExit(f"ect-hub {' '.join(argv)} exited {code}")


def _saved_specs(work: Path) -> dict[str, Path]:
    """Saved scenario and sweep files, of this schema and of schema 3."""
    from repro.spec import SweepSpec, get_preset

    base = get_preset("congested-city").with_overrides(
        {
            "run.days": 2,
            "fleet.n_hubs": 8,
            "fleet.charging_station": {"rate_kw": 120.0, "base_price_kwh": 0.45},
        }
    )
    sweep = SweepSpec(
        base=base,
        parameters={"scheduler.name": ("idle", "random")},
        name="reachability-sweep",
    )
    paths = {name: work / f"{name}.json" for name in ("spec", "sweep")}
    base.save(paths["spec"])
    sweep.save(paths["sweep"])
    old_spec, old_sweep = base.to_dict(), sweep.to_dict()
    old_spec["schema_version"] = old_sweep["schema_version"] = 3
    old_spec["fleet"]["charging_station"].update(_V3_CHARGING_STATION)
    old_sweep["base"]["fleet"]["charging_station"].update(_V3_CHARGING_STATION)
    for name, payload in (("old-spec", old_spec), ("old-sweep", old_sweep)):
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return paths


def run_entry_points(work: Path) -> None:
    """Drive every entry point once, writing outputs under ``work``."""
    sys.path.insert(0, str(ROOT / "e2ebench"))
    import workloads

    def out(name: str) -> str:
        return str(work / f"{name}.json")

    scale = str(EXPERIMENT_SCALE)
    _cli("list")
    _cli("presets")
    _cli("presets", "--check")
    _cli("presets", "--show", "congested-city")
    _cli("run-all", "--scale", scale, "--out", out("all"))
    _cli("run", "fleet", "--scale", scale, "--telemetry", "--out", out("run-fleet"))
    _cli("run", "fleet-grid", "--scale", scale, "--jobs", "2")
    for name, workload in workloads.WORKLOADS.items():
        workloads.deliver(workload, workload.prepare(0), work / f"e2e-{name}.json")
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")

    # The CLI commands CI smokes (.github/workflows/ci.yml).
    _cli("train-fleet", "--scale", "0.25", "--episodes", "1")
    _cli("fleet", "--n-hubs", "100", "--telemetry", "--trace-out", out("fleet-trace"))
    _cli("fleet", "--n-hubs", "40", "--days", "3", "--n-feeders", "4",
         "--feeder-capacity", "300", "--storage", "windowed", "--out", out("fleet"))
    _cli("train-fleet", "--scale", "0.25", "--episodes", "3", "--telemetry",
         "--trace-out", out("train-trace"))
    _cli("train-fleet", "--preset", "congested-city", "--set", "rl.train_episodes=2",
         "--set", "rl.eval_episodes=3",
         "--set", "blackout.outage_probability_per_hour=0.05", "--out", out("train"))
    _cli("price", "--scale", "0.05", "--telemetry", "--trace-out",
         out("price-trace"), "--out", out("price-serial"))
    _cli("price", "--scale", "0.05", "--jobs", "2", "--out", out("price-pool"))
    _cli("price", "--scale", "0.05", "--methods", "oracle",
         "--out", out("price-oracle"))
    _cli("price", "--preset", "congested-city", "--set", "run.days=2",
         "--set", "pricing.feeder_aware=true", "--set", "pricing.train_days=4",
         "--set", "pricing.epochs=2", "--methods", "none,ours", "--out",
         out("price-feeder"))
    sweep = ("sweep", "--preset", "congested-city", "--set", "run.days=7",
             "--param", "scheduler.name=rule-based,greedy-renewable,idle,random",
             "--param", "grid.allocation=proportional,priority")
    _cli(*sweep, "--telemetry", "--out", out("sweep-serial"))
    _cli(*sweep, "--jobs", "2", "--chunk-size", "4", "--telemetry",
         "--out", out("sweep-pool"))
    # A job that fails inside a pool worker (4 feeders for 2 hubs).
    _cli("sweep", "--preset", "congested-city", "--set", "run.days=1",
         "--param", "fleet.n_hubs=2,8", "--jobs", "2", exit_code=1)

    # Saved spec files, one of them from an older schema.
    specs = _saved_specs(work)
    _cli("fleet", "--spec", str(specs["spec"]), "--out", out("spec-run"))
    _cli("fleet", "--spec", str(specs["old-spec"]))
    _cli("sweep", "--spec", str(specs["sweep"]), "--jobs", "2")
    _cli("sweep", "--spec", str(specs["old-sweep"]))
    _cli("sweep", "--base-spec", str(specs["spec"]), "--param", "run.seed=0,1")


def report(
    ran: set[tuple[str, int, str]],
    allowed: dict[str, str],
    flagged_by_name: set[str],
    package: Path = PACKAGE,
) -> tuple[list[str], int]:
    """The check's printed lines and exit status.

    One ``path:line  name  [tag]`` line per never-run function, then one
    per stale ``allowed`` entry: one that is neither never-run nor in
    ``flagged_by_name`` (the names the name-based check flags). The status
    is 1 when a never-run function is neither raise-only nor allowed, or
    an entry is stale.
    """
    definitions = function_definitions(package)
    dead = [d for d in definitions if d.key not in ran]
    lines, refused = [], 0
    for definition in dead:
        if definition.raise_only:
            tag = "raise-only"
        elif definition.qualname in allowed:
            tag = "allowed"
        else:
            tag = "NOT ALLOWED"
            refused += 1
        where = definition.path.relative_to(package.parent.parent)
        lines.append(f"{where}:{definition.line}  {definition.qualname}  [{tag}]")
    stale = sorted(set(allowed) - {d.qualname for d in dead} - flagged_by_name)
    lines += [
        f"stale ALLOWED entry (it ran and has a caller, or is gone): {name}"
        for name in stale
    ]
    lines.append(
        f"{len(dead)} of {len(definitions)} functions never ran; "
        f"{refused} not allowed, {len(stale)} stale allow-list entries"
    )
    return lines, 1 if refused or stale else 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_callers import ALLOWED, uncalled_names

    with tempfile.TemporaryDirectory(prefix="reachability-run-") as work:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(
            sink
        ), contextlib.redirect_stderr(sink), CallCollector() as collector:
            run_entry_points(Path(work))
    lines, status = report(collector.ran, ALLOWED, set(uncalled_names()))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
