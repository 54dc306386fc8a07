"""Every public name in ``src/repro`` has a caller outside the tests.

A public function, method or class counts as called when its name
appears as a code token, or inside a string literal that is not a
docstring, in ``src/repro`` (outside its own definition and the
``__init__`` re-exports), ``examples/``, ``e2ebench/`` or ``setup.py``.
Module ``__all__`` lists and comments do not count. The match is by name
only, so a method that shares its name with a called one passes; the
guard catches the common drift, a helper whose last caller went away.
A module-level name defined in more than one module (``repro.api.build``
and ``repro.spec.compiler.build``) is matched by module instead: a
reference counts for the definition in module ``m`` only as a bare name
inside ``m`` itself, as ``m.name`` (also in a string), as ``(".../m",
"name")`` string pairs, or where a file imports the name from ``m`` or
from a package that re-exports it from ``m``.

A method that shares its name with live code passes this check however
dead it is; ``tests/reachability.py`` finds those by running the program's
entry points. ``ALLOWED`` is the one allow-list of both checks: an entry
names a public name this check flags, or a function that never runs.

Run this file directly to list the names that fail the check.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Functions and public names kept on purpose although no entry point
#: runs them (``tests/reachability.py``) or nothing in the scanned trees
#: names them (this check), each with its reason.
ALLOWED = {
    "repro.api.load_spec": (
        "the README's documented way for library users to load a saved spec"
    ),
    "repro.api.build": (
        "the facade's documented way to compile a spec into engines without "
        "running them (the api module docstring)"
    ),
    "repro.api.build_fleet_env": (
        "the facade's documented way to compile a spec's rl section into a "
        "FleetEnv without training it (the api module docstring, README)"
    ),
    "repro.fleet.builder.build_default_fleet": (
        "the default-fleet fixture of the step-kernel and telemetry benches "
        "and the fleet equivalence tests"
    ),
    "repro.causal.strata.heuristic_strata_labels": (
        "the paper's Section V-A NCF labeling pipeline; the experiments "
        "train on the generator's ground-truth strata instead"
    ),
    "repro.causal.strata.ground_truth_labels": (
        "the ground-truth side of the labeling comparison above"
    ),
    "repro.causal.strata.label_agreement": (
        "scores the heuristic labels against the ground truth"
    ),
    "repro.causal.ncf.pretrain_rating_model": (
        "the Section V-A rating pretraining that heuristic_strata_labels "
        "runs (ROADMAP item 2(b))"
    ),
    "repro.causal.dataset.PricingDataset.has_ground_truth": (
        "ground_truth_labels' guard for a dataset without generator strata"
    ),
    "repro.causal.ect_price.EctPriceModel.loss": (
        "the reference composite loss that tests/test_fused_steps.py holds "
        "the fused train step's head to"
    ),
    "repro.energy.grid.BlackoutModel.sample_outages": (
        "an e2ebench tracer target (synth.sample_outages); the compiler "
        "draws every hub's outages at once through sample_outage_planes, so "
        "it stays until the benchmark's targets are next maintained"
    ),
    "repro.fleet.costs.FleetCostBook.__getattr__": (
        "turns a per-slot column read on a windowed book into a FleetError "
        "that names the storage mode; no entry point makes that mistake"
    ),
    "repro.fleet.costs.FleetCostBook.nbytes": (
        "the windowed-book memory ceiling of benchmarks/test_bench_fleet_city.py"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions() -> list[tuple[str, Path, int, int]]:
    """``(qualified name, file, first line, last line)`` of each public def."""
    found = []

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name.startswith("_"):
                    continue
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((f"{prefix}.{child.name}", path, start, child.end_lineno))
                if isinstance(child, ast.ClassDef):
                    visit(child, path, f"{prefix}.{child.name}")

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        visit(ast.parse(path.read_text()), path, module)
    return found


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Lines of docstrings and ``__all__`` assignments."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = body[0] if body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _module_level_defs() -> dict[str, set[str]]:
    """Module-level public names, each with the modules defining it."""
    defined: dict[str, set[str]] = {}
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defined.setdefault(node.name, set()).add(path.stem)
    return defined


def _reexports() -> dict[tuple[str, str], set[str]]:
    """``(package, name) -> {submodule}`` for each ``from .sub import name``
    in a package ``__init__`` under ``src/repro``."""
    found: dict[tuple[str, str], set[str]] = {}
    for path in PACKAGE.rglob("__init__.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    key = (path.parent.name, alias.name)
                    found.setdefault(key, set()).add(node.module.split(".")[-1])
    return found


def _imports(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[int, str]]:
    """A file's imports: ``local name -> (module, imported name)`` (a
    module's own entry names itself, so ``m.name`` resolves through it),
    and ``line -> module`` for the lines of each ``from m import``."""
    bound: dict[str, tuple[str, str]] = {}
    lines: dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                bound[alias.asname or alias.name] = (module, alias.name)
            lines.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), module))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                last = alias.name.split(".")[-1]
                bound[alias.asname or last] = (last, last)
    return bound, lines


def _string_refs(token, previous, path) -> list[tuple[str, tuple]]:
    """The words of a string literal, each with the module it names.

    In a dotted path (``"spec.build"``) a word is qualified by the
    component before it; a lone identifier right after a module-path
    string and a comma (``("repro.spec.compiler", "build")``) by that
    module; any other word is bare.
    """
    body = token.string.strip("\"'")
    line = token.start[0]
    if (
        _WORD.fullmatch(body)
        and len(previous) == 2
        and previous[0].type == tokenize.STRING
        and previous[1].string == ","
    ):
        module = previous[0].string.strip("\"'").split(".")[-1]
        return [(body, (path, line, module))]
    found = []
    for dotted in re.findall(r"[A-Za-z_][A-Za-z0-9_.]*", token.string):
        parts = dotted.split(".")
        for index, word in enumerate(parts):
            if _WORD.fullmatch(word):
                module = parts[index - 1] if index else ""
                found.append((word, (path, line, module)))
    return found


def _references() -> dict[str, list[tuple[Path, int, str]]]:
    """Every name used in the scanned trees, with where it occurs.

    Each entry is ``(file, line, module)``: ``module`` is the module the
    reference is qualified by (``m.name``) or imported from, or ``""``
    for a bare name.
    """
    paths = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "examples").rglob("*.py"))
    paths += sorted((ROOT / "e2ebench").rglob("*.py"))
    paths.append(ROOT / "setup.py")
    refs: dict[str, list[tuple[Path, int, str]]] = {}
    for path in paths:
        text = path.read_text()
        tree = ast.parse(text)
        skipped = _skipped_lines(tree)
        bound, import_lines = _imports(tree)
        previous: list[tokenize.TokenInfo] = []
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                continue
            line = token.start[0]
            found = []
            if token.type == tokenize.NAME:
                if line in import_lines:
                    found = [(token.string, (path, line, import_lines[line]))]
                elif len(previous) == 2 and previous[1].string == ".":
                    qualifier = previous[0].string
                    module = bound.get(qualifier, (qualifier, qualifier))[1]
                    found = [(token.string, (path, line, module))]
                elif token.string in bound:
                    # ``from m import name [as alias]``: the name, from m.
                    module, name = bound[token.string]
                    found = [(name, (path, line, module))]
                else:
                    found = [(token.string, (path, line, ""))]
            elif token.type == tokenize.STRING and line not in skipped:
                found = _string_refs(token, previous, path)
            for word, entry in found:
                refs.setdefault(word, []).append(entry)
            previous = (previous + [token])[-2:]
    return refs


def uncalled_names() -> list[str]:
    """Qualified public names with no reference outside their definition."""
    refs = _references()
    shadowed = {
        name for name, modules in _module_level_defs().items() if len(modules) > 1
    }
    reexports = _reexports()
    uncalled = []
    for qualname, path, start, end in _definitions():
        parent, name = qualname.rsplit(".", 1)
        module_level = parent.endswith(f".{path.stem}")
        outside = [
            (where, line, module)
            for where, line, module in refs.get(name, ())
            if not (where == path and start <= line <= end)
        ]
        if name in shadowed and module_level:
            outside = [
                ref
                for ref in outside
                if (ref[0] == path and ref[2] == "")
                or ref[2] == path.stem
                or path.stem in reexports.get((ref[2], name), ())
            ]
        if not outside:
            uncalled.append(qualname)
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = [name for name in uncalled_names() if name not in ALLOWED]
    assert not uncalled, (
        "public names with no caller in src/, examples/, e2ebench/ or "
        "setup.py (delete them, move a test oracle under tests/, or add "
        f"an ALLOWED entry with its reason): {uncalled}"
    )


def test_allow_list_is_current():
    """A deleted name leaves the list. An entry this check does not flag
    must be a function the runtime check can flag; ``tests/reachability.py``
    reports one that ran and so is needed by neither check."""
    from reachability import function_definitions

    defined = {definition.qualname for definition in function_definitions()}
    stale = sorted(set(ALLOWED) - set(uncalled_names()) - defined)
    assert not stale, f"ALLOWED entries no longer needed: {stale}"


if __name__ == "__main__":
    print("\n".join(uncalled_names()))
