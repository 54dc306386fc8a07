"""Every public name in ``src/repro`` has a caller outside the tests.

A public function, method or class counts as called when its name
appears as a code token, or inside a string literal that is not a
docstring, in ``src/repro`` (outside its own definition and the
``__init__`` re-exports), ``examples/``, ``e2ebench/`` or ``setup.py``.
Module ``__all__`` lists and comments do not count. The match is by name
only, so a method that shares its name with a called one passes; the
guard catches the common drift, a helper whose last caller went away.

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

#: Public names with no caller in the scanned trees, each kept on purpose.
ALLOWED = {
    "repro.api.load_spec": (
        "the README's documented way for library users to load a saved spec"
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


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every name used in the scanned trees, with where it occurs."""
    paths = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "examples").rglob("*.py"))
    paths += sorted((ROOT / "e2ebench").rglob("*.py"))
    paths.append(ROOT / "setup.py")
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in paths:
        text = path.read_text()
        skipped = _skipped_lines(ast.parse(text))
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            line = token.start[0]
            if token.type == tokenize.NAME:
                words = [token.string]
            elif token.type == tokenize.STRING and line not in skipped:
                words = _WORD.findall(token.string)
            else:
                continue
            for word in words:
                refs.setdefault(word, []).append((path, line))
    return refs


def uncalled_names() -> list[str]:
    """Qualified public names with no reference outside their definition."""
    refs = _references()
    uncalled = []
    for qualname, path, start, end in _definitions():
        name = qualname.rsplit(".", 1)[1]
        outside = [
            (where, line)
            for where, line in refs.get(name, ())
            if not (where == path and start <= line <= end)
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
    """An allowed name that gained a caller or was deleted leaves the list."""
    stale = sorted(set(ALLOWED) - set(uncalled_names()))
    assert not stale, f"ALLOWED entries no longer needed: {stale}"


if __name__ == "__main__":
    print("\n".join(uncalled_names()))
