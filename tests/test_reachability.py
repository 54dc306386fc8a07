"""The runtime reachability check, run on a small planted package.

``tests/reachability.py`` itself drives every entry point of the program
and is too slow for tier-1; these tests hold its collector, its AST walker
and its verdict to a package whose dead and live functions are known.
"""

from __future__ import annotations

import importlib
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from reachability import CallCollector, function_definitions, report

PLANTED = '''
def called():
    return 1


def uncalled():
    return 2


def in_worker(value):
    return value + 1


def outer():
    def inner():
        return 3

    return inner()


class Hook:
    def abstract(self):
        """Subclasses implement this."""
        raise NotImplementedError

    @property
    def decorated(self):
        return 4
'''


@pytest.fixture()
def planted(tmp_path, monkeypatch):
    """A package ``planted_pkg`` with one module of known functions."""
    package = tmp_path / "src" / "planted_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    monkeypatch.syspath_prepend(str(package.parent))
    yield package, importlib.import_module("planted_pkg.mod")
    for name in ("planted_pkg.mod", "planted_pkg"):
        sys.modules.pop(name, None)


def run_all_but_uncalled(module) -> None:
    module.called()
    module.outer()
    assert module.Hook().decorated == 4
    # Only a forked pool worker runs in_worker.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        assert pool.submit(module.in_worker, 1).result() == 2


def test_walker_finds_every_def_with_its_first_line(planted):
    package, _ = planted
    found = {d.qualname: (d.line, d.raise_only) for d in function_definitions(package)}
    assert found == {
        "planted_pkg.mod.called": (2, False),
        "planted_pkg.mod.uncalled": (6, False),
        "planted_pkg.mod.in_worker": (10, False),
        "planted_pkg.mod.outer": (14, False),
        "planted_pkg.mod.outer.inner": (15, False),
        "planted_pkg.mod.Hook.abstract": (22, True),
        "planted_pkg.mod.Hook.decorated": (26, False),
    }


def test_report_is_exactly_the_uncalled_function(planted):
    package, module = planted
    with CallCollector(package) as collector:
        run_all_but_uncalled(module)
    lines, status = report(collector.ran, {}, set(), package)
    assert lines == [
        "src/planted_pkg/mod.py:6  planted_pkg.mod.uncalled  [NOT ALLOWED]",
        "src/planted_pkg/mod.py:22  planted_pkg.mod.Hook.abstract  [raise-only]",
        "2 of 7 functions never ran; 1 not allowed, 0 stale allow-list entries",
    ]
    assert status == 1


def test_a_function_run_only_in_a_worker_counts_as_run(planted):
    package, module = planted
    with CallCollector(package) as collector:
        run_all_but_uncalled(module)
    ran = {name for _, _, name in collector.ran}
    assert "in_worker" in ran and "uncalled" not in ran


def test_an_allowed_function_passes_and_a_stale_entry_fails(planted):
    package, module = planted
    with CallCollector(package) as collector:
        run_all_but_uncalled(module)
    reason = {"planted_pkg.mod.uncalled": "kept on purpose"}
    lines, status = report(collector.ran, reason, set(), package)
    assert status == 0 and "[allowed]" in lines[0]
    stale = {**reason, "planted_pkg.mod.called": "it runs"}
    lines, status = report(collector.ran, stale, set(), package)
    assert status == 1
    assert "stale ALLOWED entry" in lines[-2] and lines[-2].endswith("mod.called")
    # An entry the name-based check still flags is not stale.
    lines, status = report(collector.ran, stale, {"planted_pkg.mod.called"}, package)
    assert status == 0


def test_nothing_run_reports_every_function(planted):
    package, _ = planted
    with CallCollector(package) as collector:
        pass
    lines, status = report(collector.ran, {}, set(), package)
    assert status == 1 and lines[-1].startswith("7 of 7 functions never ran; 6 not")
