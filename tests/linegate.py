"""A pytest plugin that fails the run when a line of `src/stagepipe` never runs.

Load it on the command line, so that it starts recording before any
conftest imports the package:

    PYTHONPATH=src python -m pytest -q -p tests.linegate

A line is an entry of the line table of one of the package's compiled
modules. When the session ends, every line that did not run fails the run
and is printed as ``path:line: text``.

On Python 3.12 and later the lines are recorded with `sys.monitoring` LINE
events, each disabled after its first hit; before 3.12 with `sys.settrace`
and `threading.settrace`, which slow the run down. CPython drops a trace
function whose call fails, as a call at the recursion limit does, so
before 3.12 the gate switches it back on after each test that lost it and
names that test: a line only it runs may read as unrun.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stagepipe"


class LineCollector:
    """Records which lines of the `.py` files under `package` run."""

    def __init__(self, package: Path) -> None:
        self.package = package
        self.hit: set[tuple[str, int]] = set()  # (real path, line number)
        self._prefix = os.path.realpath(package) + os.sep
        self._paths: dict[str, str | None] = {}  # co_filename -> real path, None if not ours
        self.restarted_after: list[str] = []  # tests that switched the trace function off

    def _path(self, code: CodeType) -> str | None:
        name = code.co_filename
        if name not in self._paths:
            path = os.path.realpath(name)
            self._paths[name] = path if path.startswith(self._prefix) else None
        return self._paths[name]

    def start(self) -> None:
        if hasattr(sys, "monitoring"):
            mon = sys.monitoring
            mon.use_tool_id(mon.COVERAGE_ID, "linegate")
            mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, self._on_line)
            mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
        else:
            threading.settrace(self._on_call)
            sys.settrace(self._on_call)

    def stop(self) -> None:
        if hasattr(sys, "monitoring"):
            sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
            sys.monitoring.free_tool_id(sys.monitoring.COVERAGE_ID)
        else:
            sys.settrace(None)
            threading.settrace(None)

    def restart(self, test: str) -> None:
        """Before 3.12: switch the trace function back on if `test` lost it."""
        if not hasattr(sys, "monitoring") and sys.gettrace() != self._on_call:
            self.restarted_after.append(test)
            sys.settrace(self._on_call)

    def _on_line(self, code: CodeType, line: int):
        path = self._path(code)
        if path is not None:
            self.hit.add((path, line))
        return sys.monitoring.DISABLE

    def _on_call(self, frame, event, arg):
        return self._on_trace_line if self._path(frame.f_code) else None

    def _on_trace_line(self, frame, event, arg):
        if event == "line":
            self.hit.add((self._paths[frame.f_code.co_filename], frame.f_lineno))
        return self._on_trace_line

    def report(self) -> list[str]:
        """One ``path:line: text`` for each line under the package that did
        not run, in path and line order."""
        unrun = []
        for path in sorted(self.package.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            real = os.path.realpath(path)
            rel = path.relative_to(ROOT).as_posix()
            for number in sorted(_line_numbers(compile(source, str(path), "exec"))):
                # 3.10 gives an empty module's code a line 1 past its end
                if number <= len(text) and (real, number) not in self.hit:
                    unrun.append(f"{rel}:{number}: {text[number - 1].strip()}")
        return unrun


def _line_numbers(code: CodeType) -> set[int]:
    """The line-table lines of `code` and of every code object inside it."""
    numbers = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            numbers |= _line_numbers(const)
    return numbers


_collector = LineCollector(PACKAGE)
_problems = pytest.StashKey[list]()


def pytest_load_initial_conftests(early_config, parser, args):
    _collector.start()


def pytest_runtest_logfinish(nodeid, location):
    _collector.restart(nodeid)


def pytest_sessionfinish(session, exitstatus):
    _collector.stop()
    problems = session.config.stash[_problems] = _collector.report()
    if problems:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    problems = config.stash.get(_problems, [])
    terminalreporter.section("linegate: lines of src/stagepipe")
    for line in problems:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(problems)} unrun line(s)")
    for test in _collector.restarted_after:
        terminalreporter.write_line(f"line recording restarted after {test}, which switched it off")
