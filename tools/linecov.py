"""Line collector: the statements of ``src/conncluster`` that no test runs.

A pytest plugin, run on demand (it is no tier-1 or CI step):

    PYTHONPATH=src:tools python -m pytest -q -p linecov

From before the first conftest is imported until the summary, it traces
the lines run in the package's files, in the main thread and in every
thread started meanwhile (``sys.settrace``, ``threading.settrace``).
After the summary it prints each statement never run as
``file:line: source``, then a count.  A statement is a line that starts
an ``ast`` statement and has bytecode, so a function's docstring is
none.  Code run in a subprocess is not traced: the tests that run
``python -m conncluster`` leave ``__main__.py`` unreached.  Tracing about
doubles the suite's time.  No coverage package is needed.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conncluster"


def statements(path: Path) -> list[int]:
    """The lines of ``path`` that start a statement and have bytecode."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    code_lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted(starts & code_lines)


class Collector:
    """The lines run in the files under one directory while it traces."""

    def __init__(self, package: Path) -> None:
        self.package = package
        self.prefix = str(package) + os.sep
        self.reached: dict[str, set[int]] = {}  # file name -> lines run
        self.tracers: dict[str, object] = {}  # file name -> line tracer, None outside

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.tracers:
            inside = filename is not None and filename.startswith(self.prefix)  # None seen at exit
            self.tracers[filename] = self._line_tracer(filename) if inside else None
        return self.tracers[filename]

    def _line_tracer(self, filename: str):
        lines = self.reached.setdefault(filename, set())

        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace

    def start(self) -> None:
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def unreached(self) -> tuple[list[str], int]:
        """``file:line: source`` for each statement not run, and the
        number of statements."""
        out, total = [], 0
        for path in sorted(self.package.rglob("*.py")):
            lines = statements(path)
            total += len(lines)
            reached = self.reached.get(str(path), set())
            text = path.read_text(encoding="utf-8").splitlines()
            name = path.relative_to(ROOT)
            out += [f"{name}:{n}: {text[n - 1].strip()}" for n in lines if n not in reached]
        return out, total


_COLLECTOR = pytest.StashKey[Collector]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    collector = early_config.stash[_COLLECTOR] = Collector(PACKAGE)
    collector.start()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    collector = config.stash[_COLLECTOR]
    collector.stop()
    missed, total = collector.unreached()
    terminalreporter.section("statements no test reached")
    for line in missed:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(missed)} of {total} statements in src/conncluster not reached")


def pytest_unconfigure(config):
    if _COLLECTOR in config.stash:
        config.stash[_COLLECTOR].stop()
