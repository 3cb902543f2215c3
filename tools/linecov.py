"""Line collector: the statements of ``src/conncluster`` that no test runs.

A pytest plugin, run on demand (it is no tier-1 or CI step):

    PYTHONPATH=src:tools python -m pytest -q -p linecov

From before the first conftest is imported until the summary, it traces
the lines run in the package's files, in the main thread and in every
thread started meanwhile (``sys.settrace``, ``threading.settrace``).
After the summary it prints each statement never run as
``file:line: source``, then a count, leaving out the statements
``linecov_allow.txt`` lists as unreachable; the run exits nonzero when
it printed any.  A statement is a line that starts an ``ast`` statement
and has bytecode, so a function's docstring is none.  Code run in a
subprocess is not traced: the tests that run ``python -m conncluster``
leave ``__main__.py`` unreached.  Tracing about doubles the suite's
time.  No coverage package is needed.

Each entry of the allowlist is ``file::scope: source``: the file as
printed, the qualified name of the function or class around the
statement (``<module>`` at the top level) and the statement's first
line, stripped.  A ``## reason`` line heads the entries it explains.
An entry stands for one statement; a statement that repeats in one
scope is listed once per copy.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conncluster"
ALLOWLIST = Path(__file__).resolve().with_name("linecov_allow.txt")


def scopes(tree: ast.Module) -> dict[int, str]:
    """Each line that starts a statement -> the qualified name of the
    function or class around it, ``<module>`` at the top level."""
    out: dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                out.setdefault(child.lineno, scope)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(tree, "<module>")
    return out


def statements(path: Path) -> dict[int, str]:
    """The lines of ``path`` that start a statement and have bytecode,
    each with its scope (``scopes``)."""
    source = path.read_text(encoding="utf-8")
    starts = scopes(ast.parse(source))
    code_lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return {n: starts[n] for n in sorted(starts.keys() & code_lines)}


def read_allowlist(path: Path) -> Counter:
    """The entries of an allowlist, each counted once per line that
    names it.  An entry before the first ``## reason`` is an error."""
    entries: Counter = Counter()
    reason = None
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if line.startswith("## "):
            reason = line
        elif line and not line.startswith("#"):
            if reason is None:
                raise ValueError(f"{path.name}:{number}: entry without a reason")
            entries[line] += 1
    return entries


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

    def unreached(self, allowed: Counter) -> tuple[list[str], int]:
        """``file:line: source`` for each statement not run and not in
        ``allowed``, and the number of statements."""
        left = allowed.copy()
        out, total = [], 0
        for path in sorted(self.package.rglob("*.py")):
            lines = statements(path)
            total += len(lines)
            reached = self.reached.get(str(path), set())
            text = path.read_text(encoding="utf-8").splitlines()
            name = path.relative_to(ROOT)
            for n, scope in lines.items():
                if n in reached:
                    continue
                source = text[n - 1].strip()
                entry = f"{name}::{scope}: {source}"
                if left[entry] > 0:
                    left[entry] -= 1
                else:
                    out.append(f"{name}:{n}: {source}")
        return out, total


_COLLECTOR = pytest.StashKey[Collector]()
_RESULT = pytest.StashKey[tuple[list[str], int, int]]()  # missed, statements, entries


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    collector = early_config.stash[_COLLECTOR] = Collector(PACKAGE)
    collector.start()


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    collector = config.stash[_COLLECTOR]
    collector.stop()
    allowed = read_allowlist(ALLOWLIST)
    missed, total = collector.unreached(allowed)
    config.stash[_RESULT] = missed, total, sum(allowed.values())
    if missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missed, total, listed = config.stash[_RESULT]
    terminalreporter.section("statements no test reached")
    for line in missed:
        terminalreporter.write_line(line)
    terminalreporter.write_line(
        f"{len(missed)} of {total} statements in src/conncluster not reached"
        f" outside the {listed} entries of {ALLOWLIST.name}"
    )


def pytest_unconfigure(config):
    if _COLLECTOR in config.stash:
        config.stash[_COLLECTOR].stop()
