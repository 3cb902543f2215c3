"""Line collector: the statements of ``src/conncluster`` that no test runs.

A pytest plugin, run as its own CI job (not a tier-1 step):

    PYTHONPATH=src:tools python -m pytest -q -p linecov

From before the first conftest is imported until the summary, it traces
the lines run in the package's files, in the main thread and in every
thread started meanwhile (``sys.settrace``, ``threading.settrace``).
After the summary it prints each statement never run as
``file:line: source``, then a count, leaving out the statements
``linecov_allow.txt`` lists as unreachable, and then each entry of that
list that matched no unreached statement; the run exits nonzero when it
printed any of either.  A statement is a line that starts an ``ast``
statement and has bytecode, so a function's docstring is none.  The
statements are read from each file's source as it was when tracing
started; a file whose source changed during the run is named and the
run refused, since its traced line numbers may belong to either
version.  CPython drops a trace function whose call fails, as one
called at the recursion limit does.  That happens when a collection of
the cyclic garbage collector starts deep in C code, as in ``json``'s
decoder on a document nested past the limit, and calls a Python ``gc``
callback (hypothesis registers one) one frame short of the limit: the
trace call for the callback's frame fails.  So the collector registers
a ``gc`` callback of its own that traces again when tracing stopped in
its thread, which a later collection, nearer the bottom of the stack,
runs; after each test it restarts tracing if it is still stopped, and
the summary names the tests it stopped in: the lines run between the
stop and the restart went unrecorded, so a statement reported unreached
after such a run may have run.  Code run in a subprocess is
not traced: the tests that run ``python -m conncluster`` leave
``__main__.py`` unreached.  Tracing about doubles the suite's time.  No
coverage package is needed.

Each entry of the allowlist is ``file::scope: source``: the file as
printed, the qualified name of the function or class around the
statement (``<module>`` at the top level) and the statement's first
line, stripped.  A ``## reason`` line heads the entries it explains.
An entry stands for one statement; a statement that repeats in one
scope is listed once per copy.
"""

from __future__ import annotations

import ast
import gc
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


def statements(source: str, path: Path) -> dict[int, str]:
    """The lines of ``source``, read from ``path``, that start a statement
    and have bytecode, each with its scope (``scopes``)."""
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
        self.sources: dict[Path, str] = {}  # file -> its source when tracing started
        self.stopped: list[str] = []  # the tests tracing stopped in
        self.regained = False  # whether _regain traced again since the last restart

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
        self.sources = {
            path: path.read_text(encoding="utf-8")
            for path in sorted(self.package.rglob("*.py"))
        }
        sys.settrace(self._trace)
        threading.settrace(self._trace)
        gc.callbacks.append(self._regain)

    def stop(self) -> None:
        if self._regain in gc.callbacks:
            gc.callbacks.remove(self._regain)
        sys.settrace(None)
        threading.settrace(None)

    def _regain(self, phase: str, info: dict) -> None:
        """A ``gc`` callback: trace again if tracing stopped in this thread."""
        if sys.gettrace() is None:
            self.regained = True
            sys.settrace(self._trace)

    def restart(self, test: str) -> None:
        """Trace again in this thread if tracing stopped during ``test``."""
        if self.regained or sys.gettrace() != self._trace:
            self.stopped.append(test)
            self.regained = False
            sys.settrace(self._trace)

    def changed(self) -> list[Path]:
        """The files whose source is not what it was when tracing started."""
        return [
            path
            for path, source in self.sources.items()
            if not path.exists() or path.read_text(encoding="utf-8") != source
        ]

    def unreached(self, allowed: Counter) -> tuple[list[str], list[str], int]:
        """``file:line: source`` for each statement not run and not in
        ``allowed``, the entries of ``allowed`` that no such statement
        used, and the number of statements."""
        left = allowed.copy()
        out, total = [], 0
        for path, text in self.sources.items():
            lines = statements(text, path)
            total += len(lines)
            reached = self.reached.get(str(path), set())
            text_lines = text.splitlines()
            name = path.relative_to(ROOT)
            for n, scope in lines.items():
                if n in reached:
                    continue
                source = text_lines[n - 1].strip()
                entry = f"{name}::{scope}: {source}"
                if left[entry] > 0:
                    left[entry] -= 1
                else:
                    out.append(f"{name}:{n}: {source}")
        return out, sorted(left.elements()), total


def report(collector: Collector) -> tuple[list[str], bool]:
    """The lines of the summary, and whether the run passes."""
    changed = collector.changed()
    if changed:
        return [
            f"{path.relative_to(ROOT)}: source changed during the run; run again"
            for path in changed
        ], False
    allowed = read_allowlist(ALLOWLIST)
    missed, unused, total = collector.unreached(allowed)
    lines = missed + [
        f"{ALLOWLIST.name}: no unreached statement for {entry}" for entry in unused
    ]
    lines += [f"tracing stopped during {test} and was restarted" for test in collector.stopped]
    lines.append(
        f"{len(missed)} of {total} statements in src/conncluster not reached"
        f" outside the {sum(allowed.values())} entries of {ALLOWLIST.name},"
        f" {len(unused)} of them unused"
    )
    return lines, not missed and not unused


_COLLECTOR = pytest.StashKey[Collector]()
_RESULT = pytest.StashKey[list[str]]()  # the lines of the summary


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    collector = early_config.stash[_COLLECTOR] = Collector(PACKAGE)
    collector.start()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    yield
    item.config.stash[_COLLECTOR].restart(item.nodeid)


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    collector = config.stash[_COLLECTOR]
    collector.stop()
    lines, passed = report(collector)
    config.stash[_RESULT] = lines
    if not passed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("statements no test reached")
    for line in config.stash[_RESULT]:
        terminalreporter.write_line(line)


def pytest_unconfigure(config):
    if _COLLECTOR in config.stash:
        config.stash[_COLLECTOR].stop()
