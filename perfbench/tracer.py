"""Wrapper-based tracing of the package's layer boundaries.

``Tracer.installed()`` replaces each function listed in ``WRAPPED`` with
a timing wrapper at the name its consumer module binds (for example
``conncluster.disjoint.candidate_radii``), and restores every original
in a ``finally``.  A listed name that a module does not bind is an
error, so a renamed or inlined function stops the traced run instead of
making its layer read zero.  Each call records a span: name, start, end,
parent span and request id.  Spans stay in memory until ``save`` writes
them.
The program's own code is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

_SOLVERS = {
    "disjoint.solve": (
        "solve_disjoint",
        "solve_two_center_disjoint",
        "solve_assignment_given_centers",
        "pad_to_k",
    ),
    "exact.solve": (
        "tree_dp_solve",
        "solve_line_center_nondisjoint",
        "solve_line_diameter",
        "solve_tree_assignment",
    ),
    "greedy.solve": ("solve_nondisjoint",),
    "oracle": (
        "exact_disjoint",
        "exact_assignment",
        "exact_nondisjoint_center",
        "exact_nondisjoint_diameter",
        "exact_nondisjoint_center_with_witness",
        "exact_nondisjoint_diameter_with_witness",
    ),
}
_REPORT = ("make_report", "validate_clustering", "clustering_cost")
_SEARCHERS = ("disjoint", "exact", "greedy")

#: (consumer module, bound name, span name)
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "cli.main"),
    ("cli", "load_instance_file", "model.load"),
    *(("cli", fn, span) for span, fns in _SOLVERS.items() for fn in fns),
    *((mod, fn, "model.report") for mod in ("cli", "disjoint", "exact") for fn in _REPORT),
    ("greedy", "make_report", "model.report"),
    *((mod, "candidate_radii", "model.candidate_radii") for mod in _SEARCHERS),
    *((mod, "binary_search_min_feasible", "model.search") for mod in _SEARCHERS),
    ("disjoint", "greedy_clustering", "greedy.cover"),
    ("greedy", "greedy_clustering", "greedy.cover"),
    ("disjoint", "greedy_with_given_centers", "greedy.given"),
    ("greedy", "compute_cluster", "greedy.grow"),
    *(
        ("disjoint", fn, "wsp.partition")
        for fn in (
            "partition_lp",
            "partition_general_metric",
            "partition_doubling",
            "partition_two_centers",
        )
    ),
    ("disjoint", "make_disjoint", "disjoint.transform"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []

    def _span_wrapper(self, fn, span: str, count=None):
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            self.start[idx] = t0
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _search_wrapper(self, fn, consumer: str):
        """Count probes and successful probes; probes of the exact
        solvers are spans of their own (``exact.probe``)."""

        def counting(probe):
            def counted(r):
                result = probe(r)
                self.counts["model.search.probes"] += 1
                self.counts["model.search.hits"] += result is not None
                return result

            if consumer == "exact":
                return self._span_wrapper(counted, "exact.probe")
            return counted

        @functools.wraps(fn)
        def wrapper(candidates, probe, *args, **kwargs):
            return fn(candidates, counting(probe), *args, **kwargs)

        return wrapper

    def _counter(self, span: str):
        counts = self.counts
        if span == "model.candidate_radii":
            return lambda a, kw, res: counts.update({"model.candidates": len(res)})
        if span == "wsp.partition":
            return lambda a, kw, res: counts.update({"wsp.layers": res.num_layers})
        if span == "model.load":
            return lambda a, kw, res: counts.update({"model.in_bytes": os.path.getsize(a[0])})
        if span == "cli.main":
            return lambda a, kw, res: counts.update({"cli.out_bytes": _out_bytes(a[0])})
        return None

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for mod_name, attr, span in WRAPPED:
                module = importlib.import_module(f"conncluster.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    raise LookupError(f"conncluster.{mod_name} does not bind {attr}; update tracer.WRAPPED")
                originals.append((module, attr, fn))
                if span == "model.search":
                    setattr(module, attr, self._search_wrapper(fn, mod_name))
                else:
                    setattr(module, attr, self._span_wrapper(fn, span, self._counter(span)))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "request": np.asarray(self.request, dtype=np.int64),
        }

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call counts per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        incl = np.bincount(a["name"], weights=dur, minlength=n)
        selfs = np.bincount(a["name"], weights=own, minlength=n)
        calls = np.bincount(a["name"], minlength=n)
        return (
            {s: float(incl[i]) for i, s in enumerate(self.names)},
            {s: float(selfs[i]) for i, s in enumerate(self.names)},
            {s: int(calls[i]) for i, s in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _out_bytes(argv) -> int:
    argv = list(argv)
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0
