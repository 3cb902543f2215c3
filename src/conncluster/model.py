"""Instance model: metrics, clusterings, feasibility checks, radius search.

An instance couples a finite (pseudo-)metric on points 0..n-1 with an
undirected *connectivity graph* on the same points and a cluster budget k.
A clustering is feasible when every cluster induces a connected subgraph
of the connectivity graph; clusters may be required to be pairwise
disjoint or allowed to overlap.

All types are immutable after construction and all operations are pure,
so instances can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

CENTER = "center"
DIAMETER = "diameter"
OBJECTIVES = (CENTER, DIAMETER)

DISJOINT = "disjoint"
NON_DISJOINT = "non_disjoint"
MODES = (DISJOINT, NON_DISJOINT)

#: Relative tolerance for distance comparisons.  Two distances a, b are
#: considered equal when |a-b| <= REL_TOL * max(1, |a|, |b|).
REL_TOL = 1e-9


class InstanceFormatError(ValueError):
    """Raised when an instance or clustering document is malformed."""


class AlgorithmPreconditionError(ValueError):
    """Raised when an algorithm is invoked outside of its preconditions."""


class InfeasibleError(RuntimeError):
    """Raised when no feasible solution exists for the requested task."""


def dist_eq(a: float, b: float) -> bool:
    """Distance equality under the global relative tolerance."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def dist_leq(a: float, b: float) -> bool:
    """Tolerant a <= b for distance values."""
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def dist_leq_arr(a: np.ndarray, b: float) -> np.ndarray:
    """Vectorized tolerant a <= b."""
    return a <= b + REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), abs(b)))


# ---------------------------------------------------------------------------
# metric specifications


@dataclass(frozen=True)
class ExplicitMetric:
    matrix: np.ndarray

    def realize(self, n: int) -> np.ndarray:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (n, n):
            raise InstanceFormatError(f"metric matrix must be {n}x{n}, got {m.shape}")
        return m  # make_instance checks and symmetrizes the entries


@dataclass(frozen=True)
class LpMetric:
    coords: np.ndarray
    p: float  # 1, 2, ..., or math.inf

    def realize(self, n: int) -> np.ndarray:
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2 or c.shape[0] != n:
            raise InstanceFormatError(f"coordinate list must have {n} rows")
        if not (self.p == math.inf or (self.p >= 1 and float(self.p).is_integer())):
            raise InstanceFormatError("norm exponent p must be a positive integer or inf")
        # overflowing or infinite coordinates give non-finite distances,
        # which make_instance rejects
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(c[:, None, :] - c[None, :, :])
            if self.p == math.inf:
                return diff.max(axis=2)
            if self.p == 1:
                return diff.sum(axis=2)
            if self.p == 2:
                return np.sqrt((diff**2).sum(axis=2))
            return (diff**self.p).sum(axis=2) ** (1.0 / self.p)


@dataclass(frozen=True)
class GraphMetric:
    """Weighted edge list; distances are all-pairs shortest paths."""

    edges: tuple[tuple[int, int, float], ...]

    def realize(self, n: int) -> np.ndarray:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra

        rows, cols, vals = [], [], []
        for u, v, w in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InstanceFormatError(f"bad metric-graph edge ({u}, {v})")
            if w < 0:
                raise InstanceFormatError("metric-graph edge weights must be nonnegative")
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
        g = coo_matrix((vals, (rows, cols)), shape=(n, n))
        d = dijkstra(g, directed=False)
        if np.isinf(d).any():
            raise InstanceFormatError("metric graph is disconnected")
        return d


MetricSpec = ExplicitMetric | LpMetric | GraphMetric


# ---------------------------------------------------------------------------
# instance


@dataclass(frozen=True)
class Instance:
    """A connected-clustering instance on points 0..n-1.

    ``dist`` is the fully realized distance matrix (graph metrics are
    expanded at load time); ``adj`` are the connectivity adjacency lists
    with sorted neighbor order.  ``coords``/``p`` are retained for Lp
    metrics so that grid-based routines can use the geometry.
    """

    n: int
    k: int
    dist: np.ndarray
    adj: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    metric_kind: str
    labels: Optional[tuple[str, ...]] = None
    coords: Optional[np.ndarray] = None
    p: Optional[float] = None

    def d(self, x: int, y: int) -> float:
        return float(self.dist[x, y])

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp, stack = [], [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1


def make_instance(
    dist: np.ndarray | Sequence[Sequence[float]],
    edges: Iterable[tuple[int, int]],
    k: int,
    *,
    labels: Optional[Sequence[str]] = None,
    coords: Optional[np.ndarray] = None,
    p: Optional[float] = None,
    metric_kind: str = "explicit",
) -> Instance:
    """Build a validated Instance from an in-memory matrix and edge list."""
    m = np.asarray(dist, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InstanceFormatError("distance matrix must be square")
    n = m.shape[0]
    if n == 0:
        raise InstanceFormatError("instance needs at least one point")
    if not (1 <= k <= n):
        raise InstanceFormatError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    # an entry above half the float range overflows to inf here: rejected
    with np.errstate(over="ignore"):
        sym = (m + m.T) / 2.0
        if not np.isfinite(sym).all():
            raise InstanceFormatError("distance matrix has non-finite entries")
        if not np.allclose(m, m.T, rtol=REL_TOL, atol=REL_TOL):
            raise InstanceFormatError("distance matrix is not symmetric")
    if np.any(np.diag(m) != 0.0):
        raise InstanceFormatError("distance matrix has nonzero diagonal")
    if np.any(m < 0.0):
        raise InstanceFormatError("distance matrix has negative entries")

    adj: list[set[int]] = [set() for _ in range(n)]
    edge_list: list[tuple[int, int]] = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"connectivity edge ({u}, {v}) out of range")
        if u == v:
            raise InstanceFormatError(f"connectivity self-loop at {u}")
        a, b = min(u, v), max(u, v)
        if b in adj[a]:
            raise InstanceFormatError(f"duplicate connectivity edge ({a}, {b})")
        adj[a].add(b)
        adj[b].add(a)
        edge_list.append((a, b))
    if labels is not None and len(labels) != n:
        raise InstanceFormatError("labels length must equal n")

    m = sym
    m.setflags(write=False)
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        coords.setflags(write=False)
    return Instance(
        n=n,
        k=int(k),
        dist=m,
        adj=tuple(tuple(sorted(s)) for s in adj),
        edges=tuple(sorted(edge_list)),
        metric_kind=metric_kind,
        labels=tuple(labels) if labels is not None else None,
        coords=coords,
        p=p,
    )


def check_triangle_inequality(inst: Instance) -> list[tuple[int, int, int]]:
    """Return triples (x, y, z) with d(x,z) > d(x,y) + d(y,z).

    The triangle inequality is checked but not required: the line and
    tree algorithms work for arbitrary symmetric distances, while the
    greedy/partition pipeline assumes a metric.
    """
    d = inst.dist
    bad = []
    for y in range(inst.n):
        via = d[:, y][:, None] + d[y, :][None, :]
        viol = d > via + REL_TOL * np.maximum(1.0, np.maximum(np.abs(d), np.abs(via)))
        for x, z in zip(*np.nonzero(viol)):
            bad.append((int(x), int(y), int(z)))
    return bad


# ---------------------------------------------------------------------------
# instance documents (JSON)


def _is_int(x) -> bool:
    """A JSON integer, not a bool or a float."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require_ids(values: Iterable) -> None:
    """Raise a TypeError unless every point id read from a document is an integer."""
    for x in values:
        if type(x) is not int and not _is_int(x):  # JSON ids take the fast test
            raise TypeError(f"point id {x!r} is not an integer")


def _numbers(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{what} must be numbers") from exc


def _metric_from_doc(doc: dict) -> MetricSpec:
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceFormatError('"metric" must be an object with a "type"')
    kind = doc["type"]
    if kind == "explicit":
        if "matrix" not in doc:
            raise InstanceFormatError('explicit metric needs a "matrix"')
        return ExplicitMetric(_numbers(doc["matrix"], "explicit metric matrix entries"))
    if kind == "lp":
        if "coords" not in doc or "p" not in doc:
            raise InstanceFormatError('lp metric needs "coords" and "p"')
        p = doc["p"]
        try:
            p = math.inf if p in ("inf", "infinity") else float(p)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError('lp metric "p" must be a number or "inf"') from exc
        return LpMetric(_numbers(doc["coords"], "lp metric coords"), p)
    if kind == "graph":
        if "edges" not in doc:
            raise InstanceFormatError('graph metric needs weighted "edges"')
        try:
            edges = tuple((u, v, float(w)) for u, v, w in doc["edges"])
            _require_ids([x for u, v, _ in edges for x in (u, v)])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError("graph metric edges must be [u, v, weight] triples") from exc
        return GraphMetric(edges)
    raise InstanceFormatError(f"unknown metric type {kind!r}")


def instance_from_doc(doc: dict) -> Instance:
    """Validate and realize an instance document (see README for the schema)."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("n", "k", "metric", "edges"):
        if key not in doc:
            raise InstanceFormatError(f'instance document missing "{key}"')
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise InstanceFormatError('"n" must be a positive integer')
    if not _is_int(doc["k"]):
        raise InstanceFormatError('"k" must be an integer')
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise InstanceFormatError('"labels" must be a list of strings')
    spec = _metric_from_doc(doc["metric"])
    matrix = spec.realize(n)
    try:
        edges = [(u, v) for u, v in doc["edges"]]
        _require_ids(itertools.chain.from_iterable(edges))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError("connectivity edges must be [u, v] pairs") from exc
    coords = spec.coords if isinstance(spec, LpMetric) else None
    p = spec.p if isinstance(spec, LpMetric) else None
    kind = {ExplicitMetric: "explicit", LpMetric: "lp", GraphMetric: "graph"}[type(spec)]
    return make_instance(
        matrix,
        edges,
        doc["k"],
        labels=labels,
        coords=coords,
        p=p,
        metric_kind=kind,
    )


def load_instance(source: str | bytes | dict) -> Instance:
    """Load an instance from a JSON string/bytes or an already-parsed dict."""
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    return instance_from_doc(doc)


def load_instance_file(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(fh.read())


def instance_to_doc(inst: Instance) -> dict:
    doc = {
        "n": inst.n,
        "k": inst.k,
        "metric": {"type": "explicit", "matrix": inst.dist.tolist()},
        "edges": [list(e) for e in inst.edges],
    }
    if inst.coords is not None:
        doc["metric"] = {
            "type": "lp",
            "coords": inst.coords.tolist(),
            "p": "inf" if inst.p == math.inf else int(inst.p),
        }
    if inst.labels is not None:
        doc["labels"] = list(inst.labels)
    return doc


# ---------------------------------------------------------------------------
# clusterings


@dataclass(frozen=True)
class Clustering:
    """A sequence of nonempty clusters, optionally with one center each."""

    clusters: tuple[frozenset[int], ...]
    centers: Optional[tuple[int, ...]]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.clusters:
            raise ValueError("clustering needs at least one cluster")
        for c in self.clusters:
            if not c:
                raise ValueError("clusters must be nonempty")
        if self.centers is not None:
            if len(self.centers) != len(self.clusters):
                raise ValueError("centers and clusters must have equal length")
            for c, cl in zip(self.centers, self.clusters):
                if c not in cl:
                    raise ValueError(f"center {c} not inside its cluster")

    @property
    def clusters_used(self) -> int:
        return len(self.clusters)


def clustering(
    clusters: Iterable[Iterable[int]],
    centers: Optional[Sequence[int]] = None,
    mode: str = DISJOINT,
) -> Clustering:
    return Clustering(
        clusters=tuple(frozenset(int(x) for x in c) for c in clusters),
        centers=tuple(int(c) for c in centers) if centers is not None else None,
        mode=mode,
    )


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.feasible


def _is_connected_subset(inst: Instance, points: frozenset[int]) -> bool:
    it = iter(points)
    start = next(it)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in inst.adj[v]:
            if u in points and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(points)


def validate_clustering(inst: Instance, c: Clustering) -> Verdict:
    """Check coverage, connectivity, disjointness (if required) and budget.

    Violations are returned as data; out-of-range point ids are a caller
    error and raise instead.
    """
    for cl in c.clusters:
        for x in cl:
            if not (0 <= x < inst.n):
                raise ValueError(f"point id {x} out of range")
    violations: list[str] = []
    covered: set[int] = set()
    for cl in c.clusters:
        covered |= cl
    if covered != set(range(inst.n)):
        missing = sorted(set(range(inst.n)) - covered)
        violations.append(f"points not covered: {missing}")
    for i, cl in enumerate(c.clusters):
        if not _is_connected_subset(inst, cl):
            violations.append(f"cluster {i} ({sorted(cl)}) is not connected")
    if c.mode == DISJOINT:
        total = sum(len(cl) for cl in c.clusters)
        if total != len(covered):
            for i in range(len(c.clusters)):
                for j in range(i + 1, len(c.clusters)):
                    inter = c.clusters[i] & c.clusters[j]
                    if inter:
                        violations.append(
                            f"clusters {i} and {j} overlap on {sorted(inter)}"
                        )
    if c.clusters_used > inst.k:
        violations.append(f"{c.clusters_used} clusters exceed budget k={inst.k}")
    return Verdict(feasible=not violations, violations=tuple(violations))


def clustering_cost(inst: Instance, c: Clustering, objective: str) -> float:
    """Maximum radius (center objective) or maximum diameter of the clusters."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if objective == CENTER:
        if c.centers is None:
            raise ValueError("center objective needs centers")
        worst = 0.0
        for cl, ctr in zip(c.clusters, c.centers):
            idx = np.fromiter(cl, dtype=int)
            worst = max(worst, float(inst.dist[idx, ctr].max()))
        return worst
    worst = 0.0
    for cl in c.clusters:
        idx = np.fromiter(cl, dtype=int)
        if len(idx) > 1:
            worst = max(worst, float(inst.dist[np.ix_(idx, idx)].max()))
    return worst


def clustering_to_doc(
    inst: Instance, c: Clustering, objective: Optional[str] = None
) -> dict:
    doc = {
        "mode": c.mode,
        "clusters": [sorted(cl) for cl in c.clusters],
        "centers": list(c.centers) if c.centers is not None else None,
    }
    if objective is not None:
        doc["objective"] = objective
        doc["value"] = clustering_cost(inst, c, objective)
    return doc


def clustering_from_doc(doc: dict) -> Clustering:
    if not isinstance(doc, dict) or "clusters" not in doc or "mode" not in doc:
        raise InstanceFormatError('clustering document needs "mode" and "clusters"')
    if doc["mode"] not in MODES:
        raise InstanceFormatError(f'clustering mode must be one of {MODES}')
    try:
        _require_ids(itertools.chain(*doc["clusters"], doc.get("centers") or ()))
        return clustering(doc["clusters"], doc.get("centers"), doc["mode"])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed clustering document: {exc}") from exc


@dataclass(frozen=True)
class SolveReport:
    """Outcome summary: achieved objective, cluster count and a-priori bound."""

    objective: float
    clusters_used: int
    algorithm: str
    bound: Optional[float] = None
    feasible: bool = True

    def to_doc(self) -> dict:
        return {
            "objective": self.objective,
            "clusters_used": self.clusters_used,
            "algorithm": self.algorithm,
            "bound": self.bound,
            "feasible": self.feasible,
        }


def make_report(
    inst: Instance,
    c: Clustering,
    objective: str,
    algorithm: str,
    bound: Optional[float] = None,
) -> SolveReport:
    """Build a report whose objective is the recomputed cost of ``c``."""
    return SolveReport(
        objective=clustering_cost(inst, c, objective),
        clusters_used=c.clusters_used,
        algorithm=algorithm,
        bound=bound,
        feasible=validate_clustering(inst, c).feasible,
    )


# ---------------------------------------------------------------------------
# candidate radii and the radius search driver


def dedup_radii(values: np.ndarray, *, leq: bool = False) -> list[float]:
    """Ascending, tolerance-deduplicated ``values`` with 0.0 first.

    ``values`` are finite and nonnegative.  Walking them in ascending
    order, each value is compared with the last value *kept*, not with
    its predecessor, and dropped when ``dist_eq(v, last)`` holds, or
    ``dist_leq(v, last)`` with ``leq``, the rule of the fixed-center
    searches.  The two rules differ only in rounding, for a v at
    last + tolerance.

    A value not within tolerance of its predecessor is always kept: the
    last kept value is no larger than the predecessor and float
    arithmetic rounds monotonically, so its gap is no smaller.  Only the
    values within tolerance of their predecessor take the Python pass.
    """
    v = np.unique(np.concatenate(([0.0], np.ravel(values))))
    v[0] = 0.0  # the zero np.unique keeps may be a -0.0 entry
    prev, cur = v[:-1], v[1:]
    tol = REL_TOL * np.maximum(1.0, cur)  # = max(1, |cur|, |prev|) on ascending values >= 0
    near = cur <= prev + tol if leq else cur - prev <= tol
    same = dist_leq if leq else dist_eq
    keep = np.concatenate(([True], ~near))
    last = 0.0
    for i in np.flatnonzero(near) + 1:
        if keep[i - 1]:
            last = float(v[i - 1])
        if not same(float(v[i]), last):
            keep[i] = True
    return v[keep].tolist()


def candidate_radii(inst: Instance) -> list[float]:
    """Ascending pairwise distances, 0 included, deduplicated by
    ``dedup_radii``: each distance is dropped when ``dist_eq`` holds
    between it and the last distance kept (not its predecessor)."""
    return dedup_radii(inst.dist[np.triu_indices(inst.n, k=1)])


T = TypeVar("T")


def binary_search_min_feasible(
    candidates: Sequence[float],
    probe: Callable[[float], Optional[T]],
    *,
    linear_scan: bool = False,
) -> Optional[tuple[float, T]]:
    """Find the leftmost-true boundary of ``probe`` over sorted candidates.

    The probe's success set must contain a suffix of the candidate list
    (exact probes are monotone; the greedy probes are guaranteed to
    succeed from some candidate on).  Returns None iff the probe fails
    at the maximum candidate.  ``linear_scan`` scans left to right
    instead, for diagnosing probes suspected of violating the contract.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    if linear_scan:
        for r in candidates:
            res = probe(r)
            if res is not None:
                return r, res
        return None
    lo, hi = 0, len(candidates) - 1
    best = probe(candidates[hi])
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(candidates[mid])
        if res is not None:
            best = res
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo], best


# ---------------------------------------------------------------------------
# DOT export

_DOT_COLORS = (
    "lightblue", "lightpink", "palegreen", "khaki", "plum", "lightsalmon",
    "aquamarine", "wheat", "lightgray", "gold", "cyan", "orchid",
)


def to_dot(inst: Instance, c: Optional[Clustering] = None) -> str:
    """Render the connectivity graph; clusters become fill colors and
    centers are drawn with a double border."""
    color_of: dict[int, str] = {}
    centers: set[int] = set()
    if c is not None:
        for i, cl in enumerate(c.clusters):
            for x in sorted(cl):
                color_of.setdefault(x, _DOT_COLORS[i % len(_DOT_COLORS)])
        if c.centers:
            centers = set(c.centers)
    lines = ["graph conncluster {", "  node [style=filled, fillcolor=white];"]
    for v in range(inst.n):
        attrs = [f'label="{inst.label(v)}"']
        if v in color_of:
            attrs.append(f'fillcolor="{color_of[v]}"')
        if v in centers:
            attrs.append("peripheries=2")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in inst.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
