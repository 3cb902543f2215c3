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

import contextlib
import functools
import gc
import itertools
import json
import math
import numbers
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Collection, Iterable, Optional, Sequence, TypeVar

import numpy as np
import orjson

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


def leq_bound(r: float) -> float:
    """The largest float x with ``dist_leq(x, r)``, or inf.

    When ``dist_leq(a, r)`` holds it holds for every smaller a >= 0, so
    for finite a >= 0 it is ``a <= leq_bound(r)``: one float per radius
    stands for the whole tolerant test.  The start
    ``r + REL_TOL * max(1, |r|)`` always passes; a step or two up finds
    the last float that does.  The steps stop at inf, where the start
    lands when it overflows near the top of the float range.
    """
    r = float(r)  # Python floats overflow to inf without a warning
    x = r + REL_TOL * max(1.0, abs(r))
    while x < math.inf:
        up = math.nextafter(x, math.inf)
        if not dist_leq(up, r):
            break
        x = up
    return x


def dist_leq_arr(a: np.ndarray, b: float) -> np.ndarray:
    """Vectorized tolerant a <= b, elementwise equal to ``dist_leq`` on
    finite a >= 0 (every distance the loader accepts, and their maxima)."""
    return a <= leq_bound(b)


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


#: Rows of an Lp distance matrix realized at a time.  A block of rows and
#: its difference buffer stay in cache, and no second n x n array exists.
_LP_BLOCK_ROWS = 32


@dataclass(frozen=True)
class LpMetric:
    coords: np.ndarray
    p: float  # 1, 2, ..., or math.inf

    def realize(self, n: int) -> np.ndarray:
        c, p = np.asarray(self.coords, dtype=float), self.p
        _check_lp(c, p, n)
        # NumPy sums 8 or more terms pairwise; a running sum would differ
        # from that in the last bits, so from 8 coordinates on (finite p)
        # each block sums its rows x n x d difference tensor.  Below 8
        # terms NumPy's sum is the running sum over one coordinate at a
        # time, bit for bit.
        tensor = c.shape[1] >= 8 and p != math.inf
        out = np.empty((n, n))
        diff = None if tensor else np.empty((min(n, _LP_BLOCK_ROWS), n))
        # overflowing or infinite coordinates give non-finite distances,
        # which make_instance rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, _LP_BLOCK_ROWS):
                rows = c[lo : lo + _LP_BLOCK_ROWS]
                block = out[lo : lo + _LP_BLOCK_ROWS]
                if tensor:
                    cube = np.subtract(rows[:, None, :], c[None, :, :])
                    np.abs(cube, out=cube)
                    cube **= p
                    cube.sum(axis=2, out=block)
                else:
                    block.fill(0.0)
                    part = diff[: len(rows)]
                    for row_col, col in zip(rows.T, c.T):
                        np.subtract(row_col[:, None], col[None, :], out=part)
                        np.abs(part, out=part)
                        if p == math.inf:
                            np.maximum(block, part, out=block)
                        else:
                            part **= p
                            block += part
                if p == 2:
                    np.sqrt(block, out=block)
                elif p not in (1, math.inf):
                    block **= 1.0 / p
        return out  # make_instance rejects a distance that underflows to 0


@dataclass(frozen=True)
class GraphMetric:
    """Weighted edge list; distances are all-pairs shortest paths."""

    edges: tuple[tuple[int, int, float], ...]

    def realize(self, n: int) -> np.ndarray:
        # parallel edges: the shortest one's weight
        shortest: dict[tuple[int, int], float] = {}
        for u, v, w in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InstanceFormatError(f"bad metric-graph edge ({u}, {v})")
            if not 0 <= w < math.inf:
                raise InstanceFormatError("metric-graph edge weights must be finite and nonnegative")
            key = (u, v) if u < v else (v, u)
            if w < shortest.get(key, math.inf):
                shortest[key] = w
        # n points need n - 1 edges to connect; the test also bounds n by
        # the edge count before anything with n entries is allocated
        if len(shortest) < n - 1:
            raise InstanceFormatError("metric graph is disconnected")
        ends = np.fromiter(itertools.chain.from_iterable(shortest), np.int64, 2 * len(shortest))
        a, b = ends.reshape(-1, 2).T
        weights = np.fromiter(shortest.values(), float, len(shortest))
        # both orientations of every edge, grouped by their first point
        src, dst = np.concatenate((a, b)), np.concatenate((b, a))
        order = np.argsort(src)
        src, dst = src[order], dst[order]
        degree = np.bincount(src, minlength=n)
        bounds = np.concatenate(([0], np.cumsum(degree)))
        # on the edges, before anything of n x n entries exists
        if not _connected(dst.tolist(), bounds.tolist()):
            raise InstanceFormatError("metric graph is disconnected")
        # padded neighbour rows; a pad points at its row's own point with
        # weight inf, so it never offers a shorter distance
        width = int(degree.max())
        slot = np.arange(len(src)) - np.repeat(bounds[:-1], degree)
        nb = np.repeat(np.arange(n), width).reshape(n, width)
        nb[src, slot] = dst
        ww = np.full((n, width), np.inf)
        ww[src, slot] = np.concatenate((weights, weights))[order]
        return _all_sources_dijkstra(nb, ww)  # overflow to inf: make_instance rejects it


def _connected(nbrs: list[int], bounds: list[int]) -> bool:
    """Whether a search from point 0 reaches every point, where the
    neighbours of point v are ``nbrs[bounds[v]:bounds[v + 1]]``."""
    seen = [False] * (len(bounds) - 1)
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for u in nbrs[bounds[v] : bounds[v + 1]]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return all(seen)


def _all_sources_dijkstra(nb: np.ndarray, ww: np.ndarray) -> np.ndarray:
    """Shortest-path distances from every point at once.

    Point u's neighbours are the row ``nb[u]``, at the weights ``ww[u]``.
    Each step settles, for every source s, its nearest unsettled point u
    and relaxes ``d(s, u) + w(u, v)`` into each neighbour v where that is
    strictly smaller.  Every distance is one such sum, as in SciPy's
    Dijkstra, and both take the least such sum over all paths, so they
    give the same bits, ties and zero weights included.
    """
    n = len(nb)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    todo = dist.copy()  # unsettled tentative distances; a settled point reads inf
    flat, flat_todo = dist.reshape(-1), todo.reshape(-1)
    rows = np.arange(0, n * n, n)
    # settling the last point relaxes nothing; a sum may overflow to inf
    with np.errstate(over="ignore"):
        for _ in range(n - 1):
            u = todo.argmin(axis=1)
            at = rows + u
            du = flat.take(at)
            flat_todo.put(at, np.inf)
            at = rows[:, None] + nb.take(u, axis=0)
            cand = du[:, None] + ww.take(u, axis=0)
            better = cand < flat.take(at)  # a settled point is never bettered
            at, cand = at[better], cand[better]
            flat.put(at, cand)
            flat_todo.put(at, cand)
    return dist


MetricSpec = ExplicitMetric | LpMetric | GraphMetric


# ---------------------------------------------------------------------------
# instance


@dataclass(frozen=True)
class Tree:
    """A connectivity graph that is a tree, rooted at point 0."""

    order: tuple[int, ...]  # DFS pre-order from point 0, smaller neighbour first
    parent: tuple[int, ...]  # point -> its parent, -1 at the root
    path: Optional[tuple[int, ...]]  # the points along the path from its smaller end, or None


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
    labels: Optional[tuple[str, ...]] = None
    coords: Optional[np.ndarray] = None
    p: Optional[float] = None

    def d(self, x: int, y: int) -> float:
        return float(self.dist[x, y])

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    @functools.cached_property
    def tree(self) -> Optional[Tree]:
        """The connectivity graph as a ``Tree``, or None when it is not a
        tree.  ``path`` is set when no point has degree above 2.  The one
        place that decides whether the exact line and tree solvers apply.
        """
        n, adj = self.n, self.adj
        if len(self.edges) != n - 1:
            return None
        parent = [-2] * n  # -2: not reached yet
        parent[0] = -1
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in reversed(adj[v]):  # adjacency lists are ascending
                if parent[u] == -2:
                    parent[u] = v
                    stack.append(u)
        if len(order) < n:  # n - 1 edges and disconnected: a cycle elsewhere
            return None
        if max(map(len, adj)) > 2:
            return Tree(tuple(order), tuple(parent), None)
        walk = [min(v for v in range(n) if len(adj[v]) < 2)]  # the smaller end
        for _ in range(n - 1):
            nb = adj[walk[-1]]
            walk.append(nb[-1] if len(walk) > 1 and nb[0] == walk[-2] else nb[0])
        return Tree(tuple(order), tuple(parent), tuple(walk))


_INT64 = np.iinfo(np.int64)

#: The bit pattern of 2**1023.  A float64 whose bits, read as an unsigned
#: integer, reach it is negative (its sign bit set) or at least 2**1023.
_SIGN_OR_HUGE = np.uint64(0x7FE0000000000000)


def _read_edges(edges: Iterable[tuple[int, int]]) -> tuple[list, np.ndarray]:
    """The connectivity edges, read once: as a list of the edges given,
    and as an m x 2 int64 array.

    Every edge must be a pair of integer ids: a bool, a float such as 1.0
    or 0.7, a string or None raises, as does an edge of another length.
    Plain ints within int64 fill the array in one pass; an id past int64
    is out of range for any n, and -1 stands in for it.
    """
    try:
        pairs = list(edges)
        if set(map(len, pairs)) - {2}:
            raise ValueError("an edge is not a pair")
        flat = point_ids(itertools.chain.from_iterable(pairs))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError("connectivity edges must be [u, v] pairs") from exc
    try:
        ids = np.fromiter(flat, np.int64, len(flat))
    except OverflowError:
        fit = (x if _INT64.min <= x <= _INT64.max else -1 for x in flat)
        ids = np.fromiter(fit, np.int64, len(flat))
    return pairs, ids.reshape(-1, 2)


def _connectivity(
    pairs: list, e: np.ndarray, n: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """Sorted adjacency lists and the sorted edge list of the connectivity
    graph on 0..n-1, from ``_read_edges``.

    Edges are checked in input order, each for its range, then for a
    self-loop, then for repeating an earlier edge in either orientation;
    the first edge that fails raises.
    """
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    # lo*n + hi tells the edges in range apart; an edge out of range may
    # wrap onto another's key, but it is bad itself, and an edge that it
    # makes a repeat comes after it
    uniq, first = np.unique(lo * n + hi, return_index=True)
    repeat = np.ones(len(e), dtype=bool)
    repeat[first] = False
    bad |= repeat
    if bad.any():
        u, v = pairs[int(np.argmax(bad))]
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"connectivity edge ({u}, {v}) out of range")
        if u == v:
            raise InstanceFormatError(f"connectivity self-loop at {u}")
        raise InstanceFormatError(f"duplicate connectivity edge ({min(u, v)}, {max(u, v)})")
    a, b = np.divmod(uniq, n)
    # both orientations, keyed and sorted by (endpoint, neighbor)
    arcs = np.sort(np.concatenate((uniq, b * n + a)))
    ends = np.cumsum(np.bincount(arcs // n, minlength=n)).tolist()
    nbrs = (arcs % n).tolist()
    adj = tuple(tuple(nbrs[s:t]) for s, t in zip([0] + ends, ends))
    return adj, tuple(zip(a.tolist(), b.tolist()))


def make_instance(
    dist: np.ndarray | Sequence[Sequence[float]],
    edges: Iterable[tuple[int, int]],
    k: int,
    *,
    labels: Optional[Sequence[str]] = None,
    coords: Optional[np.ndarray] = None,
    p: Optional[float] = None,
) -> Instance:
    """Build a validated Instance from an in-memory matrix and edge list.

    The rules are an instance document's, and a breach raises
    ``InstanceFormatError``: matrix entries and coordinates are numbers,
    not strings or booleans; ``k`` and every point id are integers, not
    bools or floats; ``labels`` are strings; ``coords`` have n rows and
    come with a ``p`` that is a positive integer or inf.
    The instance's ``dist`` is the symmetrized matrix ``(m + m.T) / 2``.
    A ``dist`` or ``coords`` array passed in is left as it is: writable,
    and sharing no memory with the instance.  With ``coords``, the matrix
    is their Lp realization, and a distance that underflowed to 0 between
    points with different coordinates is rejected."""
    m = _numbers(dist, "distance matrix entries", True)
    if coords is not None:
        coords = _numbers(coords, "lp metric coords", True)
    return _make_instance(m, edges, k, labels, coords, p)


def _make_instance(
    m: np.ndarray,
    edges: Iterable[tuple[int, int]],
    k: int,
    labels: Optional[Sequence[str]],
    coords: Optional[np.ndarray],
    p: Optional[float],
) -> Instance:
    """``make_instance`` on float64 arrays ``m`` and ``coords`` that no
    one else holds: the instance may keep them.  Every instance, from a
    document or from a caller, passes here."""
    pairs, ids = _read_edges(edges)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InstanceFormatError("distance matrix must be square")
    n = m.shape[0]
    if n == 0:
        raise InstanceFormatError("instance needs at least one point")
    _check_k(k)
    if not (1 <= k <= n):
        raise InstanceFormatError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    # Below _SIGN_OR_HUGE no entry has its sign bit set (-0.0 included)
    # and none is 2**1023 or more (inf and NaN included).  On such an
    # exactly symmetric matrix (m + m.T) / 2 is m, bit for bit, and of the
    # matrix checks below only the diagonal's can fail.
    kept = bool(m.view(np.uint64).max() < _SIGN_OR_HUGE) and np.array_equal(m, m.T)
    if not kept:
        # an entry above half the float range overflows to inf here: rejected
        with np.errstate(over="ignore"):
            sym = (m + m.T) / 2.0
            if not np.isfinite(sym).all():
                raise InstanceFormatError("distance matrix has non-finite entries")
            # the exact test is cheap and decides most documents; NaN fails
            # it, but the finiteness check above has already rejected NaN
            if not (np.array_equal(m, m.T) or np.allclose(m, m.T, rtol=REL_TOL, atol=REL_TOL)):
                raise InstanceFormatError("distance matrix is not symmetric")
    if np.any(np.diag(m) != 0.0):
        raise InstanceFormatError("distance matrix has nonzero diagonal")
    if not kept:
        if np.any(m < 0.0):
            raise InstanceFormatError("distance matrix has negative entries")
        m = sym
    if coords is not None:
        _check_lp(coords, p, n)
        _reject_underflow(m, coords)
    elif p is not None:
        raise InstanceFormatError("norm exponent p needs coords")
    adj, edge_list = _connectivity(pairs, ids, n)
    if labels is not None:
        _check_labels(labels)
        if len(labels) != n:
            raise InstanceFormatError("labels length must equal n")

    m.setflags(write=False)
    if coords is not None:
        coords.setflags(write=False)
    return Instance(
        n=n,
        k=int(k),
        dist=m,
        adj=adj,
        edges=edge_list,
        labels=tuple(labels) if labels is not None else None,
        coords=coords,
        p=None if p is None else float(p),
    )


def _reject_underflow(dist: np.ndarray, coords: np.ndarray) -> None:
    """Raise if two points whose coordinates differ as numbers (-0.0 and
    0.0 do not) are at distance 0 in the symmetric Lp matrix ``dist``:
    all their powered differences underflowed, as 1e-200 apart at p = 2
    or 1e-10 apart at p = 40 do."""
    zero = dist == 0.0
    np.fill_diagonal(zero, False)
    for i in np.flatnonzero(zero.any(axis=1)):  # rows with a repeated point, most often none
        j = np.flatnonzero(zero[i])
        distinct = (coords[j] != coords[i]).any(axis=1)
        if distinct.any():  # the first such row has i < j: the matrix is symmetric
            raise InstanceFormatError(
                f"lp distance between points {i} and {j[np.argmax(distinct)]} underflows to 0"
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


def point_ids(values: Iterable, n: Optional[int] = None, *, what: str = "point") -> list[int]:
    """``values`` as a new list of Python ints: the one rule for the point
    ids that a document or a caller hands in.

    Each id is an integer, a NumPy integer too; a bool, a float such as
    1.7 or 1.0, a string or None raises ``InstanceFormatError``, and so
    does, given ``n``, an id outside 0..n-1.  Nothing that is not an
    integer is converted.  ``what`` names the ids in the messages.
    """
    ids = list(values)
    kinds = set(map(type, ids)) - {int}
    if kinds:  # NumPy integers, or ids that are not integers
        if not all(issubclass(t, numbers.Integral) and not issubclass(t, bool) for t in kinds):
            x = next(x for x in ids if not _is_int(x))
            raise InstanceFormatError(f"{what} id {x!r} is not an integer")
        ids = list(map(int, ids))
    if n is not None and ids and (min(ids) < 0 or max(ids) >= n):
        bad = [x for x in ids if not 0 <= x < n]  # as given, repeats included
        raise InstanceFormatError(f"{what} ids {bad} out of range for n={n}")
    return ids


def center_set(values: Iterable, n: int, k: Optional[int] = None) -> list[int]:
    """A center set's ids in ascending order: ``point_ids`` in 0..n-1, at
    least one and none repeated, or ``InstanceFormatError``.  A solver
    that consumes the centers passes its budget ``k``: more than k
    centers raise ``AlgorithmPreconditionError``."""
    C = sorted(point_ids(values, n, what="center"))
    if not C:
        raise InstanceFormatError("need at least one center")
    if len(set(C)) < len(C):
        repeated = sorted({a for a, b in zip(C, C[1:]) if a == b})
        raise InstanceFormatError(f"center ids {repeated} repeated")
    if k is not None and len(C) > k:
        raise AlgorithmPreconditionError(f"{len(C)} centers exceed the budget k={k}")
    return C


def _numbers(value, what: str, bools: bool) -> np.ndarray:
    """``value`` as a new float array, which the instance may keep.

    NumPy reads strings such as "1", " 1" and "1e0" and the booleans as
    numbers, so a table of rows is checked entry by entry, unless it is
    an array of integers or floats; an array of any other kind but
    objects is refused.  ``sum`` fails on a string; its float start turns
    each integer into a float on its own, so large integers that load
    cannot overflow a running sum.  It takes a boolean, so where the
    value may hold one (``bools``) the entry types are read as well.
    """
    kind = value.dtype.kind if isinstance(value, np.ndarray) else "O"
    try:
        if kind not in "iufO":  # booleans, strings, complex numbers
            raise TypeError(f"{value.dtype} entries are not numbers")
        arr = np.array(value, dtype=float)
        if arr.ndim == 2 and kind == "O":
            sum(map(sum, value, itertools.repeat(0.0)))
            if bools and {bool, np.bool_} & set(map(type, itertools.chain.from_iterable(value))):
                raise TypeError("a boolean is not a number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{what} must be numbers") from exc
    return arr


def _check_k(k) -> None:
    if not _is_int(k):
        raise InstanceFormatError('"k" must be an integer')


def _check_labels(labels) -> None:
    """Labels are a list (or tuple) of strings that are valid Unicode."""
    if not (isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)):
        raise InstanceFormatError('"labels" must be a list of strings')
    try:  # JSON can escape a lone surrogate, which no output encoding accepts
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InstanceFormatError('"labels" must be valid Unicode') from exc


def _check_lp(coords: np.ndarray, p, n: int) -> None:
    """Lp coordinates have one row per point; the exponent p is a
    positive integer or inf (not a bool)."""
    if coords.ndim != 2 or coords.shape[0] != n:
        raise InstanceFormatError(f"coordinate list must have {n} rows")
    try:
        ok = not isinstance(p, bool) and (p == math.inf or (p >= 1 and float(p).is_integer()))
    except (TypeError, ValueError, OverflowError):  # None, a string, ...
        ok = False
    if not ok:
        raise InstanceFormatError("norm exponent p must be a positive integer or inf")


def _scalar(x) -> float:
    if isinstance(x, (str, bool)):  # float() reads both
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _metric_from_doc(doc: dict, bools: bool) -> MetricSpec:
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceFormatError('"metric" must be an object with a "type"')
    kind = doc["type"]
    if kind == "explicit":
        if "matrix" not in doc:
            raise InstanceFormatError('explicit metric needs a "matrix"')
        return ExplicitMetric(_numbers(doc["matrix"], "explicit metric matrix entries", bools))
    if kind == "lp":
        if "coords" not in doc or "p" not in doc:
            raise InstanceFormatError('lp metric needs "coords" and "p"')
        p = doc["p"]
        try:
            p = math.inf if p in ("inf", "infinity") else _scalar(p)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError('lp metric "p" must be a number or "inf"') from exc
        return LpMetric(_numbers(doc["coords"], "lp metric coords", bools), p)
    if kind == "graph":
        if "edges" not in doc:
            raise InstanceFormatError('graph metric needs weighted "edges"')
        try:
            if not isinstance(doc["edges"], list):  # an object or a string iterates too
                raise TypeError("metric-graph edges are not a JSON array")
            edges = tuple((u, v, _scalar(w)) for u, v, w in doc["edges"])
            point_ids(x for u, v, _ in edges for x in (u, v))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError("graph metric edges must be [u, v, weight] triples") from exc
        return GraphMetric(edges)
    raise InstanceFormatError(f"unknown metric type {kind!r}")


def instance_from_doc(doc: dict, *, bools: bool = True) -> Instance:
    """Validate and realize an instance document (see README for the schema).

    ``bools=False`` says that the document holds no boolean, which spares
    the scan of every matrix or coordinate entry for one."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("n", "k", "metric", "edges"):
        if key not in doc:
            raise InstanceFormatError(f'instance document missing "{key}"')
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise InstanceFormatError('"n" must be a positive integer')
    _check_k(doc["k"])
    labels = doc.get("labels")
    if labels is not None:
        _check_labels(labels)
    spec = _metric_from_doc(doc["metric"], bools)
    coords, p = (spec.coords, spec.p) if isinstance(spec, LpMetric) else (None, None)
    m = spec.realize(n)
    # make_instance takes any iterable of edges; a document's edges are a
    # JSON array, not an object or a string, which iterate too
    if not isinstance(doc["edges"], list):
        raise InstanceFormatError("connectivity edges must be [u, v] pairs")
    return _make_instance(m, doc["edges"], doc["k"], labels, coords, p)


#: What ``json`` raises on a malformed document: ``ValueError`` also
#: covers invalid UTF-8 and integer literals over the digit limit, and
#: the decoder recurses once per nesting level.
_JSON_ERRORS = (ValueError, RecursionError)


#: The keys ``instance_from_doc`` reads: the document's, and each metric's.
#: A key it reads but these miss only sends documents to ``json``.
_DOC_KEYS = frozenset(("n", "k", "metric", "edges", "labels"))
_METRIC_KEYS = {
    "explicit": frozenset(("type", "matrix")),
    "lp": frozenset(("type", "coords", "p")),
    "graph": frozenset(("type", "edges")),
}


_collector_lock = threading.Lock()


@contextlib.contextmanager
def _collector_paused():
    """Hold the cyclic garbage collector off, then restore the state it
    was in.  That state is the process's: the lock keeps one thread's
    restore from falling between another's reading of the state and its
    turning the collector off, so threads leave it as they found it."""
    with _collector_lock:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _collector_lock:
                gc.enable()


def _orjson_instance(data: bytes | str) -> Optional[Instance]:
    """The instance in ``data`` as orjson decodes it, or None to leave
    the document to ``json``.

    The decoded document and the instance built from it hold no
    reference cycles, so the collector is paused for the decode: its
    passes over the document's many new lists would find nothing to
    free.  The document is dropped before the collector resumes.

    Where both decoders take a document they give equal values, with two
    exceptions.  orjson turns integers outside [-2**63, 2**64) into
    floats, which ``instance_from_doc`` rejects wherever it needs an
    integer.  And orjson takes nesting of any depth, while ``json``
    recurses once per level and fails near the interpreter's recursion
    limit; the values ``instance_from_doc`` reads nest a few levels at
    most, so a document with a list or an object under a key it does not
    read is left to ``json``.  So is every document that orjson or
    ``instance_from_doc`` rejects: ``json``'s reading gives the message.
    """
    # a JSON true holds a "u" and a false an "f"; most documents hold
    # neither letter, and one byte is found fast
    u, f = ("u", "f") if isinstance(data, str) else (b"u", b"f")
    bools = u in data or f in data
    with _collector_paused():
        try:
            doc = orjson.loads(data)
            inst = instance_from_doc(doc, bools=bools)
        except Exception:  # the caller reads the document again with json
            return None
        metric = doc["metric"]
        unread = itertools.chain(
            (v for key, v in doc.items() if key not in _DOC_KEYS),
            (v for key, v in metric.items() if key not in _METRIC_KEYS[metric["type"]]),
        )
        if any(isinstance(v, (list, dict)) for v in unread):
            inst = None
        del doc, metric, unread
    return inst


def load_instance(source: str | bytes | dict) -> Instance:
    """Load an instance from a JSON string, UTF-8 bytes or an
    already-parsed dict."""
    if not isinstance(source, (str, bytes)):
        return instance_from_doc(source)
    inst = _orjson_instance(source)
    if inst is not None:
        return inst
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source)
    except _JSON_ERRORS as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_doc(doc)


def read_json_file(path: str) -> object:
    """The JSON document in the UTF-8 file ``path``.

    The file is read and decoded inside the check, so a byte that is not
    UTF-8 is reported like any other malformed document.  Line ends are
    read as they are, so an error's offsets count positions in the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return json.load(fh)
        except _JSON_ERRORS as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc


def load_instance_file(path: str) -> Instance:
    """The instance in the UTF-8 JSON file ``path``: its bytes, read
    once, through ``load_instance``."""
    with open(path, "rb") as fh:
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
    """A ``Clustering`` whose every id passes ``point_ids``; the ids' range
    is an instance's, which ``validate_clustering`` checks."""
    return Clustering(
        clusters=tuple(frozenset(point_ids(c)) for c in clusters),
        centers=None if centers is None else tuple(point_ids(centers)),
        mode=mode,
    )


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.feasible


def bfs_parents(
    inst: Instance, points: Collection[int], roots: Iterable[int]
) -> dict[int, int]:
    """Breadth-first search from ``roots`` over the subgraph that ``points``
    induces: each point reached, in discovery order, mapped to the point it
    was reached from, a root to -1.  Neighbours are scanned in ascending
    order.  The one connectivity search: clusters, the transform's
    spanning trees, padding and the assignment oracle all ask it.  It
    stops once every point is reached, so a dense cluster reads a few
    adjacency lists, not all of them.
    """
    parent = dict.fromkeys(roots, -1)
    queue = list(parent)
    full = len(points) + sum(v not in points for v in queue)
    adj = inst.adj
    for v in queue:  # the list grows while it is read: a FIFO queue
        if len(parent) == full:
            break
        for u in adj[v]:
            # most neighbours of a cluster's point lie in that cluster and
            # are reached already, so the cheaper test to fail comes first
            if u not in parent and u in points:
                parent[u] = v
                queue.append(u)
    return parent


def validate_clustering(inst: Instance, c: Clustering) -> Verdict:
    """Check coverage, connectivity, disjointness (if required) and budget.

    Violations are returned as data; out-of-range point ids are a caller
    error and raise instead (``point_ids``).
    """
    covered = set().union(*c.clusters)
    point_ids(sorted(covered), inst.n)
    violations: list[str] = []
    if covered != set(range(inst.n)):
        missing = sorted(set(range(inst.n)) - covered)
        violations.append(f"points not covered: {missing}")
    for i, cl in enumerate(c.clusters):
        if len(bfs_parents(inst, cl, [next(iter(cl))])) != len(cl):
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


def cluster_radius(dist: np.ndarray, points: Collection[int], center: int) -> float:
    """Largest distance from ``center`` to a point of a nonempty cluster."""
    idx = np.fromiter(points, dtype=int)
    return float(dist[idx, center].max())


def cluster_diameter(dist: np.ndarray, points: Collection[int]) -> float:
    """Largest distance between two points of the cluster; 0.0 below two."""
    if len(points) < 2:
        return 0.0
    idx = np.fromiter(points, dtype=int)
    return float(dist[np.ix_(idx, idx)].max())


def clustering_cost(inst: Instance, c: Clustering, objective: str) -> float:
    """Maximum radius (center objective) or maximum diameter of the clusters."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if objective == CENTER:
        if c.centers is None:
            raise ValueError("center objective needs centers")
        costs = map(functools.partial(cluster_radius, inst.dist), c.clusters, c.centers)
    else:
        costs = map(functools.partial(cluster_diameter, inst.dist), c.clusters)
    # max keeps the first of equal values: a zero cost is the leading
    # 0.0, never a -0.0 distance
    return max((0.0, *costs))


def clustering_to_doc(c: Clustering) -> dict:
    return {
        "mode": c.mode,
        "clusters": [sorted(cl) for cl in c.clusters],
        "centers": list(c.centers) if c.centers is not None else None,
    }


def clustering_from_doc(doc: dict) -> Clustering:
    if not isinstance(doc, dict) or "clusters" not in doc or "mode" not in doc:
        raise InstanceFormatError('clustering document needs "mode" and "clusters"')
    if doc["mode"] not in MODES:
        raise InstanceFormatError(f'clustering mode must be one of {MODES}')
    try:
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
        return asdict(self)


def make_report(
    inst: Instance,
    c: Clustering,
    objective: str,
    algorithm: str,
    bound: Optional[float] = None,
) -> SolveReport:
    """Build a report whose objective is the recomputed cost of ``c``.

    A ``bound`` below that objective is dropped (reported as None): the
    a-priori bounds assume the triangle inequality, which an explicit
    matrix need not satisfy, and a bound that does not hold claims nothing.
    """
    cost = clustering_cost(inst, c, objective)
    return SolveReport(
        objective=cost,
        clusters_used=c.clusters_used,
        algorithm=algorithm,
        bound=bound if bound is None or dist_leq(cost, bound) else None,
        feasible=validate_clustering(inst, c).feasible,
    )


# ---------------------------------------------------------------------------
# candidate radii and the radius search driver


def dedup_radii(values: np.ndarray, *, leq: bool = False) -> np.ndarray:
    """Ascending, tolerance-deduplicated ``values`` with 0.0 first, as a
    new float64 array.

    ``values`` are finite and nonnegative.  Walking them in ascending
    order, each value is compared with the last value *kept*, not with
    its predecessor, and dropped when ``dist_eq(v, last)`` holds, or
    ``dist_leq(v, last)`` with ``leq``, the rule of the fixed-center
    searches.  The two rules differ only in rounding, for a v at
    last + tolerance.
    """
    v = np.empty(np.size(values) + 1)
    v[0] = 0.0
    v[1:] = np.ravel(values)
    return _dedup_sorted(v, leq)


def _dedup_sorted(v: np.ndarray, leq: bool) -> np.ndarray:
    """``dedup_radii`` of ``v[1:]``, given ``v[0] == 0.0``; sorts ``v`` in place.

    An exact repeat is dropped: its value was kept, or was within
    tolerance of the same last kept value.  A value not within tolerance
    of its predecessor is always kept: the last kept value is no larger
    than the predecessor and float arithmetic rounds monotonically, so
    its gap is no smaller.  Every tolerance is at most
    REL_TOL * max(1, v[-1]), and twice that also covers the rounding of
    ``prev + tol`` under ``leq``, so one comparison of the gaps with it
    leaves the few values that may be near ties.  Only the near ties
    take the Python pass, which reads whether their predecessor's value
    was kept at the first position that holds it.
    """
    v.sort()
    v[0] = 0.0  # the zero sorted first may be a -0.0 entry
    keep = np.empty(len(v), dtype=bool)
    keep[0] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    close = np.flatnonzero(keep[1:] & (np.diff(v) <= 2 * REL_TOL * max(1.0, float(v[-1])))) + 1
    cur, prev = v[close], v[close - 1]
    tol = REL_TOL * np.maximum(1.0, cur)  # = max(1, |cur|, |prev|) on ascending values >= 0
    near = cur <= prev + tol if leq else cur - prev <= tol
    ties, cur, prev = close[near], cur[near], prev[near]
    keep[ties] = False
    starts = np.searchsorted(v, prev)  # the first position of each predecessor's value
    same = dist_leq if leq else dist_eq
    last = 0.0
    for i, start, p, x in zip(ties.tolist(), starts.tolist(), prev.tolist(), cur.tolist()):
        if keep[start]:
            last = p
        if not same(x, last):
            keep[i] = True
    return v if keep.all() else v[keep]


def candidate_radii(inst: Instance) -> np.ndarray:
    """Ascending pairwise distances, 0 included, deduplicated by
    ``dedup_radii`` into a new float64 array: each distance is dropped
    when ``dist_eq`` holds between it and the last distance kept (not
    its predecessor)."""
    n, d = inst.n, inst.dist
    v = np.empty(n * (n - 1) // 2 + 1)
    v[0] = 0.0
    end = 1
    for i in range(n - 1):  # the strict upper triangle, row by row
        start, end = end, end + n - 1 - i
        v[start:end] = d[i, i + 1 :]
    return _dedup_sorted(v, leq=False)


T = TypeVar("T")


def binary_search_min_feasible(
    candidates: Sequence[float] | np.ndarray,
    probe: Callable[[float], Optional[T]],
) -> Optional[tuple[float, T]]:
    """Find the leftmost-true boundary of ``probe`` over sorted candidates.

    The probe's success set must contain a suffix of the candidates
    (exact probes are monotone; the greedy probes are guaranteed to
    succeed from some candidate on).  Each probe receives, and the
    result carries, the Python float ``float(candidates[i])``.  Returns
    None iff the probe fails at the maximum candidate.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    lo, hi = 0, len(candidates) - 1
    best = probe(float(candidates[hi]))
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(float(candidates[mid]))
        if res is not None:
            best = res
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo]), best


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
        label = inst.label(v).replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        if v in color_of:
            attrs.append(f'fillcolor="{color_of[v]}"')
        if v in centers:
            attrs.append("peripheries=2")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in inst.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
