"""Optimal algorithms for line and tree connectivity graphs.

Lines admit greedy sweeps for both objectives; trees admit a dynamic
program over (subtree, assigned-center) pairs for the disjoint center
objective and a two-phase reachable-center algorithm when the centers
are fixed.  None of these need the triangle inequality.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    AlgorithmPreconditionError,
    Clustering,
    Instance,
    SolveReport,
    binary_search_min_feasible,
    candidate_radii,
    center_set,
    clustering,
    clustering_cost,
    dedup_radii,
    dist_leq,
    dist_leq_arr,
    leq_bound,
    make_report,
    validate_clustering,  # unused here; perfbench/tracer.py wraps it in each solver module
)

# ---------------------------------------------------------------------------
# line graphs


def _path_matrix(inst: Instance) -> tuple[tuple[int, ...], np.ndarray]:
    """Point order along the path and the distance matrix permuted into
    it.  The matrix is symmetric (``make_instance``), so its rows are also
    its columns."""
    tree = inst.tree
    if tree is None or tree.path is None:
        raise AlgorithmPreconditionError("connectivity graph is not a path")
    return tree.path, inst.dist[np.ix_(tree.path, tree.path)]


def _reach(D: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Per position i: the first and the last position of the stretch
    around i whose every position is within r of i.  Each side ends just
    before the nearest position that is not."""
    n = len(D)
    rows = np.arange(n)
    blocked = D > leq_bound(r)
    before = np.tri(n, k=-1, dtype=bool)  # j < i
    left = (blocked & before)[:, ::-1]  # column n-1-j holds j
    last = left.argmax(axis=1)
    right = blocked & before.T
    first = right.argmax(axis=1)
    return (
        np.where(left[rows, last], n - last, 0),
        np.where(right[rows, first], first - 1, n - 1),
    )


def _center_sweep(order: Sequence[int], D: np.ndarray, k: int, r: float) -> Optional[Clustering]:
    n = len(order)
    a, b = _reach(D, r)
    clusters: list[list[int]] = []
    centers: list[int] = []
    u = 0
    while u < n:
        if len(clusters) == k:
            return None
        # farthest right reach among the centers covering u, leftmost on ties
        i = int(np.where((a <= u) & (b >= u), b, -1).argmax())
        hi = int(b[i])
        clusters.append(order[min(i, u) : hi + 1])
        centers.append(order[i])
        u = hi + 1
    return clustering(clusters, centers, NON_DISJOINT)


def _diameter_sweep(order: Sequence[int], D: np.ndarray, k: int, r: float) -> Optional[Clustering]:
    n = len(order)
    # a segment [i, h] has every pairwise distance within r iff every
    # h' in (i, h] reaches i leftwards
    a, _ = _reach(D, r)
    segments: list[list[int]] = []
    i = 0
    while i < n:
        if len(segments) == k:
            return None
        cut = np.flatnonzero(a[i + 1 :] > i)
        h = i + int(cut[0]) if len(cut) else n - 1
        segments.append(order[i : h + 1])
        i = h + 1
    return clustering(segments, None, DISJOINT)


def line_center_nondisjoint(inst: Instance, r: float) -> Optional[Clustering]:
    """Minimum-count cover of a path by radius-r center stretches.

    Greedy sweep: cover the first uncovered position with the candidate
    center reaching farthest right; clusters are the contiguous stretch
    from the center (or the first uncovered position, if further left)
    to that candidate's right reach.  Returns None when more than k
    clusters are needed.  Exact for the non-disjoint center objective,
    also for non-metric distances.
    """
    return _center_sweep(*_path_matrix(inst), inst.k, r)


def line_diameter(inst: Instance, r: float) -> Optional[Clustering]:
    """Minimum number of contiguous segments with all pairwise distances
    at most r.  Greedy left-to-right cut; exact for both the disjoint and
    the non-disjoint problem, also for non-metric distances."""
    return _diameter_sweep(*_path_matrix(inst), inst.k, r)


def _solve_line(
    inst: Instance, sweep: Callable, objective: str, algorithm: str
) -> tuple[SolveReport, Clustering]:
    order, D = _path_matrix(inst)
    found = binary_search_min_feasible(
        candidate_radii(inst), lambda r: sweep(order, D, inst.k, r)
    )
    assert found is not None  # a path is connected, one cluster always works
    r, result = found
    report = make_report(inst, result, objective, algorithm=algorithm, bound=r)
    return report, result


def solve_line_center_nondisjoint(inst: Instance) -> tuple[SolveReport, Clustering]:
    return _solve_line(inst, _center_sweep, CENTER, "line-center")


def solve_line_diameter(inst: Instance) -> tuple[SolveReport, Clustering]:
    return _solve_line(inst, _diameter_sweep, DIAMETER, "line-diameter")


# ---------------------------------------------------------------------------
# tree structure shared by the DP and the assignment algorithm

#: A height level with at least this many nodes is handled as one batch,
#: a smaller one node by node with slices.  A one-node level is slower as
#: a batch.  At a cut-off of 2 (11 alternating rounds, shared 2-vCPU VM),
#: fills were as fast within noise: 2.52 against 2.50 ms on 400-point
#: random trees, 0.288 against 0.291 ms on 32-46-point lp MSTs.  The
#: context was slower on the MSTs, 0.73 against 0.61 ms in the median
#: and in 10 of 11 rounds; their two-node levels are 17 of 136.
_BATCH = 3


@dataclass
class _Level:
    """The nodes of one subtree height, with the flat indices that handle
    them as one batch.  No node of a level lies in another's subtree, so
    their subtrees are disjoint and their rows independent.

    ``nodes`` runs by child count, descending, so the nodes that have a
    j-th child, ``kids[j]``, come first.  ``rows`` holds the flat index
    a*n + b of each node a and each b in its subtree [a, out[a]), node
    after node, each node's run opening with its diagonal at ``starts``;
    ``frows`` holds the same pairs in the level's own gathered rows.
    ``inner`` picks the entries with b > a, and ``below`` holds c*n + b
    for each of them, c the child of a whose subtree holds b.
    """

    nodes: np.ndarray
    parents: np.ndarray
    kids: list[np.ndarray]
    rows: np.ndarray
    frows: np.ndarray
    starts: np.ndarray
    inner: np.ndarray
    below: np.ndarray


def _level(nodes: np.ndarray, parent: np.ndarray, nkids: np.ndarray, out: np.ndarray) -> _Level:
    n = len(out)
    nodes = nodes[np.argsort(-nkids[nodes], kind="stable")]
    counts = nkids[nodes]
    # above the leaves every node has a child: the first follows it in
    # pre-order, and each next one starts where the one before it ends
    kids = [nodes + 1] if counts[0] else []
    for j in range(1, counts[0]):
        kids.append(out[kids[-1][: np.count_nonzero(counts > j)]])
    size = out[nodes] - nodes
    starts = np.cumsum(size) - size
    b = np.arange(size.sum()) - np.repeat(starts - nodes, size)
    rows = np.repeat(nodes * n, size) + b
    frows = np.repeat(np.arange(len(nodes)) * n, size) + b
    inner = np.ones(len(b), dtype=bool)
    inner[starts] = False
    inner = np.flatnonzero(inner)
    # each node's children, in order, cover the rest of its run
    grid = np.full((len(nodes), len(kids)), -1)
    for j, c in enumerate(kids):
        grid[: len(c), j] = c
    sub = grid[grid >= 0]
    below = np.repeat(sub * n, out[sub] - sub) + b[inner]
    return _Level(nodes, parent[nodes], kids, rows, frows, starts, inner, below)


@dataclass
class _TreeContext:
    """Tree rooted at point 0, relabeled by DFS pre-order position.

    In position space node index == its pre-order position, every
    subtree is the contiguous range [v, out[v]), and children have
    larger positions than their parents.  ``levels`` groups the nodes by
    subtree height, leaves first: each a ``_Level`` batch, or a list of
    nodes taken one by one.
    """

    nodes: list[int]  # position -> original id
    children: list[list[int]]
    out: list[int]
    parent: list[int]  # -1 at the root
    # dprime[u, v] = max_{w on path u->v} dist[u, w], held column by
    # column, so that dprime.T[a], every center's reach to a, is one
    # contiguous row
    dprime: np.ndarray
    levels: tuple[_Level | list[int], ...] = ()


def _tree_context(inst: Instance) -> _TreeContext:
    tree = inst.tree
    if tree is None:
        raise AlgorithmPreconditionError("connectivity graph is not a tree")
    n = inst.n
    nodes = list(tree.order)
    pos = [0] * n
    for i, v in enumerate(nodes):
        pos[v] = i
    parent = [-1] + [pos[tree.parent[v]] for v in nodes[1:]]
    # pre-order visits the smaller neighbour first, so each child list
    # comes out ascending
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    out = [0] * n
    height = [0] * n
    for v in range(n - 1, -1, -1):
        out[v] = out[children[v][-1]] if children[v] else v + 1
        p = parent[v]
        if p >= 0 and height[p] <= height[v]:
            height[p] = height[v] + 1
    parent_a, out_a = np.array(parent), np.array(out)
    nkids = np.bincount(parent_a[1:], minlength=n)
    by_height: list[list[int]] = [[] for _ in range(height[0] + 1)]  # the root is highest
    for v in range(n):
        by_height[height[v]].append(v)
    levels = tuple(
        _level(np.array(g), parent_a, nkids, out_a) if len(g) >= _BATCH else g for g in by_height
    )
    ctx = _TreeContext(nodes, children, out, parent, inst.dist[np.ix_(nodes, nodes)], levels)
    ctx.dprime = _fill_dprime(ctx)
    return ctx


def _fill_dprime(ctx: _TreeContext) -> np.ndarray:
    """``dprime`` from ``ctx.dprime`` holding the metric permuted into
    positions, which it overwrites, one height level at a time.

    host[v, u] = dprime[u, v] starts as the metric, and each entry is
    raised once: inside v's subtree bottom-up, from the child whose
    subtree holds u, and outside it top-down, from v's parent.
    """
    children, out, parent = ctx.children, ctx.out, ctx.parent
    host = ctx.dprime
    flat = host.reshape(-1)
    for level in ctx.levels[1:]:  # leaves have nothing below
        if isinstance(level, _Level):
            at = level.rows[level.inner]
            flat[at] = np.maximum(flat[level.below], flat[at])
            continue
        for v in level:
            for c in children[v]:
                s = slice(c, out[c])
                np.maximum(host[c, s], host[v, s], out=host[v, s])
    for level in reversed(ctx.levels[:-1]):  # the root, alone on top, has no parent
        if isinstance(level, _Level):
            keep = flat[level.rows]
            host[level.nodes] = np.maximum(host[level.parents], host[level.nodes])
            flat[level.rows] = keep
            continue
        for v in level:
            p, e = parent[v], out[v]
            np.maximum(host[p, :v], host[v, :v], out=host[v, :v])
            np.maximum(host[p, e:], host[v, e:], out=host[v, e:])
    return host.T


def _tree_tables(
    ctx: _TreeContext, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fill the subtree DP tables for radius r (everything in positions).

    I[a, b] (b inside subtree a): minimum clusters for the subtree when a
    is assigned to center b.  F-with-zeros rows Fz[a, b] (b outside):
    minimum clusters when a's parent is assigned to b; entries inside
    the subtree are zeroed so that child rows can be summed blindly.

    Counts are whole numbers up to n, or inf, so float32 holds them
    exactly, and adding ``miss`` (0 where the host is feasible, inf where
    not) masks them exactly.  The rows are filled one height level at a
    time, leaves first: a batch level gathers its children's rows slot by
    slot and its subtree entries by flat index; a small level goes node
    by node, each row written in place over its subtree only.
    """
    n = len(ctx.nodes)
    out = ctx.out
    feas = dist_leq_arr(ctx.dprime, r)
    miss = np.where(feas.T, np.float32(0.0), np.float32(np.inf))  # miss[a, b]
    I = np.full((n, n), np.inf, dtype=np.float32)
    Fz = np.zeros((n, n), dtype=np.float32)
    Ia = np.zeros(n, dtype=np.float32)
    flat = I.reshape(-1)
    for level in ctx.levels:
        if isinstance(level, _Level):
            # f = S + miss[a] per node a, where S sums the children's Fz rows
            if level.kids:
                f = Fz[level.kids[0]]
                for kids in level.kids[1:]:
                    f[: len(kids)] += Fz[kids]
                f += miss[level.nodes]
            else:
                f = miss[level.nodes]
            fflat = f.reshape(-1)
            vals = fflat[level.frows]
            vals[level.inner] += flat[level.below]
            vals[level.starts] += 1.0
            flat[level.rows] = vals
            Ia[level.nodes] = ia = np.minimum.reduceat(vals, level.starts)
            np.minimum(f, ia[:, None], out=f)
            fflat[level.frows] = 0.0
            Fz[level.nodes] = f
            continue
        for a in level:
            children = ctx.children[a]
            f = Fz[a]
            if children:
                np.add(Fz[children[0]], miss[a], out=f)
                for c in children[1:]:
                    f += Fz[c]
            else:
                f[:] = miss[a]
            row = I[a]
            row[a] = 1.0 + f[a]
            for c in children:
                np.add(I[c, c : out[c]], f[c : out[c]], out=row[c : out[c]])
            Ia[a] = ia = np.minimum.reduce(row[a : out[a]])
            np.minimum(f, ia, out=f)
            f[a : out[a]] = 0.0
    return I, Fz, Ia, feas


def _reconstruct(
    ctx: _TreeContext,
    I: np.ndarray,
    Fz: np.ndarray,
    Ia: np.ndarray,
    feas: np.ndarray,
) -> dict[int, int]:
    """Replay the recurrence choices; returns position -> center position."""
    assign: dict[int, int] = {}
    root_b = int(np.argmin(I[0, 0 : ctx.out[0]]))
    stack: list[tuple[str, int, int]] = [("I", 0, root_b)]
    while stack:
        kind, a, b = stack.pop()
        if kind == "I":
            assign[a] = b
            if a == b:
                for c in ctx.children[a]:
                    stack.append(("F", c, a))
            else:
                cb = next(c for c in ctx.children[a] if c <= b < ctx.out[c])
                stack.append(("I", cb, b))
                for c in ctx.children[a]:
                    if c != cb:
                        stack.append(("F", c, b))
        else:
            s_ab = sum(Fz[c][b] for c in ctx.children[a])
            if feas[b, a] and s_ab <= Ia[a]:
                assign[a] = b
                for c in ctx.children[a]:
                    stack.append(("F", c, b))
            else:
                own = int(np.argmin(I[a, a : ctx.out[a]])) + a
                stack.append(("I", a, own))
    return assign


def _path_count(D: np.ndarray, r: float) -> float:
    """Minimum number of disjoint clusters of radius <= r on a path whose
    permuted distance matrix is D, or inf when none exists.

    A cluster is an interval [i, h] around its center c, feasible iff
    a[c] <= i and h <= b[c] for (a, b) = ``_reach(D, r)``.  With f[i]
    the count for the first i positions, m[c] = min f[a[c]..c] and
    f[h+1] = 1 + min{m[c] : c <= h <= b[c]}; equal to ``_tree_tables``'
    root count on the path, without the triangle inequality.  The range
    minima come from a stack of f's suffix minima, the outer minimum
    from a heap whose entries expire past b[c]: O(n log n) after
    ``_reach``.
    """
    if not dist_leq(0.0, r):  # no point can host even itself
        return math.inf
    a, b = (x.tolist() for x in _reach(D, r))
    f = [0]
    low = [0]  # positions of f's suffix minima, ascending in position and value
    heap: list[tuple[int, int]] = []  # (m[c], b[c])
    for h in range(len(a)):
        heapq.heappush(heap, (f[low[bisect_left(low, a[h])]], b[h]))
        while heap[0][1] < h:
            heapq.heappop(heap)
        fh = heap[0][0] + 1
        while low and f[low[-1]] >= fh:
            low.pop()
        low.append(len(f))
        f.append(fh)
    return f[-1]


def tree_dp_solve(inst: Instance) -> tuple[SolveReport, Clustering]:
    """Exact disjoint connected k-center on trees via binary search over
    the pairwise distances plus the subtree DP.

    On a path the probes only count (``_path_count``), and the tables are
    filled once, at the radius found, which is the last feasible probe
    the table search would make: the clustering is the same.
    """
    ctx = _tree_context(inst)
    path = inst.tree.path is not None
    if path:
        _, D = _path_matrix(inst)

        def probe(r: float) -> Optional[bool]:
            return True if _path_count(D, r) <= inst.k else None

    else:

        def probe(r: float) -> Optional[tuple[np.ndarray, ...]]:
            tables = _tree_tables(ctx, r)
            return tables if tables[2][0] <= inst.k else None

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    assert found is not None  # a tree is connected, one cluster always works
    r, tables = found
    I, Fz, Ia, feas = _tree_tables(ctx, r) if path else tables
    assign = _reconstruct(ctx, I, Fz, Ia, feas)
    by_center: dict[int, set[int]] = {}
    for a, b in assign.items():
        by_center.setdefault(b, set()).add(ctx.nodes[a])
    if len(by_center) != int(Ia[0]):
        raise RuntimeError("reconstruction disagrees with the DP count")
    centers = sorted(by_center, key=lambda b: ctx.nodes[b])
    result = clustering(
        [by_center[b] for b in centers], [ctx.nodes[b] for b in centers], DISJOINT
    )
    report = make_report(
        inst, result, CENTER, "tree-dp", bound=clustering_cost(inst, result, CENTER)
    )
    return report, result


# ---------------------------------------------------------------------------
# assignment with fixed centers on trees


@dataclass
class _Forest:
    """The radius-independent part of ``tree_assignment``, built once per
    solve: the components of the tree minus its centers, each as its DFS
    pre-order from its smallest point, and each with ``via``, the map from
    the column of every center it touches to the one point that center
    hangs from (a center touches a component at most once in a tree).
    Every component touches a center, since the tree is connected.
    """

    centers: list[int]  # sorted ids
    dist: np.ndarray  # inst.dist[:, centers]
    parent: list[int]  # parent inside the component, -1 at its root
    hang: list[list[int]]  # hang[v]: columns of the centers adjacent to v
    components: list[tuple[list[int], dict[int, int]]]  # (pre-order, via)


def _tree_forest(inst: Instance, C: Sequence[int]) -> _Forest:
    C = center_set(C, inst.n)
    if inst.tree is None:
        raise AlgorithmPreconditionError("connectivity graph is not a tree")

    col = {c: j for j, c in enumerate(C)}
    parent = [-1] * inst.n
    hang: list[list[int]] = [[] for _ in range(inst.n)]
    seen = [v in col for v in range(inst.n)]
    components: list[tuple[list[int], dict[int, int]]] = []
    for root in range(inst.n):
        if seen[root]:
            continue
        seen[root] = True
        order: list[int] = []
        via: dict[int, int] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in reversed(inst.adj[v]):  # adjacency lists are ascending
                if u in col:
                    hang[v].append(col[u])
                    via[col[u]] = v
                elif not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
        components.append((order, via))
    return _Forest(C, inst.dist[:, C], parent, hang, components)


def _assign_forest(forest: _Forest, r: float) -> Optional[Clustering]:
    """Per component, one bottom-up pass collecting the columns of the
    centers each point can reach through its subtree, folding a point
    that reaches none into its parent's need, and one top-down pass
    assigning along the chosen center paths."""
    ok = dist_leq_arr(forest.dist, r).tolist()  # ok[x][j]: x within r of centers[j]
    parent, hang = forest.parent, forest.hang
    n = len(parent)
    # lists stand in for sets: a need list merged into its parent's is
    # disjoint from it, and the reach lists of siblings are disjoint;
    # reach[v] collects its children's reach lists until v's own turn
    need = [[v] for v in range(n)]
    reach: list[list[int]] = [[] for _ in range(n)]
    side = [-1] * n  # the column each non-center is assigned to
    for order, via in forest.components:
        for v in reversed(order):
            nv = need[v]
            reach[v] = rv = [j for j in hang[v] + reach[v] if all(ok[x][j] for x in nv)]
            p = parent[v]
            if p < 0:
                if not rv:
                    return None
            elif rv:
                reach[p] += rv
            else:
                need[p] += nv

        for v in order:
            if side[v] >= 0:
                continue
            if not reach[v]:
                raise RuntimeError("fold chain left an unassigned vertex")
            j = min(reach[v])
            x = via[j]
            while True:
                for y in need[x]:
                    side[y] = j
                if x == v:
                    break
                x = parent[x]
    blocks = [{c} for c in forest.centers]
    for v, j in enumerate(side):
        if j >= 0:
            blocks[j].add(v)
    return clustering(blocks, forest.centers, DISJOINT)


def tree_assignment(
    inst: Instance, C: Sequence[int], r: float
) -> Optional[Clustering]:
    """Connected disjoint assignment of all points to the fixed centers
    with radius at most r, or None when impossible.

    Removing the centers leaves components that are solved
    independently: each by one bottom-up pass collecting the centers its
    points can reach and one top-down pass assigning along the chosen
    center paths.
    """
    return _assign_forest(_tree_forest(inst, C), r)


def solve_tree_assignment(
    inst: Instance, C: Sequence[int]
) -> tuple[SolveReport, Clustering]:
    """Smallest radius at which the fixed centers, at most k of them,
    admit a connected disjoint assignment on the tree."""
    forest = _tree_forest(inst, center_set(C, inst.n, inst.k))
    cands = dedup_radii(forest.dist, leq=True)
    found = binary_search_min_feasible(cands, lambda r: _assign_forest(forest, r))
    # the tree is connected and has a center, so at the largest candidate,
    # every point's distance to every center, each component is served
    assert found is not None, "the largest candidate serves every point"
    r, result = found
    report = make_report(inst, result, CENTER, algorithm="tree-assign", bound=r)
    return report, result
