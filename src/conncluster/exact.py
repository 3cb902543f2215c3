"""Optimal algorithms for line and tree connectivity graphs.

Lines admit greedy sweeps for both objectives; trees admit a dynamic
program over (subtree, assigned-center) pairs for the disjoint center
objective and a two-phase reachable-center algorithm when the centers
are fixed.  None of these need the triangle inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    Instance,
    SolveReport,
    binary_search_min_feasible,
    candidate_radii,
    clustering,
    clustering_cost,
    dedup_radii,
    dist_leq,
    dist_leq_arr,
    make_report,
    validate_clustering,  # unused here; perfbench/tracer.py wraps it in each solver module
)

# ---------------------------------------------------------------------------
# line graphs


def path_order(inst: Instance) -> list[int]:
    """Vertex order along the path, or raise if the graph is not a path.

    Starts from the smaller-id endpoint for determinism.
    """
    if inst.n == 1:
        if inst.edges:
            raise AlgorithmPreconditionError("single-point path must have no edges")
        return [0]
    degrees = [len(inst.adj[v]) for v in range(inst.n)]
    ends = [v for v in range(inst.n) if degrees[v] == 1]
    if len(inst.edges) != inst.n - 1 or len(ends) != 2 or any(d > 2 for d in degrees):
        raise AlgorithmPreconditionError("connectivity graph is not a path")
    order = [min(ends)]
    prev = -1
    while len(order) < inst.n:
        cur = order[-1]
        nxts = [u for u in inst.adj[cur] if u != prev]
        if len(nxts) != 1:
            raise AlgorithmPreconditionError("connectivity graph is not a path")
        prev = cur
        order.append(nxts[0])
    return order


@dataclass(frozen=True)
class LineReach:
    """Per position i: the leftmost/rightmost positions coverable together
    with i by a center placed at position i."""

    a: tuple[int, ...]
    b: tuple[int, ...]


def line_reach(inst: Instance, order: Sequence[int], r: float) -> LineReach:
    """Coverage intervals for every candidate center position: position j
    is coverable by center i iff d(v_j, v_i) <= r."""
    n = len(order)
    d = inst.dist
    a = []
    b = []
    for i in range(n):
        lo = i
        while lo - 1 >= 0 and dist_leq(float(d[order[lo - 1], order[i]]), r):
            lo -= 1
        hi = i
        while hi + 1 < n and dist_leq(float(d[order[hi + 1], order[i]]), r):
            hi += 1
        a.append(lo)
        b.append(hi)
    return LineReach(tuple(a), tuple(b))


def line_center_nondisjoint(inst: Instance, r: float) -> Optional[Clustering]:
    """Minimum-count cover of a path by radius-r center stretches.

    Greedy sweep: cover the first uncovered position with the candidate
    center reaching farthest right; clusters are the contiguous stretch
    from the center (or the first uncovered position, if further left)
    to that candidate's right reach.  Returns None when more than k
    clusters are needed.  Exact for the non-disjoint center objective,
    also for non-metric distances.
    """
    order = path_order(inst)
    reach = line_reach(inst, order, r)
    n = len(order)
    clusters: list[list[int]] = []
    centers: list[int] = []
    next_uncovered = 0
    while next_uncovered < n:
        u = next_uncovered
        candidates = [i for i in range(n) if reach.a[i] <= u <= reach.b[i]]
        i = max(candidates, key=lambda t: (reach.b[t], -t))
        lo = min(i, u)
        hi = reach.b[i]
        clusters.append([order[t] for t in range(lo, hi + 1)])
        centers.append(order[i])
        next_uncovered = hi + 1
    if len(clusters) > inst.k:
        return None
    return clustering(clusters, centers, NON_DISJOINT)


def line_diameter(inst: Instance, r: float) -> Optional[Clustering]:
    """Minimum number of contiguous segments with all pairwise distances
    at most r.  Greedy left-to-right cut; exact for both the disjoint and
    the non-disjoint problem, also for non-metric distances."""
    order = path_order(inst)
    n = len(order)
    d = inst.dist
    segments: list[list[int]] = []
    i = 0
    while i < n:
        h = i
        while h + 1 < n and all(
            dist_leq(float(d[order[h + 1], order[t]]), r) for t in range(i, h + 1)
        ):
            h += 1
        segments.append([order[t] for t in range(i, h + 1)])
        i = h + 1
    if len(segments) > inst.k:
        return None
    return clustering(segments, None, DISJOINT)


def solve_line_center_nondisjoint(inst: Instance) -> tuple[SolveReport, Clustering]:
    found = binary_search_min_feasible(
        candidate_radii(inst), lambda r: line_center_nondisjoint(inst, r)
    )
    assert found is not None  # a path is connected, one cluster always works
    r, result = found
    report = make_report(inst, result, CENTER, algorithm="line-center", bound=r)
    return report, result


def solve_line_diameter(inst: Instance) -> tuple[SolveReport, Clustering]:
    found = binary_search_min_feasible(
        candidate_radii(inst), lambda r: line_diameter(inst, r)
    )
    assert found is not None
    r, result = found
    report = make_report(inst, result, DIAMETER, algorithm="line-diameter", bound=r)
    return report, result


# ---------------------------------------------------------------------------
# tree structure shared by the DP and the assignment algorithm


@dataclass
class _TreeContext:
    """Tree rooted at point 0, relabeled by DFS pre-order position.

    In position space node index == its pre-order position, every
    subtree is the contiguous range [v, out[v]), and children have
    larger positions than their parents.
    """

    nodes: list[int]  # position -> original id
    parent: list[int]  # positions
    children: list[list[int]]
    out: list[int]
    dist: np.ndarray  # permuted metric
    dprime: np.ndarray  # dprime[u, v] = max_{w on path u->v} dist[u, w]


def is_tree(inst: Instance) -> bool:
    """Whether the connectivity graph is a tree: connected, n-1 edges."""
    return len(inst.edges) == inst.n - 1 and inst.is_connected()


def _tree_context(inst: Instance) -> _TreeContext:
    if not is_tree(inst):
        raise AlgorithmPreconditionError("connectivity graph is not a tree")
    n = inst.n
    pos_of: dict[int, int] = {}
    nodes: list[int] = []
    parent_orig: dict[int, int] = {0: -1}
    stack = [0]
    while stack:
        v = stack.pop()
        pos_of[v] = len(nodes)
        nodes.append(v)
        for u in sorted(inst.adj[v], reverse=True):
            if u not in parent_orig:
                parent_orig[u] = v
                stack.append(u)
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for v in nodes[1:]:
        pv, pp = pos_of[v], pos_of[parent_orig[v]]
        parent[pv] = pp
        children[pp].append(pv)
    for ch in children:
        ch.sort()
    out = [0] * n
    for v in range(n - 1, -1, -1):
        end = v + 1
        for c in children[v]:
            end = max(end, out[c])
        out[v] = end

    dp = inst.dist[np.ix_(nodes, nodes)].copy()
    dprime = np.zeros((n, n))
    for v in range(n - 1, -1, -1):  # rows inside the subtree, bottom-up
        for c in children[v]:
            cs, ce = c, out[c]
            dprime[cs:ce, v] = np.maximum(dprime[cs:ce, c], dp[cs:ce, v])
    for v in range(1, n):  # rows outside the subtree, top-down
        p = parent[v]
        s, e = v, out[v]
        dprime[:s, v] = np.maximum(dprime[:s, p], dp[:s, v])
        dprime[e:, v] = np.maximum(dprime[e:, p], dp[e:, v])
    return _TreeContext(nodes, parent, children, out, dp, dprime)


def path_max_table(inst: Instance) -> np.ndarray:
    """d'(u, v): the largest distance from u to any vertex on the tree
    path from u to v, for all ordered pairs (original ids)."""
    ctx = _tree_context(inst)
    n = inst.n
    out = np.zeros((n, n))
    idx = np.array(ctx.nodes)
    out[np.ix_(idx, idx)] = ctx.dprime
    return out


def _tree_tables(
    ctx: _TreeContext, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fill the subtree DP tables for radius r (everything in positions).

    I[a, b] (b inside subtree a): minimum clusters for the subtree when a
    is assigned to center b.  F-with-zeros rows Fz[a, b] (b outside):
    minimum clusters when a's parent is assigned to b; entries inside
    the subtree are zeroed so that child rows can be summed blindly.
    """
    n = len(ctx.nodes)
    feas = dist_leq_arr(ctx.dprime, r)  # feas[b, a]: center b can host a
    I = np.full((n, n), np.inf)
    Fz = np.zeros((n, n))
    Ia = np.zeros(n)
    for a in range(n - 1, -1, -1):
        s, e = a, ctx.out[a]
        if ctx.children[a]:
            S = Fz[ctx.children[a]].sum(axis=0)
        else:
            S = np.zeros(n)
        row = np.full(n, np.inf)
        row[a] = 1.0 + S[a]
        for c in ctx.children[a]:
            row[c : ctx.out[c]] = I[c, c : ctx.out[c]] + S[c : ctx.out[c]]
        row[~feas[:, a]] = np.inf
        I[a, s:e] = row[s:e]
        Ia[a] = row[s:e].min()
        f = np.where(feas[:, a], np.minimum(S, Ia[a]), Ia[a])
        f[s:e] = 0.0
        Fz[a] = f
    return I, Fz, Ia, feas


def tree_dp_count(inst: Instance, r: float) -> int:
    """Minimum number of disjoint connected clusters of radius <= r."""
    ctx = _tree_context(inst)
    _, _, Ia, _ = _tree_tables(ctx, r)
    return int(Ia[0])


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


def tree_dp_solve(inst: Instance) -> tuple[SolveReport, Clustering]:
    """Exact disjoint connected k-center on trees via binary search over
    the pairwise distances plus the subtree DP."""
    ctx = _tree_context(inst)

    def probe(r: float) -> Optional[float]:
        _, _, Ia, _ = _tree_tables(ctx, r)
        return float(Ia[0]) if Ia[0] <= inst.k else None

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    assert found is not None  # a tree is connected, one cluster always works
    r, count = found
    I, Fz, Ia, feas = _tree_tables(ctx, r)
    assign = _reconstruct(ctx, I, Fz, Ia, feas)
    by_center: dict[int, set[int]] = {}
    for a, b in assign.items():
        by_center.setdefault(b, set()).add(ctx.nodes[a])
    if len(by_center) != int(count):
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


def tree_assignment(
    inst: Instance, C: Sequence[int], r: float
) -> Optional[Clustering]:
    """Connected disjoint assignment of all points to the fixed centers
    with radius at most r, or None when impossible.

    Non-leaf centers are first split into per-neighbor leaf copies (the
    copies inherit the center's distances), which makes every subtree
    problem independent; each component is then solved by one bottom-up
    pass collecting reachable descendant centers and one top-down pass
    assigning along the chosen center paths.
    """
    if not is_tree(inst):
        raise AlgorithmPreconditionError("connectivity graph is not a tree")
    C = sorted(int(c) for c in C)
    if not C:
        raise AlgorithmPreconditionError("need at least one center")
    if len(set(C)) != len(C):
        raise AlgorithmPreconditionError("centers must be distinct")
    if not all(0 <= c < inst.n for c in C):
        raise AlgorithmPreconditionError("center ids out of range")
    if set(C) == set(range(inst.n)):
        return clustering([{c} for c in C], C, DISJOINT)

    # virtual forest: original ids 0..n-1, copies get fresh ids
    adj: dict[int, set[int]] = {v: set(inst.adj[v]) for v in range(inst.n)}
    orig: dict[int, int] = {v: v for v in range(inst.n)}
    is_center: dict[int, bool] = {v: v in set(C) for v in range(inst.n)}
    next_id = inst.n
    queue = [c for c in C]
    while queue:
        c = queue.pop()
        if len(adj[c]) < 2:
            continue
        for nb in sorted(adj[c]):
            copy = next_id
            next_id += 1
            orig[copy] = orig[c]
            is_center[copy] = True
            adj[copy] = {nb}
            adj[nb].discard(c)
            adj[nb].add(copy)
        del adj[c], is_center[c], orig[c]

    # split into components and solve each
    seen: set[int] = set()
    blocks: dict[int, set[int]] = {c: {c} for c in C}
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        side = _assign_component(inst, comp, adj, orig, is_center, r)
        if side is None:
            return None
        for v, c in side.items():
            blocks[orig[c]].add(orig[v])
    return clustering([blocks[c] for c in C], C, DISJOINT)


def _assign_component(
    inst: Instance,
    comp: set[int],
    adj: dict[int, set[int]],
    orig: dict[int, int],
    is_center: dict[int, bool],
    r: float,
) -> Optional[dict[int, int]]:
    centers = {v for v in comp if is_center[v]}
    if not centers:
        return None
    non_centers = comp - centers
    if not non_centers:
        return {v: v for v in comp}
    root = min(non_centers)  # all centers are leaves, so the root never is one

    parent: dict[int, int] = {root: -1}
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in sorted(adj[v], reverse=True):
            if u not in parent:
                parent[u] = v
                stack.append(u)
    post = list(reversed(order))
    children: dict[int, list[int]] = {v: [] for v in comp}
    for v in order[1:]:
        children[parent[v]].append(v)

    need: dict[int, set[int]] = {v: {v} for v in comp}
    reach: dict[int, set[int]] = {v: set() for v in comp}
    d = inst.dist
    for v in post:
        if is_center[v]:
            reach[v] = {v}
            continue
        for u in children[v]:
            for c in reach[u]:
                if all(dist_leq(float(d[orig[x], orig[c]]), r) for x in need[v]):
                    reach[v].add(c)
        if not reach[v]:
            if v == root:
                return None
            need[parent[v]] |= need[v]

    side: dict[int, int] = {}
    for v in reversed(post):
        if v in side:
            continue
        if not reach[v]:
            raise RuntimeError("fold chain left an unassigned vertex")
        c = min(reach[v], key=lambda t: (orig[t], t))
        path = [c]
        while path[-1] != v:
            path.append(parent[path[-1]])
        for x in path:
            for y in need[x]:
                side[y] = c
    return side


def solve_tree_assignment(
    inst: Instance, C: Sequence[int]
) -> tuple[SolveReport, Clustering]:
    """Smallest radius at which the fixed centers, at most k of them,
    admit a connected disjoint assignment on the tree."""
    C = sorted(int(c) for c in C)
    if len(C) > inst.k:
        raise AlgorithmPreconditionError(f"{len(C)} centers exceed the budget k={inst.k}")
    cands = dedup_radii(inst.dist[:, C], leq=True)
    found = binary_search_min_feasible(cands, lambda r: tree_assignment(inst, C, r))
    if found is None:
        raise InfeasibleError("the given centers cannot serve every point")
    r, result = found
    report = make_report(inst, result, CENTER, algorithm="tree-assign", bound=r)
    return report, result
