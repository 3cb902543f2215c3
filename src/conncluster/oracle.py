"""Brute-force exact solvers for small instances.

These are the ground truth used by the test suites: a min-max partition
DP for the disjoint problem, a smallest cover by maximal connected
low-cost sets for the non-disjoint problem under either objective, and
a pruned assignment search for fixed center sets.  The partition DP and
the non-disjoint cover read one table of the connected point subsets and
their costs; no routine here runs the algorithms the oracles check.
Every routine refuses inputs beyond its limits instead of running
unboundedly.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from .model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    Clustering,
    InfeasibleError,
    Instance,
    bfs_parents,
    binary_search_min_feasible,
    candidate_radii,
    center_set,
    clustering,
    dedup_radii,
    dist_leq,
    dist_leq_arr,
)


class OracleLimitError(RuntimeError):
    """Input exceeds the brute-force budget."""


#: Largest n the subset-table oracles enumerate (2^n bitmasks).
MAX_N_PARTITION = 12
#: Seconds one partition DP or one assignment search may run.
TIME_BUDGET_S = 120.0
#: Search nodes one fixed-center assignment probe may visit.
MAX_ASSIGNMENT_NODES = 2_000_000


# ---------------------------------------------------------------------------
# subset table: every point set by bitmask (bit i is point i)


def _subset_table(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For every point set, indexed by bitmask (bit i is point i): whether
    it induces a connected subgraph, its diameter, its radius (the least,
    over c in the set, of the largest distance to c) and the smallest
    point id that attains that radius."""
    n = inst.n
    ids = np.arange(1 << n)
    # farthest[c, s]: largest d(u, c) over u in s; nbrs[s]: neighbours of s
    farthest = np.zeros((n, 1 << n))
    nbrs = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        farthest[:, 1 << b : 2 << b] = np.maximum(farthest[:, : 1 << b], inst.dist[b][:, None])
        nbrs[1 << b : 2 << b] = nbrs[: 1 << b] | sum(1 << u for u in inst.adj[b])
    reach = ids & -ids
    for _ in range(n - 1):
        reach = ids & (reach | nbrs[reach])
    inside = (ids >> np.arange(n)[:, None]) & 1 == 1
    own = np.where(inside, farthest, np.inf)
    center = own.argmin(axis=0)
    diameter = np.where(inside, farthest, 0.0).max(axis=0)
    return (reach == ids) & (ids > 0), diameter, own[center, ids], center


def _strictly_inside(marked: np.ndarray) -> np.ndarray:
    """Per bitmask: whether some strictly larger marked set contains it.

    Two superset-OR passes over the table: the first marks every set
    inside a marked one (itself included), the second every set one
    point short of such a set.  Viewing the table as (-1, 2, 2^b) puts
    the sets without point b at [:, 0] and their extensions by b at
    [:, 1]."""
    n = marked.size.bit_length() - 1
    inside = marked.copy()
    for b in range(n):
        view = inside.reshape(-1, 2, 1 << b)
        view[:, 0] |= view[:, 1]
    strict = np.zeros_like(marked)
    for b in range(n):
        strict.reshape(-1, 2, 1 << b)[:, 0] |= inside.reshape(-1, 2, 1 << b)[:, 1]
    return strict


def _points(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# ---------------------------------------------------------------------------
# disjoint optimum via a min-max partition DP


def _splits(connected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (mask, s) with s a connected subset of mask holding the
    lowest point of mask, ordered by mask and then by s."""
    n = connected.size.bit_length() - 1
    masks, parts = [], []
    for low in range(n):
        m = s = np.array([1 << low])
        for b in range(low + 1, n):  # point b: outside m, in m only, or in s
            m = np.concatenate([m, m | 1 << b, m | 1 << b])
            s = np.concatenate([s, s, s | 1 << b])
        keep = connected[s]
        masks.append(m[keep])
        parts.append(s[keep])
    order = np.lexsort((np.concatenate(parts), np.concatenate(masks)))
    return np.concatenate(masks)[order], np.concatenate(parts)[order]


def exact_disjoint(inst: Instance, objective: str) -> tuple[float, Clustering]:
    """Exact disjoint optimum by a min-max DP over connected set partitions.

    ``best[j][mask]`` is the least cost of splitting ``mask`` into at most
    j connected clusters, where the first cluster holds the lowest point
    of ``mask``.  Among optimal partitions the witness is the one whose
    clusters, listed by least point, have the smallest ascending point
    lists in lexicographic order.
    """
    if inst.n > MAX_N_PARTITION:
        raise OracleLimitError(
            f"n={inst.n} exceeds partition-enumeration limit {MAX_N_PARTITION}"
        )
    deadline = time.monotonic() + TIME_BUDGET_S
    connected, diameter, radius, center = _subset_table(inst)
    cost = diameter if objective == DIAMETER else radius
    masks, parts = _splits(connected)
    rests = masks ^ parts
    full = (1 << inst.n) - 1
    starts = np.searchsorted(masks, np.arange(1, full + 2))
    best = [np.full(full + 1, np.inf)]
    best[0][0] = 0.0
    for _ in range(inst.k):
        if time.monotonic() > deadline:
            raise OracleLimitError("partition enumeration exceeded time budget")
        layer = np.zeros(full + 1)
        layer[1:] = np.minimum.reduceat(np.maximum(cost[parts], best[-1][rests]), starts[:-1])
        best.append(layer)
    value = float(best[-1][full])
    if value == np.inf:
        raise InfeasibleError("connectivity graph has more components than k")
    blocks: list[int] = []
    left = full
    while left:
        at = slice(starts[left - 1], starts[left])
        ok = (cost[parts[at]] <= value) & (best[inst.k - len(blocks) - 1][rests[at]] <= value)
        blocks.append(min(parts[at][ok].tolist(), key=_points))
        left ^= blocks[-1]
    centers = [center[b] for b in blocks] if objective == CENTER else None
    return value, clustering(map(_points, blocks), centers, DISJOINT)


# ---------------------------------------------------------------------------
# non-disjoint optima


def _nondisjoint(inst: Instance, objective: str) -> tuple[float, Clustering]:
    """Exact non-disjoint optimum plus an optimal clustering, via exact set
    cover over the maximal connected subsets whose cost fits the radius.

    Under the center objective a connected set of radius at most r about
    a member c lies inside the cluster grown from c at r, which is itself
    such a set, so the maximal sets are the maximal grown clusters."""
    if inst.n > MAX_N_PARTITION:
        raise OracleLimitError(f"n={inst.n} exceeds enumeration limit {MAX_N_PARTITION}")
    if inst.components > inst.k:
        raise InfeasibleError("more connectivity components than the budget")
    n = inst.n
    full = (1 << n) - 1
    connected, diameter, radius, center = _subset_table(inst)
    cost = diameter if objective == DIAMETER else radius

    def probe(r: float) -> Optional[list[int]]:
        feasible = connected & dist_leq_arr(cost, r)
        maximal = np.flatnonzero(feasible & ~_strictly_inside(feasible)).tolist()
        memo: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}

        def cover(uncovered: int) -> tuple[int, tuple[int, ...]]:
            if uncovered in memo:
                return memo[uncovered]
            low = (uncovered & -uncovered).bit_length() - 1
            best = (n + 1, ())
            for m in maximal:
                if m >> low & 1:
                    sub_count, sub_sets = cover(uncovered & ~m)
                    if 1 + sub_count < best[0]:
                        best = (1 + sub_count, (m,) + sub_sets)
            memo[uncovered] = best
            return best

        count, chosen = cover(full)
        return list(chosen) if count <= inst.k else None

    r, chosen = binary_search_min_feasible(candidate_radii(inst), probe)
    centers = [center[m] for m in chosen] if objective == CENTER else None
    return r, clustering(map(_points, chosen), centers, NON_DISJOINT)


def exact_nondisjoint_center_with_witness(inst: Instance) -> tuple[float, Clustering]:
    """Exact non-disjoint k-center optimum plus an optimal clustering."""
    return _nondisjoint(inst, CENTER)


def exact_nondisjoint_center(inst: Instance) -> float:
    """Exact non-disjoint k-center optimum (value only)."""
    return _nondisjoint(inst, CENTER)[0]


def exact_nondisjoint_diameter_with_witness(inst: Instance) -> tuple[float, Clustering]:
    """Exact non-disjoint k-diameter optimum plus an optimal clustering."""
    return _nondisjoint(inst, DIAMETER)


def exact_nondisjoint_diameter(inst: Instance) -> float:
    """Exact non-disjoint k-diameter optimum (value only)."""
    return _nondisjoint(inst, DIAMETER)[0]


# ---------------------------------------------------------------------------
# assignment with fixed centers


def _assignment_dfs(
    inst: Instance,
    C: list[int],
    r: float,
    objective: str,
    budget: list[int],
    deadline: float,
) -> Optional[dict[int, int]]:
    """Search a connected disjoint assignment of all points to the fixed
    centers with cost <= r.  Returns point -> center, or None."""
    n = inst.n
    cset = set(C)
    side: dict[int, int] = {c: c for c in C}
    allowed: dict[int, list[int]] = {}
    for v in range(n):
        if v in cset:
            continue
        opts = [c for c in C if dist_leq(inst.d(v, c), r)]
        if not opts:
            return None
        allowed[v] = opts
    order = sorted(allowed, key=lambda v: (len(allowed[v]), v))

    def locally_dead(v: int) -> bool:
        # a placed non-center must keep a same-side or unassigned neighbor
        s = side[v]
        if v == s:
            return False
        return all(u in side and side[u] != s for u in inst.adj[v])

    def feasible_full() -> bool:
        for c in C:
            block = frozenset(v for v, s in side.items() if s == c)
            if len(bfs_parents(inst, block, [c])) != len(block):
                return False
        return True

    def rec(i: int) -> bool:
        budget[0] -= 1
        if budget[0] <= 0:
            raise OracleLimitError("assignment search exceeded node budget")
        if budget[0] % 4096 == 0 and time.monotonic() > deadline:
            raise OracleLimitError("assignment search exceeded time budget")
        if i == len(order):
            return feasible_full()
        v = order[i]
        for c in allowed[v]:
            if objective == DIAMETER:
                if not all(
                    dist_leq(inst.d(v, w), r) for w, s in side.items() if s == c
                ):
                    continue
            side[v] = c
            dead = locally_dead(v) or any(
                u in side and locally_dead(u) for u in inst.adj[v]
            )
            if not dead and rec(i + 1):
                return True
            del side[v]
        return False

    if rec(0):
        return dict(side)
    return None


def exact_assignment(
    inst: Instance,
    C: Sequence[int],
    objective: str,
) -> tuple[float, Clustering]:
    """Exact optimum over connected disjoint assignments to fixed centers.

    Raises ``InfeasibleError`` when no feasible assignment exists at any
    radius (some component of the connectivity graph has no center).
    """
    C = center_set(C, inst.n)
    if len(bfs_parents(inst, range(inst.n), C)) != inst.n:  # a component has no center
        raise InfeasibleError("no feasible assignment for the given centers")
    if objective == CENTER:
        cands = dedup_radii(inst.dist[:, C], leq=True)
    else:
        cands = candidate_radii(inst)
    deadline = time.monotonic() + TIME_BUDGET_S

    def probe(r: float) -> Optional[dict[int, int]]:
        budget = [MAX_ASSIGNMENT_NODES]
        return _assignment_dfs(inst, C, r, objective, budget, deadline)

    # every component has a center, so at the largest candidate the
    # multi-source BFS assignment is one the search admits
    r, side = binary_search_min_feasible(cands, probe)
    blocks = {c: {c} for c in C}
    for v, c in side.items():
        blocks[c].add(v)
    result = clustering([blocks[c] for c in C], C, DISJOINT)
    return r, result

