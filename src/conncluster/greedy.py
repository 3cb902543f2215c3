"""Bounded-radius cluster growth and the greedy non-disjoint covering.

The growth primitive collects everything reachable from a seed center
through vertices that stay within a distance budget of it; the covering
algorithm repeatedly grows such a cluster around an uncovered point.
With growth budget 2r (center) or r (diameter) this yields non-disjoint
2-approximations for both objectives.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    CENTER,
    NON_DISJOINT,
    Clustering,
    Instance,
    InfeasibleError,
    SolveReport,
    binary_search_min_feasible,
    candidate_radii,
    center_set,
    clustering,
    leq_bound,
    make_report,
    point_ids,
)


@dataclass(frozen=True)
class GreedyOutput:
    """Covering produced by the greedy algorithm.

    ``centers`` preserves selection order; every point of the instance
    lies in at least one ``clusters[c]`` and every member of a cluster
    is within ``radius_used`` of its center.
    """

    centers: tuple[int, ...]
    clusters: dict[int, frozenset[int]]
    radius_used: float

    def covered(self) -> set[int]:
        out: set[int] = set()
        for t in self.clusters.values():
            out |= t
        return out

    def as_clustering(self) -> Clustering:
        return clustering(
            [self.clusters[c] for c in self.centers], list(self.centers), NON_DISJOINT
        )


class _Walk:
    """A minimum-first walk from one center: the points it admitted, in
    admission order, each with its level, and the bound it ran to."""

    __slots__ = ("order", "levels", "top")

    def __init__(self, c: int) -> None:
        self.order = [c]
        self.levels = [-math.inf]  # the center belongs to every cluster
        self.top = -math.inf


def compute_cluster(
    inst: Instance, R: float, c: int, cache: Optional[dict[int, _Walk]] = None
) -> frozenset[int]:
    """Maximal set reachable from c via vertices within distance R of c.

    Every vertex on the connecting paths (including the endpoints) must
    satisfy d(., c) <= R, so the result induces a connected subgraph.

    The growth is a minimum-first ("bottleneck") walk.  It admits the
    points it can reach in order of d(c, u) and gives each the running
    maximum of the admitted distances, its level: the smallest, over
    connecting paths, of the largest d(c, .) on the path.  So the cluster
    is exactly the points of level at most ``leq_bound(R)``, ties and
    tolerance edges included, as only comparisons decide it.  ``cache``
    is a dict that one radius search creates and passes to every growth;
    it keeps each center's walk.  A bound at or below the one the walk
    ran to is answered by a prefix of its admission order; a larger bound
    resumes it.  Without a cache, the walk is thrown away.
    """
    if not (0 <= c < inst.n):
        raise ValueError(f"center {c} out of range")
    if not R >= 0:  # NaN too
        raise ValueError("growth radius must be nonnegative")
    bound = leq_bound(R)
    if cache is None:
        cache = {}
    walk = cache.get(c)
    if walk is None:
        walk = cache[c] = _Walk(c)
    elif bound <= walk.top:
        return frozenset(walk.order[: bisect_right(walk.levels, bound)])
    _resume(inst, c, bound, walk)
    return frozenset(walk.order)


def _resume(inst: Instance, c: int, bound: float, walk: _Walk) -> None:
    """Run the walk from c on to ``bound``, above ``walk.top``.

    The tolerant test runs once over c's row; entries are cleared for the
    points admitted so far and for each point as it is reached, so each
    scanned edge costs one list lookup.  A reached point whose distance
    from c is at most the current level has that level as its own and is
    admitted depth-first.  Any other waits in the bucket of its distance;
    a heap holds the distances of the waiting buckets.  The buckets start
    from the admitted points' neighbours that now fit.  ``left`` counts
    the points within the bound not reached yet: at 0 no list can add a
    point, so none is read, and on a dense graph most are not.
    """
    row = inst.dist[c]
    within = row <= bound
    ok = within.tolist()
    key = memoryview(row)  # a Python float per point read, and no copy
    order, levels = walk.order, walk.levels
    for v in order:
        ok[v] = False
    # every admitted point is within the bound, its center too
    left = int(np.count_nonzero(within)) - len(order)
    adj = inst.adj
    buckets: dict[float, list[int]] = {}
    for v in order:
        if not left:
            break
        for u in adj[v]:
            if ok[u]:
                ok[u] = False
                left -= 1
                buckets.setdefault(key[u], []).append(u)
    heap = list(buckets)
    heapq.heapify(heap)
    level = levels[-1]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d = pop(heap)
        if d > level:
            level = d
        stack = buckets.pop(d)
        while stack:
            v = stack.pop()
            order.append(v)
            levels.append(level)
            if not left:
                continue
            for u in adj[v]:
                if ok[u]:
                    ok[u] = False
                    left -= 1
                    d = key[u]
                    if d <= level:
                        stack.append(u)
                    elif d in buckets:
                        buckets[d].append(u)
                    else:
                        buckets[d] = [u]
                        push(heap, d)
    walk.top = bound


_OFFERS_PER_SLICE = 1 << 20  # bounds a step's arrays, whatever it settles


def bottleneck_levels(inst: Instance) -> np.ndarray:
    """The n x n matrix of levels: entry (c, u) is the level the walk
    from c gives u (``compute_cluster``), -inf at c and inf off c's
    component, so row c's cluster at R is ``levels[c] <= leq_bound(R)``.

    All n walks in lockstep over (center, point) pairs: each step, every
    row settles its waiting pairs of least level and reads their lists in
    the CSR form of ``inst.adj``, at most ``_OFFERS_PER_SLICE`` offers a
    slice.  So a pair's first offer is its level and it is reached once,
    and, as in the walk, a row with every point reached reads no more.
    """
    n = inst.n
    deg = np.fromiter(map(len, inst.adj), dtype=np.intp, count=n)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    indices = np.fromiter(itertools.chain.from_iterable(inst.adj), dtype=np.intp)
    dist = inst.dist.ravel()
    per_slice = max(1, _OFFERS_PER_SLICE // max(1, int(deg.max())))
    levels = np.full(n * n, math.inf)  # inf: not reached yet
    front = np.arange(n) * (n + 1)  # flat index c * n + u of each waiting pair
    levels[front] = -math.inf  # the center belongs to every cluster
    unreached = np.full(n, n - 1)
    stamp = np.empty(n * n, dtype=np.intp)
    while True:
        front = front[unreached[front // n] > 0]
        if not front.size:
            return levels.reshape(n, n)
        rows, wait = front // n, levels[front]
        low = np.full(n, math.inf)
        np.minimum.at(low, rows, wait)
        now = wait == low[rows]
        settle, reached = front[now], [front[~now]]
        for lo in range(0, settle.size, per_slice):
            at = settle[lo : lo + per_slice]
            v = at % n
            reps = deg[v]
            ends = np.cumsum(reps)
            # the position in ``indices`` of each neighbour of each settled point
            pos = np.arange(int(ends[-1])) + np.repeat(indptr[v] - (ends - reps), reps)
            to = np.repeat(at - v, reps) + indices[pos]
            to = to[levels[to] == math.inf]
            stamp[to] = first = np.arange(to.size)
            to = to[stamp[to] == first]
            levels[to] = np.maximum(low[to // n], dist[to])
            unreached -= np.bincount(to // n, minlength=n)
            reached.append(to)
        front = np.concatenate(reached)


def greedy_clustering(
    inst: Instance,
    r: float,
    *,
    rng: Optional[random.Random] = None,
    max_centers: Optional[int] = None,
    cache: Optional[dict[int, _Walk]] = None,
) -> Optional[GreedyOutput]:
    """Cover all points by clusters grown around uncovered seeds.

    Seeds are the smallest-id uncovered point, or a random uncovered
    point when ``rng`` is given.  When ``max_centers`` is set, returns
    None as soon as more centers would be needed (probe early-exit).
    ``cache`` is the radius search's growth cache (``compute_cluster``).
    """
    covered = bytearray(inst.n)
    centers: list[int] = []
    clusters: dict[int, frozenset[int]] = {}
    c = 0
    while True:
        if rng is None:
            c = covered.find(0, c)  # the smallest uncovered id never decreases
            if c < 0:
                break
        else:
            uncovered = [v for v, x in enumerate(covered) if not x]
            if not uncovered:
                break
            c = rng.choice(uncovered)
        if max_centers is not None and len(centers) >= max_centers:
            return None
        # positional: a wrapper rebound at this name may take no keywords
        t = compute_cluster(inst, r, c, cache)
        centers.append(c)
        clusters[c] = t
        for v in t:
            covered[v] = 1
    return GreedyOutput(tuple(centers), clusters, r)


def greedy_with_given_centers(
    inst: Instance,
    C: Sequence[int],
    r: float,
    cache: Optional[dict[int, _Walk]] = None,
) -> Optional[GreedyOutput]:
    """Grow one cluster per given center; None if the union misses points.
    ``cache`` is the radius search's growth cache (``compute_cluster``)."""
    C = point_ids(C, what="center")
    center_set(C, inst.n)  # the cover keeps the given order
    clusters = {c: compute_cluster(inst, r, c, cache) for c in C}
    out = GreedyOutput(tuple(C), clusters, r)
    if len(out.covered()) != inst.n:
        return None
    return out


def solve_nondisjoint(
    inst: Instance, objective: str, *, seed: Optional[int] = None
) -> tuple[SolveReport, Clustering]:
    """2-approximation for non-disjoint connected clustering.

    Searches the smallest candidate r whose greedy cover (growth 2r for
    the center objective, r for diameter) opens at most k centers.
    Disconnected connectivity graphs are handled implicitly: the greedy
    cover opens at least one center per component, so the search finds
    the smallest r whose total count fits the budget.  ``seed`` switches
    the seed selection from smallest-id to seeded-random order; the
    guarantee holds for any order.
    """
    factor = 2.0 if objective == CENTER else 1.0
    cache: dict[int, _Walk] = {}

    def probe(r: float) -> Optional[GreedyOutput]:
        rng = random.Random(f"{seed}:{r}") if seed is not None else None
        return greedy_clustering(
            inst, factor * r, rng=rng, max_centers=inst.k, cache=cache
        )

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    if found is None:
        raise InfeasibleError(
            "connectivity graph has more components than the cluster budget"
        )
    r, out = found
    result = out.as_clustering()
    report = make_report(
        inst, result, objective, algorithm="greedy-nondisjoint", bound=2.0 * r
    )
    return report, result
