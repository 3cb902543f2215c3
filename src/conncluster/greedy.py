"""Bounded-radius cluster growth and the greedy non-disjoint covering.

The growth primitive collects everything reachable from a seed center
through vertices that stay within a distance budget of it; the covering
algorithm repeatedly grows such a cluster around an uncovered point.
With growth budget 2r (center) or r (diameter) this yields non-disjoint
2-approximations for both objectives.
"""

from __future__ import annotations

import random
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
    clustering,
    dist_leq_arr,
    make_report,
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


def compute_cluster(inst: Instance, R: float, c: int) -> frozenset[int]:
    """Maximal set reachable from c via vertices within distance R of c.

    Every vertex on the connecting paths (including the endpoints) must
    satisfy d(., c) <= R, so the result induces a connected subgraph.
    The tolerant test runs once over c's row; the walk then clears a
    vertex's entry as it admits it, so each scanned edge costs one list
    lookup.
    """
    if not (0 <= c < inst.n):
        raise ValueError(f"center {c} out of range")
    if R < 0:
        raise ValueError("growth radius must be nonnegative")
    ok = dist_leq_arr(inst.dist[c], R).tolist()
    ok[c] = False
    adj = inst.adj
    members = [c]
    stack = [c]
    while stack:
        for u in adj[stack.pop()]:
            if ok[u]:
                ok[u] = False
                members.append(u)
                stack.append(u)
    return frozenset(members)


def adjacency_matrix(inst: Instance) -> np.ndarray:
    """The connectivity graph as a 0/1 float32 matrix, ready for BLAS."""
    adj = np.zeros((inst.n, inst.n), dtype=np.float32)
    if inst.edges:
        u, v = np.asarray(inst.edges).T
        adj[u, v] = adj[v, u] = 1.0
    return adj


def grow_all_clusters(inst: Instance, R: float, adj: np.ndarray) -> np.ndarray:
    """Boolean matrix whose row c is ``compute_cluster(inst, R, c)``.

    All n clusters grow at once by frontier expansion: a row's next
    frontier is the neighbours of its frontier that lie within R of its
    center and are not yet members.  Rows stop once their frontier is
    empty, so the loop runs as many times as the deepest cluster has
    hops.  ``adj`` is ``adjacency_matrix(inst)``.
    """
    within = dist_leq_arr(inst.dist, R)
    members = np.eye(inst.n, dtype=bool)
    rows = np.arange(inst.n)
    frontier = members.copy()
    while rows.size:
        reached = (frontier.astype(np.float32) @ adj) > 0
        frontier = reached & within[rows] & ~members[rows]
        members[rows] |= frontier
        alive = frontier.any(axis=1)
        rows, frontier = rows[alive], frontier[alive]
    return members


def greedy_clustering(
    inst: Instance,
    r: float,
    *,
    rng: Optional[random.Random] = None,
    max_centers: Optional[int] = None,
) -> Optional[GreedyOutput]:
    """Cover all points by clusters grown around uncovered seeds.

    Seeds are the smallest-id uncovered point, or a random uncovered
    point when ``rng`` is given.  When ``max_centers`` is set, returns
    None as soon as more centers would be needed (probe early-exit).
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
        t = compute_cluster(inst, r, c)
        centers.append(c)
        clusters[c] = t
        for v in t:
            covered[v] = 1
    return GreedyOutput(tuple(centers), clusters, r)


def greedy_with_given_centers(
    inst: Instance, C: Sequence[int], r: float
) -> Optional[GreedyOutput]:
    """Grow one cluster per given center; None if the union misses points."""
    C = [int(c) for c in C]
    if len(set(C)) != len(C):
        raise ValueError("centers must be distinct")
    clusters = {c: compute_cluster(inst, r, c) for c in C}
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

    def probe(r: float) -> Optional[GreedyOutput]:
        rng = random.Random(f"{seed}:{r}") if seed is not None else None
        return greedy_clustering(inst, factor * r, rng=rng, max_centers=inst.k)

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
