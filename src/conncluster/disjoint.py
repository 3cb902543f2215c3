"""Turning non-disjoint greedy covers into disjoint connected clusterings.

The transform takes a greedy cover and a well-separated partition of its
centers.  Clusters whose centers share a group are merged; the layers
are then replayed in order, splitting each incoming cluster along its
spanning tree wherever it touches already-finalized clusters so that
every fragment is absorbed by exactly one owner.  The layer structure
bounds the resulting radius by (2l-1)r + sum(h_i) and the diameter by
(4l-2)r + h_1 + 2*sum_{i>=2}(h_i).

These guarantees (and the transform's intermediate assumptions) need the
triangle inequality; the runtime checks raise rather than silently
returning an invalid clustering when it is violated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .greedy import (
    GreedyOutput,
    adjacency_matrix,
    greedy_clustering,
    greedy_with_given_centers,
    grow_all_clusters,
)
from .model import (
    CENTER,
    DISJOINT,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    Instance,
    SolveReport,
    binary_search_min_feasible,
    candidate_radii,
    clustering,
    clustering_cost,
    dist_eq,
    dist_leq,
    make_report,
    validate_clustering,
)
from .wsp import (
    WellSeparatedPartition,
    partition_doubling,
    partition_general_metric,
    partition_lp,
    partition_two_centers,
)


class DisjointInvariantError(RuntimeError):
    """An intermediate invariant of the disjointification transform failed
    (typically because the distances are not a metric)."""


@dataclass
class _Pending:
    center: int
    points: set[int]


@dataclass
class _Final:
    center: int
    points: set[int]
    layer: int


@dataclass
class LayeredForest:
    """Working state of the transform: finalized clusters plus ownership."""

    finalized: list[_Final] = field(default_factory=list)
    owner: dict[int, int] = field(default_factory=dict)

    def finalize(self, center: int, points: set[int], layer: int) -> None:
        idx = len(self.finalized)
        self.finalized.append(_Final(center, set(points), layer))
        for x in points:
            self.owner[x] = idx

    def absorb(self, target: int, points: set[int]) -> None:
        self.finalized[target].points |= points
        for x in points:
            self.owner[x] = target


def _bfs_tree(inst: Instance, points: set[int], root: int) -> dict[int, list[int]]:
    """Children lists of a BFS spanning tree of the induced subgraph."""
    children: dict[int, list[int]] = {root: []}
    queue = [root]
    while queue:
        nxt = []
        for v in queue:
            for u in inst.adj[v]:
                if u in points and u not in children:
                    children[u] = []
                    children[v].append(u)
                    nxt.append(u)
        queue = nxt
    if len(children) != len(points):
        raise DisjointInvariantError(
            f"cluster around {root} does not induce a connected subgraph"
        )
    return children


def _radius(inst: Instance, points: set[int], center: int) -> float:
    idx = np.fromiter(points, dtype=int)
    return float(inst.dist[idx, center].max())


def make_disjoint(
    inst: Instance,
    g: GreedyOutput,
    p: WellSeparatedPartition,
    objective: str,
) -> Clustering:
    """Merge-and-split transform from a greedy cover to disjoint clusters.

    ``p`` must partition exactly the cover's center set at the cover's
    growth radius.  The per-layer induction invariants and the final
    cost bound are verified, and a ``DisjointInvariantError`` is raised
    on any violation.
    """
    centers = set(g.centers)
    if p.center_set() != centers:
        raise AlgorithmPreconditionError("partition does not cover the center set")
    if not dist_eq(p.r, g.radius_used):
        raise AlgorithmPreconditionError(
            f"partition radius {p.r} differs from cover radius {g.radius_used}"
        )
    r = g.radius_used

    # step 1: merge overlapping clusters whose centers share a group
    merged_layers: list[list[_Pending]] = []
    for layer in p.layers:
        pend: list[_Pending] = []
        for group in layer:
            items = [_Pending(c, set(g.clusters[c])) for c in sorted(group)]
            changed = True
            while changed:
                changed = False
                for i, j in itertools.combinations(range(len(items)), 2):
                    if items[i].points & items[j].points:
                        items[i].points |= items[j].points
                        del items[j]
                        changed = True
                        break
            pend.extend(items)
        pend.sort(key=lambda t: t.center)
        merged_layers.append(pend)

    # step 2: replay layers, splitting along spanning trees where needed
    forest = LayeredForest()
    for li, pend in enumerate(merged_layers):
        for t in pend:
            vstar = {v for v in t.points if v in forest.owner}
            if not vstar:
                forest.finalize(t.center, t.points, li)
                continue
            if len(vstar) == 1:
                v = next(iter(vstar))
                forest.absorb(forest.owner[v], t.points - {v})
                continue
            children = _bfs_tree(inst, t.points, t.center)
            cuts = vstar - {t.center}

            def component(start: int) -> set[int]:
                comp = {start}
                stack = [start]
                while stack:
                    x = stack.pop()
                    for ch in children[x]:
                        if ch not in cuts:
                            comp.add(ch)
                            stack.append(ch)
                return comp

            for v in sorted(cuts):
                forest.absorb(forest.owner[v], component(v) - {v})
            root_comp = component(t.center)
            if t.center in vstar:
                forest.absorb(forest.owner[t.center], root_comp - {t.center})
            else:
                forest.finalize(t.center, root_comp, li)
        total = sum(len(f.points) for f in forest.finalized)
        if total != len(forest.owner):
            raise DisjointInvariantError(
                f"finalized clusters overlap after layer {li + 1}"
            )
        bound = (2 * (li + 1) - 1) * r + sum(p.h[: li + 1])
        for f in forest.finalized:
            rad = _radius(inst, f.points, f.center)
            if not dist_leq(rad, bound):
                raise DisjointInvariantError(
                    f"after layer {li + 1}: cluster of center {f.center} has "
                    f"radius {rad} > {(2 * (li + 1) - 1)}r + h_1..h_{li + 1} = {bound}"
                )

    order = sorted(range(len(forest.finalized)), key=lambda i: (forest.finalized[i].layer, forest.finalized[i].center))
    result = clustering(
        [forest.finalized[i].points for i in order],
        [forest.finalized[i].center for i in order],
        DISJOINT,
    )
    if result.clusters_used > len(g.centers):
        raise DisjointInvariantError("more clusters than centers")
    verdict = validate_clustering(inst, result)
    structural = [
        v for v in verdict.violations if "budget" not in v
    ]  # budget is the caller's concern, not the transform's
    if structural:
        raise DisjointInvariantError("; ".join(structural))
    limit = partition_bound(p, objective)
    cost = clustering_cost(inst, result, objective)
    if not dist_leq(cost, limit):
        raise DisjointInvariantError(
            f"{objective} cost {cost} exceeds the partition bound {limit}"
        )
    return result


def partition_bound(p: WellSeparatedPartition, objective: str) -> float:
    """A-priori cost bound of the transform for a given partition."""
    ell = p.num_layers
    if objective == CENTER:
        return (2 * ell - 1) * p.r + sum(p.h)
    return (4 * ell - 2) * p.r + p.h[0] + 2 * sum(p.h[1:])


def _build_partition(
    inst: Instance,
    centers: Sequence[int],
    r: float,
    strategy: str,
    dim: Optional[int],
) -> WellSeparatedPartition:
    if strategy == "lp":
        if inst.coords is None:
            raise AlgorithmPreconditionError("lp strategy needs an lp metric")
        if r > 0:
            return partition_lp(inst.coords, inst.p, centers, r)
        return partition_general_metric(inst.dist, centers, r)
    if strategy == "doubling":
        if dim is None:
            raise AlgorithmPreconditionError("doubling strategy needs dim")
        return partition_doubling(inst.dist, centers, r, dim)
    if strategy == "general":
        return partition_general_metric(inst.dist, centers, r)
    raise AlgorithmPreconditionError(f"unknown partition strategy {strategy!r}")


def solve_disjoint(
    inst: Instance,
    objective: str,
    strategy: str = "auto",
    *,
    dim: Optional[int] = None,
) -> tuple[SolveReport, Clustering]:
    """Greedy cover + partition + disjointification pipeline.

    Finds the smallest candidate radius whose greedy cover opens at most
    k centers, partitions those centers with the chosen strategy (auto:
    grid partition when coordinates are available, ring growth
    otherwise) and makes the cover disjoint.  The report carries the
    partition-derived a-priori cost bound.
    """
    if strategy == "auto":
        strategy = "lp" if inst.coords is not None else "general"

    def probe(r: float) -> Optional[GreedyOutput]:
        return greedy_clustering(inst, r, max_centers=inst.k)

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    if found is None:
        raise InfeasibleError(
            "connectivity graph has more components than the cluster budget"
        )
    r, g = found
    p = _build_partition(inst, g.centers, r, strategy, dim)
    result = make_disjoint(inst, g, p, objective)
    report = make_report(
        inst,
        result,
        objective,
        algorithm=f"disjoint-{strategy}",
        bound=partition_bound(p, objective),
    )
    return report, result


def first_covering_pair(
    inst: Instance, r: float, adj: np.ndarray
) -> Optional[GreedyOutput]:
    """The first center pair, in ``itertools.combinations`` order, whose
    clusters grown with radius r cover every point; None if none does.

    With U the complement of ``grow_all_clusters``, pair (a, b) covers
    everything iff rows a and b of U share no point, i.e. iff
    ``(U @ U.T)[a, b] == 0``; the first such entry of the strict upper
    triangle in row-major order is the first pair in combinations order.
    """
    members = grow_all_clusters(inst, r, adj)
    # float32 for BLAS: a sum of nonnegative terms is 0 iff every term is
    uncovered = (~members).astype(np.float32)
    covers = np.triu((uncovered @ uncovered.T) == 0, k=1)
    hits = np.flatnonzero(covers)
    if not hits.size:
        return None
    a, b = divmod(int(hits[0]), inst.n)
    clusters = {c: frozenset(np.flatnonzero(members[c]).tolist()) for c in (a, b)}
    return GreedyOutput((a, b), clusters, r)


def solve_two_center_disjoint(inst: Instance) -> tuple[SolveReport, Clustering]:
    """Exact-center search for k=2, then merge on overlap.

    Finds the smallest candidate radius at which some center pair's grown
    clusters cover everything (the non-disjoint optimum with the best
    centers), taking the first such pair in lexicographic order.  Each
    probe grows all n clusters once and tests every pair with one matrix
    product (``first_covering_pair``).  Disjoint covers are returned
    as-is; overlapping ones are merged and re-centered at a point of the
    intersection, doubling the radius at most.  A 2-approximation of the
    disjoint optimum.
    """
    if inst.k != 2:
        raise AlgorithmPreconditionError("the two-center algorithm needs k=2")
    adj = adjacency_matrix(inst)

    def probe(r: float) -> Optional[GreedyOutput]:
        return first_covering_pair(inst, r, adj)

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    if found is None:
        raise InfeasibleError("connectivity graph has more than two components")
    r, g = found
    c1, c2 = g.centers
    t1, t2 = g.clusters[c1], g.clusters[c2]
    if not (t1 & t2):
        result = clustering([t1, t2], [c1, c2], DISJOINT)
        bound = r
    else:
        new_center = min(t1 & t2)
        result = clustering([t1 | t2], [new_center], DISJOINT)
        bound = 2.0 * r
    report = make_report(inst, result, CENTER, algorithm="two-center", bound=bound)
    return report, result


def solve_assignment_given_centers(
    inst: Instance, C: Sequence[int], objective: str
) -> tuple[SolveReport, Clustering]:
    """Disjoint clustering for a fixed center set.

    Searches the smallest radius whose per-center grown clusters cover
    everything, then partitions the given centers (single layer for up
    to two centers) and applies the disjointification transform.  For
    two centers this is a 3-approximation of the best assignment.
    """
    C = sorted(int(c) for c in C)
    if len(set(C)) != len(C):
        raise AlgorithmPreconditionError("centers must be distinct")
    if not 1 <= len(C) <= inst.k:
        raise AlgorithmPreconditionError("need 1 <= |C| <= k centers")

    def probe(r: float) -> Optional[GreedyOutput]:
        return greedy_with_given_centers(inst, C, r)

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    if found is None:
        raise InfeasibleError("the given centers cannot reach every point")
    r, g = found
    if len(C) <= 2:
        p = partition_two_centers(inst.dist, C, r)
    else:
        p = partition_general_metric(inst.dist, C, r)
    result = make_disjoint(inst, g, p, objective)
    report = make_report(
        inst,
        result,
        objective,
        algorithm="assign-given-centers",
        bound=partition_bound(p, objective),
    )
    return report, result


def pad_to_k(inst: Instance, c: Clustering) -> Clustering:
    """Split spanning-tree leaves off the largest clusters until exactly
    k clusters exist.  Never worsens either objective: detached leaves
    become radius/diameter-0 singletons and are never centers."""
    if c.mode != DISJOINT:
        raise AlgorithmPreconditionError("padding needs a disjoint clustering")
    verdict = validate_clustering(inst, c)
    if not verdict.feasible:
        raise AlgorithmPreconditionError(
            f"padding needs a feasible clustering: {'; '.join(verdict.violations)}"
        )
    if c.clusters_used == inst.k:
        return c
    clusters = [set(cl) for cl in c.clusters]
    centers = list(c.centers) if c.centers is not None else None
    new_singletons: list[int] = []
    while len(clusters) + len(new_singletons) < inst.k:
        sizes = [
            (len(cl), min(cl), i) for i, cl in enumerate(clusters) if len(cl) >= 2
        ]
        _, _, i = max(sizes, key=lambda t: (t[0], -t[1]))
        root = centers[i] if centers is not None else min(clusters[i])
        children = _bfs_tree(inst, clusters[i], root)
        leaf = min(v for v, ch in children.items() if not ch and v != root)
        clusters[i].discard(leaf)
        new_singletons.append(leaf)
    out_clusters = clusters + [{x} for x in new_singletons]
    out_centers = centers + new_singletons if centers is not None else None
    return clustering(out_clusters, out_centers, DISJOINT)
