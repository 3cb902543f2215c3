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

from functools import partial
from typing import Optional, Sequence

import numpy as np

from .greedy import (
    GreedyOutput,
    bottleneck_levels,
    greedy_clustering,
    greedy_with_given_centers,
)
from .model import (
    CENTER,
    DISJOINT,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    Instance,
    SolveReport,
    bfs_parents,
    binary_search_min_feasible,
    candidate_radii,
    center_set,
    cluster_radius,
    clustering,
    clustering_cost,
    dist_eq,
    dist_leq,
    leq_bound,
    make_report,
    validate_clustering,
)
from .wsp import (
    WellSeparatedPartition,
    lp_grid_fits,
    partition_doubling,
    partition_general_metric,
    partition_lp,
    partition_two_centers,
)


class DisjointInvariantError(RuntimeError):
    """An intermediate invariant of the disjointification transform failed
    (typically because the distances are not a metric)."""


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
    if p.center_set() != set(g.centers):
        raise AlgorithmPreconditionError("partition does not cover the center set")
    if not dist_eq(p.r, g.radius_used):
        raise AlgorithmPreconditionError(
            f"partition radius {p.r} differs from cover radius {g.radius_used}"
        )
    r = g.radius_used

    # Finalized clusters in (layer, center) order, and the index of the
    # cluster that owns each point placed so far.
    centers: list[int] = []
    clusters: list[set[int]] = []
    owner: dict[int, int] = {}
    for li, layer in enumerate(p.layers):
        # merge: within each group, the connected components of the
        # clusters' overlap graph, each kept at its smallest center
        pending: list[tuple[int, set[int]]] = []
        for group in layer:
            comps: list[tuple[int, set[int]]] = []
            for c in sorted(group):
                center, points = c, set(g.clusters[c])
                rest = []
                for other, other_points in comps:  # pairwise disjoint: one pass
                    if other_points & points:
                        center = min(center, other)
                        points |= other_points
                    else:
                        rest.append((other, other_points))
                comps = rest + [(center, points)]
            pending += comps
        pending.sort(key=lambda t: t[0])

        # split: cut each cluster into pieces, each anchored at an owned
        # point or at the cluster's center; a piece whose anchor is owned
        # joins the anchor's owner, any other piece is a new cluster
        touched: set[int] = set()
        for center, points in pending:
            owned = {v for v in points if v in owner}
            if len(owned) < 2:
                pieces = {min(owned, default=center): points}
            else:
                # along a spanning tree, each point joins the piece of its
                # nearest owned ancestor (itself included), else the root's
                parent = bfs_parents(inst, points, [center])
                if len(parent) != len(points):
                    raise DisjointInvariantError(
                        f"cluster around {center} does not induce a connected subgraph"
                    )
                anchor: dict[int, int] = {}
                for u, v in parent.items():  # discovery order: v is anchored
                    anchor[u] = u if v == -1 or u in owned else anchor[v]
                pieces = {}
                for v, a in anchor.items():
                    pieces.setdefault(a, set()).add(v)
            for a, piece in pieces.items():
                if a in owner:
                    idx = owner[a]
                    clusters[idx] |= piece
                else:
                    idx = len(clusters)
                    centers.append(center)
                    clusters.append(piece)
                touched.add(idx)
                for v in piece:
                    owner[v] = idx
        if sum(map(len, clusters)) != len(owner):
            raise DisjointInvariantError(
                f"finalized clusters overlap after layer {li + 1}"
            )
        # the bound never falls from layer to layer, so a cluster this
        # layer left alone still meets it
        bound = (2 * (li + 1) - 1) * r + sum(p.h[: li + 1])
        for i in sorted(touched):
            center, points = centers[i], clusters[i]
            rad = cluster_radius(inst.dist, points, center)
            if not dist_leq(rad, bound):
                raise DisjointInvariantError(
                    f"after layer {li + 1}: cluster of center {center} has "
                    f"radius {rad} > {(2 * (li + 1) - 1)}r + h_1..h_{li + 1} = {bound}"
                )

    result = clustering(clusters, centers, DISJOINT)
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
        if lp_grid_fits(inst.coords, centers, r):
            return partition_lp(inst.coords, inst.p, centers, r)
        return partition_general_metric(inst.dist, centers, r)
    if strategy == "doubling":
        if dim is None:
            raise AlgorithmPreconditionError("doubling strategy needs dim")
        if dim < 1:
            raise AlgorithmPreconditionError(f"doubling dimension must be at least 1, got {dim}")
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

    cache: dict = {}  # the search's growth cache (greedy.compute_cluster)

    def probe(r: float) -> Optional[GreedyOutput]:
        return greedy_clustering(inst, r, max_centers=inst.k, cache=cache)

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


def first_covering_pair(levels: np.ndarray, r: float) -> Optional[GreedyOutput]:
    """The first center pair, in ``itertools.combinations`` order, whose
    clusters grown with radius r cover every point; None if none does.

    ``levels`` is ``bottleneck_levels(inst)``.  With U the complement of
    the clusters, pair (a, b) covers everything iff ``(U @ U.T)[a, b]``
    is 0; the first such entry of the strict upper triangle in row-major
    order is the first pair in combinations order.
    """
    members = levels <= leq_bound(r)
    # float32 for BLAS: a sum of nonnegative terms is 0 iff every term is
    uncovered = (~members).astype(np.float32)
    covers = np.triu((uncovered @ uncovered.T) == 0, k=1)
    hits = np.flatnonzero(covers)
    if not hits.size:
        return None
    a, b = divmod(int(hits[0]), len(levels))
    clusters = {c: frozenset(np.flatnonzero(members[c]).tolist()) for c in (a, b)}
    return GreedyOutput((a, b), clusters, r)


def solve_two_center_disjoint(inst: Instance) -> tuple[SolveReport, Clustering]:
    """Exact-center search for k=2, then merge on overlap.

    Finds the smallest candidate radius at which some center pair's grown
    clusters cover everything (the non-disjoint optimum with the best
    centers), taking the first such pair in lexicographic order.  Every
    center's growth is computed once (``bottleneck_levels``); each probe
    tests every pair with one matrix product (``first_covering_pair``).
    Disjoint covers are returned as-is; overlapping ones are merged and
    re-centered at a point of the intersection, doubling the radius at
    most.  A 2-approximation of the disjoint optimum.
    """
    if inst.k != 2:
        raise AlgorithmPreconditionError("the two-center algorithm needs k=2")
    probe = partial(first_covering_pair, bottleneck_levels(inst))
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
    C = center_set(C, inst.n, inst.k)

    cache: dict = {}  # the search's growth cache (greedy.compute_cluster)

    def probe(r: float) -> Optional[GreedyOutput]:
        return greedy_with_given_centers(inst, C, r, cache)

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
        parent = bfs_parents(inst, clusters[i], [root])
        leaf = min(parent.keys() - parent.values())  # no point's parent: a leaf
        clusters[i].discard(leaf)
        new_singletons.append(leaf)
    out_clusters = clusters + [{x} for x in new_singletons]
    out_centers = centers + new_singletons if centers is not None else None
    return clustering(out_clusters, out_centers, DISJOINT)
