"""Turning non-disjoint greedy covers into disjoint connected clusterings.

The transform takes a cover, a non-disjoint ``Clustering`` with one
center per cluster, and a well-separated partition of its centers.
Clusters whose centers share a group are merged; the layers are then
replayed in order, splitting each incoming cluster along its
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
from typing import Callable, Optional, Sequence

import numpy as np

from .greedy import (
    bottleneck_levels,
    greedy_clustering,
    greedy_with_given_centers,
)
from .model import (
    CENTER,
    DISJOINT,
    NON_DISJOINT,
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
    dist_leq,
    leq_bound,
    make_report,
    report_of,
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
    cover: Clustering,
    p: WellSeparatedPartition,
    objective: str,
    algorithm: str,
) -> tuple[SolveReport, Clustering]:
    """Merge-and-split transform from a non-disjoint cover to a disjoint
    clustering, with its report under ``algorithm``'s name.

    ``p`` must partition exactly the cover's center set; its radius r is
    the radius the transform assumes of the cover.  A merged cluster that
    must be split but is not connected, a cluster past its layer's radius
    bound (as a cover cluster reaching past r is at the first layer), a
    result that does not validate (points the cover left out, say) and a
    cost past the partition bound each raise ``DisjointInvariantError``.
    The report is built from that validation and that cost, so it equals
    ``make_report``'s, and carries the partition bound (``partition_bound``).
    """
    if cover.centers is None:
        raise AlgorithmPreconditionError("the transform needs a cover with centers")
    if p.center_set() != set(cover.centers):
        raise AlgorithmPreconditionError("partition does not cover the center set")
    r = p.r
    cluster_of = dict(zip(cover.centers, cover.clusters))

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
                center, points = c, set(cluster_of[c])
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
    return report_of(result, cost, verdict.feasible, algorithm, limit), result


def partition_bound(p: WellSeparatedPartition, objective: str) -> float:
    """A-priori cost bound of the transform for a given partition."""
    ell = p.num_layers
    if objective == CENTER:
        return (2 * ell - 1) * p.r + sum(p.h)
    return (4 * ell - 2) * p.r + p.h[0] + 2 * sum(p.h[1:])


def _partitioner(
    inst: Instance, strategy: str, dim: Optional[int]
) -> Callable[[Sequence[int], float], WellSeparatedPartition]:
    """The partition step of ``strategy`` on ``inst``, as a function of the
    cover's centers and radius.  A strategy the instance cannot run is
    refused here, before any radius search."""
    if strategy == "lp":
        if inst.coords is None:
            raise AlgorithmPreconditionError("lp strategy needs an lp metric")

        def lp(centers: Sequence[int], r: float) -> WellSeparatedPartition:
            if lp_grid_fits(inst.coords, centers, r):
                return partition_lp(inst.coords, inst.p, centers, r)
            return partition_general_metric(inst.dist, centers, r)

        return lp
    if strategy == "doubling":
        if dim is None:
            raise AlgorithmPreconditionError("doubling strategy needs dim")
        return lambda centers, r: partition_doubling(inst.dist, centers, r, dim)
    if strategy == "general":
        return lambda centers, r: partition_general_metric(inst.dist, centers, r)
    raise AlgorithmPreconditionError(f"unknown partition strategy {strategy!r}")


def _transform(
    inst: Instance,
    probe: Callable[[float], Optional[Clustering]],
    partition: Callable[[Sequence[int], float], WellSeparatedPartition],
    objective: str,
    algorithm: str,
) -> tuple[SolveReport, Clustering]:
    """The smallest candidate radius at which ``probe`` returns a cover,
    the partition of the cover's centers at it, and the cover made
    disjoint; the report carries the partition's a-priori cost bound."""
    r, cover = binary_search_min_feasible(candidate_radii(inst), probe)
    return make_disjoint(inst, cover, partition(cover.centers, r), objective, algorithm)


def solve_disjoint(
    inst: Instance,
    objective: str,
    strategy: str,
    *,
    dim: Optional[int] = None,
) -> tuple[SolveReport, Clustering]:
    """Greedy cover + partition + disjointification pipeline.

    Finds the smallest candidate radius whose greedy cover opens at most
    k centers, partitions those centers with the named strategy
    (``"lp"``, ``"doubling"`` or ``"general"``) and makes the cover
    disjoint.  The report carries the partition-derived a-priori cost
    bound.
    """
    partition = _partitioner(inst, strategy, dim)
    if inst.components > inst.k:
        raise InfeasibleError(
            "connectivity graph has more components than the cluster budget"
        )
    cache: dict = {}  # the search's growth cache (greedy.compute_cluster)

    def probe(r: float) -> Optional[Clustering]:
        return greedy_clustering(inst, r, max_centers=inst.k, cache=cache)

    return _transform(inst, probe, partition, objective, f"disjoint-{strategy}")


def first_covering_pair(levels: np.ndarray, r: float) -> Optional[Clustering]:
    """The non-disjoint clustering of the first center pair (a, b), in
    ``itertools.combinations`` order, whose clusters grown with radius r
    cover every point; None if none does.

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
    clusters = tuple(frozenset(np.flatnonzero(members[c]).tolist()) for c in (a, b))
    return Clustering(clusters, (a, b), NON_DISJOINT)


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
    if inst.components > 2:
        raise InfeasibleError("connectivity graph has more than two components")
    probe = partial(first_covering_pair, bottleneck_levels(inst))
    r, cover = binary_search_min_feasible(candidate_radii(inst), probe)
    c1, c2 = cover.centers
    t1, t2 = cover.clusters
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
    if len(bfs_parents(inst, range(inst.n), C)) < inst.n:  # a component has no center
        raise InfeasibleError("the given centers cannot reach every point")
    cache: dict = {}  # the search's growth cache (greedy.compute_cluster)

    def probe(r: float) -> Optional[Clustering]:
        return greedy_with_given_centers(inst, C, r, cache)

    split = partition_two_centers if len(C) <= 2 else partition_general_metric
    partition = partial(split, inst.dist)
    return _transform(inst, probe, partition, objective, "assign-given-centers")


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
