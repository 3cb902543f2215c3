"""Reference copy of the dense two-center probe.

Until every center's growth was computed once per search as a matrix of
levels (``greedy.bottleneck_levels``), each probe of
``solve_two_center_disjoint`` regrew all n clusters by frontier
expansion, one dense (rows x n) @ (n x n) product per hop.  The three
functions stay here, verbatim, with the solver around them, as the
reference the level matrix is checked against on inputs too large for
the pair scan: every probe must return the same pair with the same
clusters, and every solve the same report and clustering.
"""

from typing import Optional

import numpy as np

from conncluster.model import (
    CENTER,
    DISJOINT,
    NON_DISJOINT,
    Clustering,
    InfeasibleError,
    candidate_radii,
    clustering,
    dist_leq_arr,
    make_report,
)

from _search_refs import binary_search_min_feasible


def adjacency_matrix(inst) -> np.ndarray:
    """The connectivity graph as a 0/1 float32 matrix, ready for BLAS."""
    adj = np.zeros((inst.n, inst.n), dtype=np.float32)
    if inst.edges:
        u, v = np.asarray(inst.edges).T
        adj[u, v] = adj[v, u] = 1.0
    return adj


def grow_all_clusters(inst, R: float, adj: np.ndarray) -> np.ndarray:
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


def first_covering_pair(
    inst, r: float, adj: np.ndarray
) -> Optional[Clustering]:
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
    clusters = tuple(frozenset(np.flatnonzero(members[c]).tolist()) for c in (a, b))
    return Clustering(clusters, (a, b), NON_DISJOINT)


def solve_two_center_disjoint(inst):
    """``solve_two_center_disjoint`` over the dense probe (k=2 only)."""
    adj = adjacency_matrix(inst)
    found = binary_search_min_feasible(
        candidate_radii(inst), lambda r: first_covering_pair(inst, r, adj)
    )
    if found is None:
        raise InfeasibleError("connectivity graph has more than two components")
    r, g = found
    c1, c2 = g.centers
    t1, t2 = g.clusters
    if not (t1 & t2):
        result = clustering([t1, t2], [c1, c2], DISJOINT)
        bound = r
    else:
        new_center = min(t1 & t2)
        result = clustering([t1 | t2], [new_center], DISJOINT)
        bound = 2.0 * r
    report = make_report(inst, result, CENTER, algorithm="two-center", bound=bound)
    return report, result
