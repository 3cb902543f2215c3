"""Reference copy of the doubling partition ``partition_doubling``.

Until its re-cover loop was deleted, ``partition_doubling`` tried, for
each group whose seed saw at least 2^(4 dim) other seeds within 4r, to
re-cover the group and those neighbours with fewer balls.  A re-cover of
a union of cover balls gives back exactly those balls, so the loop never
accepted.  The function and its ball cover stay here, verbatim, as the
reference the loop-free construction is checked against: every
partition must come out the same.
"""

from functools import partial
from typing import Sequence

import numpy as np

from conncluster.model import cluster_diameter, dist_leq
from conncluster.wsp import WellSeparatedPartition, _finalize


def _greedy_ball_cover(
    dist: np.ndarray, points: Sequence[int], r: float
) -> list[tuple[int, set[int]]]:
    uncovered = set(points)
    out = []
    while uncovered:
        seed = min(uncovered)
        ball = {x for x in uncovered if dist_leq(float(dist[seed, x]), r)}
        out.append((seed, ball))
        uncovered -= ball
    return out


def partition_doubling(
    dist: np.ndarray, centers: Sequence[int], r: float, dim: int
) -> WellSeparatedPartition:
    """Ball-cover partition for metrics of (caller-asserted) doubling
    dimension ``dim``.

    Greedy radius-r balls form the groups; a group whose center sees at
    least 2^(4 dim) other group centers within 4r is re-covered together
    with those neighbors, accepted only when the group count strictly
    drops.  Greedy coloring of the 4r-neighbor graph maps groups to at
    most 2^(4 dim) layers, each group of diameter at most 2r.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if dim < 1:
        raise ValueError("doubling dimension must be positive")
    centers = sorted(int(c) for c in centers)
    if not centers:
        raise ValueError("center set is empty")
    cover = _greedy_ball_cover(dist, centers, r)

    def neighbor_ids(i: int) -> list[int]:
        ci = cover[i][0]
        return [
            j
            for j in range(len(cover))
            if j != i and dist_leq(float(dist[ci, cover[j][0]]), 4.0 * r)
        ]

    improved = True
    while improved:
        improved = False
        for i in sorted(range(len(cover)), key=lambda t: cover[t][0]):
            nbrs = neighbor_ids(i)
            if len(nbrs).bit_length() <= 4 * dim:  # fewer than 2^(4 dim) neighbours
                continue
            region: set[int] = set()
            for j in [i] + nbrs:
                region |= cover[j][1]
            recovered = _greedy_ball_cover(dist, sorted(region), r)
            if len(recovered) < 1 + len(nbrs):
                keep = [cover[j] for j in range(len(cover)) if j != i and j not in nbrs]
                cover = keep + recovered
                improved = True
                break

    cover.sort(key=lambda t: t[0])
    adj = [set(neighbor_ids(i)) for i in range(len(cover))]
    color: dict[int, int] = {}
    for i in range(len(cover)):
        used = {color[j] for j in adj[i] if j in color}
        c = 1
        while c in used:
            c += 1
        color[i] = c
    by_color: dict[int, list[set[int]]] = {}
    for i, (_seed, members) in enumerate(cover):
        by_color.setdefault(color[i], []).append(members)
    layers = [by_color[c] for c in sorted(by_color)]
    return _finalize(r, layers, partial(cluster_diameter, dist))
