"""Reference copies of the doubling partition ``partition_doubling`` and
of the Lp grid's recursive cell coloring.

Until its re-cover loop was deleted, ``partition_doubling`` tried, for
each group whose seed saw at least 2^(4 dim) other seeds within 4r, to
re-cover the group and those neighbours with fewer balls.  A re-cover of
a union of cover balls gives back exactly those balls, so the loop never
accepted.  The function and its ball cover stay here, verbatim, as the
reference the loop-free construction is checked against: every
partition must come out the same.

The Lp grid once built each stacking level's color cycle in memory, all
level * (level + 1) states, and gave up past 10000 of them, so a
document of 100 or more coordinates could not be solved.  The cycle and
the recursive color and block of a cell stay here, verbatim, as the
reference for the closed form that replaced them.
"""

from functools import lru_cache, partial
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


@lru_cache(maxsize=None)
def _color_cycle(level: int) -> tuple[tuple[int, ...], ...]:
    """Cyclic sequence of color substitutions for stacking one dimension.

    State t holds the colors assigned to the base colors 1..level; each
    step replaces the color under a cyclically moving pointer by the one
    color of 1..level+1 currently unused.
    """
    params = list(range(1, level + 1))
    start = tuple(params)
    seq = [start]
    pointer = 0
    while True:
        missing = (set(range(1, level + 2)) - set(params)).pop()
        params[pointer] = missing
        pointer = (pointer + 1) % level
        if tuple(params) == start and pointer == 0:
            break
        seq.append(tuple(params))
        if len(seq) > 10000:  # cycle length is small; guard regardless
            raise RuntimeError("color cycle failed to close")
    return tuple(seq)


def _cell_color(cell: tuple[int, ...], level: int) -> int:
    if level == 1:
        return 1 + (cell[0] % 2)
    if level == 0:  # no axes: one cell, one color
        return 1
    base = _cell_color(cell, level - 1)
    seq = _color_cycle(level)
    return seq[cell[level - 1] % len(seq)][base - 1]


def _cell_block(cell: tuple[int, ...], level: int) -> tuple[int, ...]:
    """Identify the maximal same-color glued run the cell belongs to."""
    if level == 1:
        return (cell[0],)
    if level == 0:
        return ()
    base = _cell_color(cell, level - 1)
    t = cell[level - 1]
    p = base - 1  # pointer position that recolors this base color
    start = max(0, t - ((t - p - 1) % level))
    return _cell_block(cell, level - 1) + (start,)
