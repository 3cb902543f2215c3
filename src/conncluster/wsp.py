"""Well-separated partitions of center sets.

A partition groups centers into layers so that groups on the same layer
are more than 2r apart while every group on layer i has diameter at most
h_i.  Such partitions drive the disjointification transform: close-by
clusters get merged (bounded by h_i), far-apart clusters are already
disjoint, and the layer structure bounds how merge chains can grow.

Constructions: ring growth for general metrics, a colored grid for Lp
metrics, and a greedy ball cover for metrics of known doubling
dimension.  Every construction is re-checkable with
``verify_wsp``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .model import AlgorithmPreconditionError, Verdict, center_set, cluster_diameter, dist_leq


@dataclass(frozen=True)
class WellSeparatedPartition:
    """Layers of groups over a center set, with claimed diameter bounds."""

    r: float
    layers: tuple[tuple[frozenset[int], ...], ...]
    h: tuple[float, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def center_set(self) -> set[int]:
        return set().union(*(g for layer in self.layers for g in layer))


def _finalize(
    r: float,
    layers: list[list[set[int]]],
    diameter: Callable[[frozenset[int]], float],
) -> WellSeparatedPartition:
    """Freeze layers with deterministic group order, each layer's h the
    largest group ``diameter``."""
    frozen_layers = []
    hs = []
    for layer in layers:
        groups = tuple(sorted((frozenset(g) for g in layer), key=min))
        frozen_layers.append(groups)
        hs.append(max(map(diameter, groups)))
    return WellSeparatedPartition(r=r, layers=tuple(frozen_layers), h=tuple(hs))


def verify_wsp(
    dist: np.ndarray, centers: Sequence[int], p: WellSeparatedPartition
) -> Verdict:
    """Exhaustively check the four defining properties of the partition."""
    centers = set(center_set(centers, len(dist)))
    violations: list[str] = []
    seen: set[int] = set()
    for li, layer in enumerate(p.layers):
        for g in layer:
            if not g:
                violations.append(f"empty group on layer {li}")
            dup = seen & g
            if dup:
                violations.append(f"points {sorted(dup)} appear in multiple groups")
            seen |= g
    if seen != centers:
        violations.append(
            f"groups cover {sorted(seen)} but the center set is {sorted(centers)}"
        )
    for li, layer in enumerate(p.layers):
        for a in range(len(layer)):
            for b in range(a + 1, len(layer)):
                for u in layer[a]:
                    for v in layer[b]:
                        if dist_leq(float(dist[u, v]), 2.0 * p.r):
                            violations.append(
                                f"layer {li}: d({u},{v})={dist[u, v]} is not > 2r"
                            )
        if li < len(p.h):
            for g in layer:
                diam = cluster_diameter(dist, g)
                if not dist_leq(diam, p.h[li]):
                    violations.append(
                        f"layer {li}: group {sorted(g)} diameter {diam} > h={p.h[li]}"
                    )
    if len(p.h) != len(p.layers):
        violations.append("h must have one entry per layer")
    return Verdict(feasible=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# general metrics: ring growth


def partition_general_metric(
    dist: np.ndarray,
    centers: Sequence[int],
    r: float,
) -> WellSeparatedPartition:
    """Layered ring growth for arbitrary metrics.

    A group grows by rings of 2r-neighbors while each ring at least
    doubles the group; stalled rings are deferred to later layers.  For
    k centers this yields at most 1 + floor(log_{3/2} k) layers with
    group diameters at most 4r * floor(log_3 k).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    centers = center_set(centers, len(dist))
    unassigned = set(centers)
    layers: list[list[set[int]]] = []
    while unassigned:
        layer: list[set[int]] = []
        available = set(unassigned)
        while available:
            u = min(available)
            group = {u}
            ring = {u}
            available.discard(u)
            unassigned.discard(u)
            while available:
                nxt = {
                    x
                    for x in available
                    if any(dist_leq(float(dist[v, x]), 2.0 * r) for v in ring)
                }
                if len(nxt) >= 2 * len(group):
                    group |= nxt
                    available -= nxt
                    unassigned -= nxt
                    ring = nxt
                else:
                    available -= nxt
                    break
            layer.append(group)
        layers.append(layer)
    return _finalize(r, layers, partial(cluster_diameter, dist))


def general_layer_bound(k: int) -> int:
    return 1 + int(math.floor(math.log(k, 1.5))) if k > 1 else 1


def general_diameter_bound(k: int, r: float) -> float:
    return 4.0 * r * int(math.floor(math.log(k, 3))) if k > 1 else 0.0


# ---------------------------------------------------------------------------
# Lp metrics: colored grid


def _cycle_color(level: int, t: int, slot: int) -> int:
    """The color that state t of the stacking cycle gives base color
    ``slot + 1``, for ``level`` >= 1 base colors.

    The cycle starts at the colors 1..level; step s >= 1 moves the color
    of 1..level+1 left unused, which is (s - 2) mod (level + 1) + 1, into
    slot (s - 1) mod level.  After level * (level + 1) steps it is back
    at the start.  So a slot holds its own color until its first write,
    and then the color of its last write, at step
    s = slot + 1 + level * floor((t - slot - 1) / level).
    """
    t %= level * (level + 1)
    if t <= slot:
        return slot + 1
    s = slot + 1 + level * ((t - slot - 1) // level)
    return (s - 2) % (level + 1) + 1


def _cell_color_block(cell: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """A cell's color, and the start along each axis of the maximal
    same-color glued run it belongs to.

    Axis 1 alternates colors 1 and 2; stacking axis ``level`` recolors
    the color of the axes before it by state ``cell[level - 1]`` of the
    cycle of ``level`` base colors.  A run along that axis ends where the
    cycle's pointer next reaches the slot of the base color.
    """
    if not cell:  # no axes: one cell, one color
        return 1, ()
    color, block = 1 + cell[0] % 2, [cell[0]]
    for level in range(2, len(cell) + 1):
        t, slot = cell[level - 1], color - 1
        block.append(max(0, t - ((t - slot - 1) % level)))
        color = _cycle_color(level, t, slot)
    return color, tuple(block)


def _lp_distance(a: np.ndarray, b: np.ndarray, p: float) -> float:
    diff = np.abs(a - b)
    if p == math.inf:
        return float(diff.max(initial=0.0))  # 0.0 with no coordinates
    return float((diff**p).sum() ** (1.0 / p))


def _lp_diameter(coords: np.ndarray, p: float, group: frozenset[int]) -> float:
    """A group's diameter under the Lp norm itself.  It is not read off
    the realized matrix: for p = 2 that takes ``np.sqrt``, which can
    differ from the scalar power here in the last bit."""
    pairs = itertools.combinations(group, 2)
    return max((_lp_distance(coords[a], coords[b], p) for a, b in pairs), default=0.0)


def _grid_cells(coords: np.ndarray, centers: Sequence[int], r: float) -> np.ndarray:
    """Per center, the float index of its grid cell along each axis:
    coordinates shifted into the nonnegative orthant, over the edge 2r.
    A tiny r can overflow an index to inf."""
    pts = np.asarray(coords, dtype=float)[centers]
    if pts.ndim != 2:
        raise ValueError("coords must be a 2-d array")
    with np.errstate(over="ignore"):
        return np.floor((pts - pts.min(axis=0, keepdims=True)) / (2.0 * r))


def lp_grid_fits(coords: np.ndarray, centers: Sequence[int], r: float) -> bool:
    """Whether ``partition_lp`` can grid ``centers`` at radius r: r is
    positive and no cell index overflows."""
    return r > 0 and bool(np.isfinite(_grid_cells(coords, list(centers), r)).all())


def partition_lp(
    coords: np.ndarray, p: float, centers: Sequence[int], r: float
) -> WellSeparatedPartition:
    """Grid partition for Lp metrics in R^d.

    Centers are translated into the nonnegative orthant, the axis grid
    of cell edge 2r is colored with d+1 colors by the recursive stacking
    scheme, and cells glued along each stacking axis form the groups.
    At most d+1 layers; group diameters at most 2r * d^(1+1/p).
    """
    if r <= 0:
        raise ValueError("r must be positive for the grid construction")
    centers = center_set(centers, len(coords))
    cells = _grid_cells(coords, centers, r)
    if not np.isfinite(cells).all():
        raise ValueError("r is too small for a grid over these coordinates")
    groups: dict[tuple[int, tuple[int, ...]], set[int]] = {}
    # exact Python ints: an index past 2**63 does not wrap
    for cid, cell in zip(centers, cells.tolist()):
        color, block = _cell_color_block(tuple(int(x) for x in cell))
        groups.setdefault((color, block), set()).add(cid)
    by_color: dict[int, list[set[int]]] = {}
    for (color, _block), members in sorted(groups.items(), key=lambda kv: min(kv[1])):
        by_color.setdefault(color, []).append(members)
    layers = [by_color[c] for c in sorted(by_color)]
    return _finalize(r, layers, partial(_lp_diameter, coords, p))


def lp_layer_bound(d: int) -> int:
    return d + 1


def lp_diameter_bound(d: int, p: float, r: float) -> float:
    exponent = 1.0 if p == math.inf else 1.0 + 1.0 / p
    return 2.0 * r * d**exponent


# ---------------------------------------------------------------------------
# doubling metrics: ball cover, greedy coloring


def doubling_layer_bound(dim: int) -> int:
    return 2 ** (4 * dim)


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

    Greedy radius-r balls form the groups, each of diameter at most 2r,
    and greedy coloring of the graph joining seeds within 4r maps them to
    layers.  Each seed is the least point left uncovered, so seeds are
    more than r apart, and in a metric of doubling dimension ``dim`` a
    seed has fewer than 2^(3 dim) others within 4r (packing).  That
    bound rests only on the declared ``dim``, so a coloring with more
    than ``doubling_layer_bound(dim)`` layers raises.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if dim < 1:
        raise ValueError("doubling dimension must be positive")
    centers = center_set(centers, len(dist))
    cover = _greedy_ball_cover(dist, centers, r)  # in seed order
    seeds = [s for s, _ in cover]
    color: list[int] = []  # first fit over the earlier seeds within 4r
    layers: list[list[set[int]]] = []
    for s, members in cover:
        used = {c for c, t in zip(color, seeds) if dist_leq(float(dist[s, t]), 4.0 * r)}
        c = min(set(range(len(used) + 1)) - used)
        color.append(c)
        if c == len(layers):
            layers.append([])
        layers[c].append(members)
    if len(layers) > doubling_layer_bound(dim):
        raise AlgorithmPreconditionError(
            f"the centers need {len(layers)} layers, more than the "
            f"{doubling_layer_bound(dim)} a metric of doubling dimension {dim} allows"
        )
    return _finalize(r, layers, partial(cluster_diameter, dist))


# ---------------------------------------------------------------------------
# one or two centers


def partition_two_centers(
    dist: np.ndarray, centers: Sequence[int], r: float
) -> WellSeparatedPartition:
    """Single-layer partition for up to two centers: separate groups when
    the centers are more than 2r apart, one group otherwise."""
    centers = center_set(centers, len(dist))
    if len(centers) > 2:
        raise ValueError("this construction handles one or two centers")
    apart = len(centers) == 2 and not dist_leq(float(dist[centers[0], centers[1]]), 2.0 * r)
    groups = [{c} for c in centers] if apart else [set(centers)]
    return _finalize(r, [groups], partial(cluster_diameter, dist))
