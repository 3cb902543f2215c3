"""Well-separated partitions of center sets.

A partition groups centers into layers so that groups on the same layer
are more than 2r apart while every group on layer i has diameter at most
h_i.  Such partitions drive the disjointification transform: close-by
clusters get merged (bounded by h_i), far-apart clusters are already
disjoint, and the layer structure bounds how merge chains can grow.

Constructions: ring growth for general metrics, a colored grid for Lp
metrics, and a greedy ball cover with local improvement for metrics of
known doubling dimension.  Every construction is re-checkable with
``verify_wsp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .model import Verdict, dist_leq


@dataclass(frozen=True)
class WellSeparatedPartition:
    """Layers of groups over a center set, with claimed diameter bounds."""

    r: float
    layers: tuple[tuple[frozenset[int], ...], ...]
    h: tuple[float, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def all_groups(self) -> list[frozenset[int]]:
        return [g for layer in self.layers for g in layer]

    def center_set(self) -> set[int]:
        out: set[int] = set()
        for g in self.all_groups():
            out |= g
        return out

    def to_doc(self) -> dict:
        return {
            "r": self.r,
            "layers": [[sorted(g) for g in layer] for layer in self.layers],
            "h": list(self.h),
        }


def partition_from_doc(doc: dict) -> WellSeparatedPartition:
    return WellSeparatedPartition(
        r=float(doc["r"]),
        layers=tuple(
            tuple(frozenset(int(x) for x in g) for g in layer) for layer in doc["layers"]
        ),
        h=tuple(float(x) for x in doc["h"]),
    )


def _group_diameter(dist: np.ndarray, group: frozenset[int]) -> float:
    if len(group) < 2:
        return 0.0
    idx = np.fromiter(group, dtype=int)
    return float(dist[np.ix_(idx, idx)].max())


def _finalize(
    dist: np.ndarray, r: float, layers: list[list[set[int]]]
) -> WellSeparatedPartition:
    """Freeze layers with deterministic group order and actual diameters."""
    frozen_layers = []
    hs = []
    for layer in layers:
        groups = tuple(sorted((frozenset(g) for g in layer), key=min))
        frozen_layers.append(groups)
        hs.append(max(_group_diameter(dist, g) for g in groups))
    return WellSeparatedPartition(r=r, layers=tuple(frozen_layers), h=tuple(hs))


def verify_wsp(
    dist: np.ndarray, centers: Sequence[int], p: WellSeparatedPartition
) -> Verdict:
    """Exhaustively check the four defining properties of the partition."""
    centers = set(int(c) for c in centers)
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
                diam = _group_diameter(dist, g)
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
    *,
    trace: Optional[list] = None,
) -> WellSeparatedPartition:
    """Layered ring growth for arbitrary metrics.

    A group grows by rings of 2r-neighbors while each ring at least
    doubles the group; stalled rings are deferred to later layers.  For
    k centers this yields at most 1 + floor(log_{3/2} k) layers with
    group diameters at most 4r * floor(log_3 k).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    centers = sorted(int(c) for c in centers)
    if not centers:
        raise ValueError("center set is empty")
    unassigned = set(centers)
    layers: list[list[set[int]]] = []
    while unassigned:
        entered = len(unassigned)
        assigned_before = entered
        layer: list[set[int]] = []
        available = set(unassigned)
        while available:
            u = min(available)
            group = {u}
            ring = {u}
            rings: list[int] = []
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
                    rings.append(len(nxt))
                else:
                    available -= nxt
                    break
            layer.append(group)
            if trace is not None:
                trace.append({"layer": len(layers), "seed": u, "rings": rings})
        layers.append(layer)
        if trace is not None:
            trace.append(
                {
                    "layer": len(layers) - 1,
                    "entered": entered,
                    "assigned": assigned_before - len(unassigned),
                }
            )
    return _finalize(dist, r, layers)


def general_layer_bound(k: int) -> int:
    return 1 + int(math.floor(math.log(k, 1.5))) if k > 1 else 1


def general_diameter_bound(k: int, r: float) -> float:
    return 4.0 * r * int(math.floor(math.log(k, 3))) if k > 1 else 0.0


# ---------------------------------------------------------------------------
# Lp metrics: colored grid


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
    base = _cell_color(cell, level - 1)
    seq = _color_cycle(level)
    return seq[cell[level - 1] % len(seq)][base - 1]


def _cell_block(cell: tuple[int, ...], level: int) -> tuple[int, ...]:
    """Identify the maximal same-color glued run the cell belongs to."""
    if level == 1:
        return (cell[0],)
    base = _cell_color(cell, level - 1)
    t = cell[level - 1]
    p = base - 1  # pointer position that recolors this base color
    start = max(0, t - ((t - p - 1) % level))
    return _cell_block(cell, level - 1) + (start,)


def _lp_distance(a: np.ndarray, b: np.ndarray, p: float) -> float:
    diff = np.abs(a - b)
    if p == math.inf:
        return float(diff.max())
    return float((diff**p).sum() ** (1.0 / p))


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
    centers = sorted(int(c) for c in centers)
    if not centers:
        raise ValueError("center set is empty")
    pts = np.asarray(coords, dtype=float)[centers]
    if pts.ndim != 2:
        raise ValueError("coords must be a 2-d array")
    d = pts.shape[1]
    shifted = pts - pts.min(axis=0, keepdims=True)
    cells = np.floor(shifted / (2.0 * r)).astype(int)
    groups: dict[tuple[int, tuple[int, ...]], set[int]] = {}
    for cid, cell in zip(centers, cells):
        cell_t = tuple(int(x) for x in cell)
        color = _cell_color(cell_t, d)
        block = _cell_block(cell_t, d)
        groups.setdefault((color, block), set()).add(cid)
    by_color: dict[int, list[set[int]]] = {}
    for (color, _block), members in sorted(groups.items(), key=lambda kv: min(kv[1])):
        by_color.setdefault(color, []).append(members)
    layers = [by_color[c] for c in sorted(by_color)]
    # diameters under the Lp norm itself
    frozen_layers = []
    hs = []
    for layer in layers:
        frozen = tuple(sorted((frozenset(g) for g in layer), key=min))
        frozen_layers.append(frozen)
        h = 0.0
        for g in frozen:
            for a in g:
                for b in g:
                    if a < b:
                        h = max(h, _lp_distance(coords[a], coords[b], p))
        hs.append(h)
    return WellSeparatedPartition(r=r, layers=tuple(frozen_layers), h=tuple(hs))


def lp_layer_bound(d: int) -> int:
    return d + 1


def lp_diameter_bound(d: int, p: float, r: float) -> float:
    exponent = 1.0 if p == math.inf else 1.0 + 1.0 / p
    return 2.0 * r * d**exponent


# ---------------------------------------------------------------------------
# doubling metrics: ball cover, local improvement, greedy coloring


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
    threshold = doubling_layer_bound(dim)
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
            if len(nbrs) < threshold:
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
    return _finalize(dist, r, layers)


# ---------------------------------------------------------------------------
# one or two centers


def partition_two_centers(
    dist: np.ndarray, centers: Sequence[int], r: float
) -> WellSeparatedPartition:
    """Single-layer partition for up to two centers: separate groups when
    the centers are more than 2r apart, one group otherwise."""
    centers = sorted(int(c) for c in centers)
    if not 1 <= len(centers) <= 2:
        raise ValueError("this construction handles one or two centers")
    if len(centers) == 1:
        return _finalize(dist, r, [[{centers[0]}]])
    c1, c2 = centers
    if dist_leq(float(dist[c1, c2]), 2.0 * r):
        return _finalize(dist, r, [[{c1, c2}]])
    return _finalize(dist, r, [[{c1}, {c2}]])
