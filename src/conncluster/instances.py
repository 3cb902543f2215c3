"""Instance generators: adversarial families, reduction gadgets, and
seeded random instances for property tests.

The adversarial vector families demonstrate why keeping a greedy cover's
centers is lossy; the gadget generators embed SAT, clique cover, set
cover, and star multicut so that tiny combinatorial solvers can be
cross-checked against the clustering oracles.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    DISJOINT,
    Clustering,
    Instance,
    InstanceFormatError,
    clustering,
    make_instance,
)

Vector = tuple[int, ...]  # positive entries are plain values, -j encodes the
# j-th special symbol


@dataclass(frozen=True)
class GadgetMeta:
    """A generated instance plus role annotations (JSON-ready)."""

    instance: Instance
    annotations: dict


def s_sequence(upto: int) -> list[int]:
    """S(1)=0, S(2)=1, S(t+1) = S(t) * (S(t) + 1); returned 1-indexed."""
    if upto < 1:
        raise ValueError("need at least one term")
    vals = [0, 1]
    while len(vals) < upto:
        vals.append(vals[-1] * (vals[-1] + 1))
    return vals[:upto] if upto >= 2 else [0]


def _vector_label(v: Vector) -> str:
    return ",".join("_" if x < 0 else str(x) for x in v)


def _vector_instance(m: int, num_specials: int) -> tuple[Instance, dict]:
    """Vector family over m coordinates with the given number of special
    symbols; at most one special entry per vector.

    Coordinate i (1-based) ranges over 1..S(m+1-i)+1.  Per-coordinate
    distances are 0 (equal), 1 (exactly one side special), 2 (otherwise)
    and sum up.  Edges connect special-free vectors to their first-
    coordinate specializations, and vectors whose identical special
    symbol slides one coordinate to the right.  The cluster budget is
    the number of special-free vectors.
    """
    S = s_sequence(m + 1)
    ranges = [list(range(1, S[m + 1 - i - 1] + 1 + 1)) for i in range(1, m + 1)]
    # ranges[i-1] = values of coordinate i = 1..S(m+1-i)+1
    specials = [-j for j in range(1, num_specials + 1)]

    plain = [tuple(v) for v in itertools.product(*ranges)]
    special_vecs: list[Vector] = []
    for pos in range(m):
        for sp in specials:
            other = [ranges[i] for i in range(m) if i != pos]
            for rest in itertools.product(*other):
                vec = list(rest[:pos]) + [sp] + list(rest[pos:])
                special_vecs.append(tuple(vec))
    points: list[Vector] = plain + special_vecs
    index = {v: i for i, v in enumerate(points)}
    n = len(points)

    def coord_dist(a: int, b: int) -> int:
        if a == b:
            return 0
        if (a < 0) != (b < 0):
            return 1
        return 2

    dist = np.zeros((n, n))
    for i, a in enumerate(points):
        for j in range(i + 1, n):
            b = points[j]
            val = sum(coord_dist(a[t], b[t]) for t in range(m))
            dist[i, j] = dist[j, i] = val

    edges: set[tuple[int, int]] = set()
    for v in plain:
        for sp in specials:
            u = (sp,) + v[1:]
            edges.add(tuple(sorted((index[v], index[u]))))
    for b in special_vecs:
        pos = next(t for t in range(m) if b[t] < 0)
        if pos == 0:
            continue
        sp = b[pos]
        for val in ranges[pos]:
            a = b[: pos - 1] + (sp, val) + b[pos + 1 :]
            edges.add(tuple(sorted((index[a], index[b]))))

    inst = make_instance(
        dist, sorted(edges), len(plain), labels=[_vector_label(v) for v in points]
    )
    ann = {
        "m": m,
        "s_values": S,
        "points": [list(v) for v in points],
    }
    return inst, ann


def gen_worstcase_I(m: int) -> GadgetMeta:
    """Adversarial family where the natural greedy center set forces an
    assignment radius of 2m-1 although radius-2 disjoint clusterings
    exist with no more clusters."""
    if not 1 <= m <= 4:
        raise ValueError("m must be between 1 and 4")
    inst, ann = _vector_instance(m, 1)
    points = [tuple(v) for v in ann["points"]]
    centers = [i for i, v in enumerate(points) if all(x > 0 for x in v)]
    cprime = [
        i
        for i, v in enumerate(points)
        if any(v[t] < 0 for t in range(max(m - 1, 1)))
    ]
    ann.update(
        {
            "family": "worstcase-I",
            "centers": centers,
            "alt_centers": cprime if m >= 2 else centers,
            "expected_given_center_radius": 2 * m - 1,
        }
    )
    return GadgetMeta(inst, ann)


def worstcase_I_given_center_assignment(meta: GadgetMeta) -> Clustering:
    """The explicit radius-(2m-1) assignment to the annotated centers:
    a vector with its special at coordinate t joins the center that is
    all-ones up to t and matches it afterwards."""
    m = meta.annotations["m"]
    points = [tuple(v) for v in meta.annotations["points"]]
    index = {v: i for i, v in enumerate(points)}
    centers = meta.annotations["centers"]
    blocks: dict[int, set[int]] = {c: {c} for c in centers}
    for i, v in enumerate(points):
        sp = [t for t in range(m) if v[t] < 0]
        if not sp:
            continue
        t = sp[0]
        target = tuple([1] * (t + 1)) + v[t + 1 :]
        blocks[index[target]].add(i)
    return clustering(
        [blocks[c] for c in centers if blocks[c]],
        [c for c in centers if blocks[c]],
        DISJOINT,
    )


def worstcase_I_alt_clustering(meta: GadgetMeta) -> Clustering:
    """The radius-2 disjoint clustering around the alternative centers
    (vectors whose special sits before the last coordinate)."""
    m = meta.annotations["m"]
    points = [tuple(v) for v in meta.annotations["points"]]
    index = {v: i for i, v in enumerate(points)}
    if m == 1:
        centers = meta.annotations["centers"]
        blocks = {c: {c} for c in centers}
        for i, v in enumerate(points):
            if v[0] < 0:
                blocks[centers[0]].add(i)
        return clustering([blocks[c] for c in centers], centers, DISJOINT)
    alt = meta.annotations["alt_centers"]
    blocks = {c: {c} for c in alt}
    for i, v in enumerate(points):
        sp = [t for t in range(m) if v[t] < 0]
        if not sp:  # a plain vector joins its first-coordinate specialization
            target = (-1,) + v[1:]
            blocks[index[target]].add(i)
        elif sp[0] == m - 1:  # last-coordinate specials slide one step left
            t = m - 1
            target = v[: t - 1] + (-1, 1)
            blocks[index[target]].add(i)
    return clustering([blocks[c] for c in alt], alt, DISJOINT)


def gen_worstcase_Iprime(m: int) -> GadgetMeta:
    """Variant with k+1 distinct special symbols: the non-disjoint
    optimum stays 1 while every disjoint solution costs at least 2m-2."""
    if not 2 <= m <= 3:
        raise ValueError("m must be 2 or 3")
    S = s_sequence(m + 1)
    k = S[m + 1 - 1]
    inst, ann = _vector_instance(m, k + 1)
    points = [tuple(v) for v in ann["points"]]
    a_set = [i for i, v in enumerate(points) if all(x > 0 for x in v)]
    v_groups = {
        j: [i for i, v in enumerate(points) if any(x == -j for x in v)]
        for j in range(1, k + 2)
    }
    ann.update(
        {
            "family": "worstcase-Iprime",
            "k": k,
            "plain_points": a_set,
            "special_groups": {str(j): ids for j, ids in v_groups.items()},
            "nondisjoint_optimum": 1,
            "disjoint_lower_bound": 2 * m - 2,
        }
    )
    return GadgetMeta(inst, ann)


# ---------------------------------------------------------------------------
# SAT gadgets


def _check_formula(clauses: Sequence[Sequence[int]]) -> int:
    if not clauses:
        raise InstanceFormatError("formula must have at least one clause")
    nv = 0
    for cl in clauses:
        if not cl or len(cl) > 3:
            raise InstanceFormatError("clauses must have 1..3 literals")
        for lit in cl:
            if not isinstance(lit, int) or lit == 0:
                raise InstanceFormatError("literals are nonzero integers")
            nv = max(nv, abs(lit))
    return nv


def _sat_block_edges(
    t: int, f: int, xs: dict, clauses: Sequence[Sequence[int]], base_b: list[int]
):
    """Connectivity and metric-graph edges of one SAT block attached to
    the hub points t and f."""
    conn: list[tuple[int, int]] = []
    metric: list[tuple[int, int]] = []
    for i in sorted(xs):
        xi, nxi, ai = xs[i]
        conn += [(xi, t), (xi, f), (nxi, t), (nxi, f), (xi, ai), (nxi, ai)]
        metric += [(xi, t), (nxi, t), (xi, f), (nxi, f), (ai, f)]
    for j, cl in enumerate(clauses):
        bj = base_b[j]
        metric.append((bj, t))
        for lit in set(cl):
            xi, nxi, _ = xs[abs(lit)]
            conn.append((xi if lit > 0 else nxi, bj))
    return conn, metric


def _graph_distances(n: int, metric_edges: Sequence[tuple[int, int]]) -> np.ndarray:
    from .model import GraphMetric

    return GraphMetric(tuple((u, v, 1.0) for u, v in metric_edges)).realize(n)


def gen_sat_gadget(
    clauses: Sequence[Sequence[int]], variant: str = "two_center"
) -> GadgetMeta:
    """Clustering gadget for a CNF formula with at most 3 literals per
    clause.

    two_center: an assignment instance with centers {T, F} whose optimum
    is 1 when the formula is satisfiable and 3 otherwise.  four_center:
    five linked copies sharing four hub points, k=4, with a radius-1
    clustering iff the formula is satisfiable.
    """
    nv = _check_formula(clauses)
    mc = len(clauses)
    if variant == "two_center":
        t, f = 0, 1
        xs = {}
        nid = 2
        labels = ["T", "F"]
        for i in range(1, nv + 1):
            xs[i] = (nid, nid + 1, nid + 2)
            labels += [f"x{i}", f"~x{i}", f"a{i}"]
            nid += 3
        base_b = list(range(nid, nid + mc))
        labels += [f"b{j + 1}" for j in range(mc)]
        n = nid + mc
        conn, metric = _sat_block_edges(t, f, xs, clauses, base_b)
        dist = _graph_distances(n, metric)
        inst = make_instance(dist, sorted(set(conn)), 2, labels=labels)
        ann = {
            "family": "sat-two-center",
            "centers": [t, f],
            "variables": {str(i): list(xs[i]) for i in xs},
            "clause_points": base_b,
            "clauses": [list(c) for c in clauses],
        }
        return GadgetMeta(inst, ann)
    if variant == "four_center":
        hubs = [0, 1, 2, 3]
        hub_pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]  # (T_i, F_i)
        labels = ["h0", "h1", "h2", "h3"]
        nid = 4
        conn: list[tuple[int, int]] = []
        metric: list[tuple[int, int]] = []
        subs = []
        for s, (t, f) in enumerate(hub_pairs, start=1):
            xs = {}
            for i in range(1, nv + 1):
                xs[i] = (nid, nid + 1, nid + 2)
                labels += [f"x{s}{i}", f"~x{s}{i}", f"a{s}{i}"]
                nid += 3
            base_b = list(range(nid, nid + mc))
            labels += [f"b{s}{j + 1}" for j in range(mc)]
            nid += mc
            c_e, m_e = _sat_block_edges(t, f, xs, clauses, base_b)
            conn += c_e
            metric += m_e
            subs.append(
                {
                    "T": t,
                    "F": f,
                    "variables": {str(i): list(xs[i]) for i in xs},
                    "clause_points": base_b,
                }
            )
        dist = _graph_distances(nid, metric)
        inst = make_instance(dist, sorted(set(conn)), 4, labels=labels)
        ann = {
            "family": "sat-four-center",
            "centers": hubs,
            "subinstances": subs,
            "clauses": [list(c) for c in clauses],
        }
        return GadgetMeta(inst, ann)
    raise InstanceFormatError(f"unknown SAT gadget variant {variant!r}")


def sat_two_center_clustering(
    meta: GadgetMeta, assignment: dict[int, bool]
) -> Clustering:
    """The radius-1 clustering induced by a satisfying assignment."""
    ann = meta.annotations
    t, f = ann["centers"]
    t_side, f_side = {t}, {f}
    for i_str, (xi, nxi, ai) in ann["variables"].items():
        if assignment[int(i_str)]:
            t_side.add(xi)
            f_side.add(nxi)
        else:
            t_side.add(nxi)
            f_side.add(xi)
        f_side.add(ai)
    t_side.update(ann["clause_points"])
    return clustering([t_side, f_side], [t, f], DISJOINT)


def sat_four_center_clustering(
    meta: GadgetMeta, assignment: dict[int, bool]
) -> Clustering:
    """The radius-1 four-cluster solution induced by a satisfying
    assignment of the linked five-copy gadget."""
    ann = meta.annotations
    hubs = ann["centers"]
    blocks: dict[int, set[int]] = {h: {h} for h in hubs}
    # owner hub of each sub-instance role, per the linking pattern
    true_lit = {1: 0, 2: 1, 3: 2, 4: 3, 5: 0}  # x_sj -> hub when assignment true
    false_lit = {1: 1, 2: 2, 3: 3, 4: 0, 5: 2}
    a_owner = {1: 1, 2: 2, 3: 3, 4: 0, 5: 2}  # a_sj always joins F_s
    b_owner = {1: 0, 2: 1, 3: 2, 4: 3, 5: 0}  # b_sj always joins T_s
    for s_idx, sub in enumerate(ann["subinstances"], start=1):
        for i_str, (xi, nxi, ai) in sub["variables"].items():
            if assignment[int(i_str)]:
                blocks[hubs[true_lit[s_idx]]].add(xi)
                blocks[hubs[false_lit[s_idx]]].add(nxi)
            else:
                blocks[hubs[true_lit[s_idx]]].add(nxi)
                blocks[hubs[false_lit[s_idx]]].add(xi)
            blocks[hubs[a_owner[s_idx]]].add(ai)
        for bj in sub["clause_points"]:
            blocks[hubs[b_owner[s_idx]]].add(bj)
    return clustering([blocks[h] for h in hubs], hubs, DISJOINT)


# ---------------------------------------------------------------------------
# star gadgets


def gen_star_clique_cover(
    n_vertices: int, graph_edges: Sequence[tuple[int, int]], k: int
) -> GadgetMeta:
    """Star whose non-disjoint k-diameter optimum is 1 iff the source
    graph has a clique cover of size k."""
    if n_vertices < 1 or not 1 <= k < n_vertices:
        raise InstanceFormatError("need a nonempty graph and 1 <= k < n_vertices")
    edge_set = set()
    for u, v in graph_edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
            raise InstanceFormatError(f"bad source edge ({u}, {v})")
        edge_set.add((min(u, v), max(u, v)))
    n = n_vertices + 1
    dist = np.full((n, n), 2.0)
    np.fill_diagonal(dist, 0.0)
    dist[0, :] = dist[:, 0] = 1.0
    dist[0, 0] = 0.0
    for u, v in edge_set:
        dist[u + 1, v + 1] = dist[v + 1, u + 1] = 1.0
    conn = [(0, i) for i in range(1, n)]
    inst = make_instance(dist, conn, k, labels=["root"] + [f"v{i}" for i in range(n_vertices)])
    ann = {
        "family": "star-clique-cover",
        "root": 0,
        "source_edges": sorted(edge_set),
        "n_vertices": n_vertices,
        "target_k": k,
        "objective": "diameter",
        "mode": "non_disjoint",
    }
    return GadgetMeta(inst, ann)


def gen_star_set_cover(
    n_elements: int, sets: Sequence[Sequence[int]], k: int
) -> GadgetMeta:
    """Star whose non-disjoint k-center optimum is 1 iff k of the given
    sets cover all elements."""
    if n_elements < 1 or not sets or not 1 <= k <= len(sets):
        raise InstanceFormatError("need elements, sets and 1 <= k <= #sets")
    covered = set()
    for s in sets:
        for e in s:
            if not 0 <= e < n_elements:
                raise InstanceFormatError(f"element {e} out of range")
            covered.add(e)
    if covered != set(range(n_elements)):
        raise InstanceFormatError("every element must occur in some set")
    m = len(sets)
    n = 1 + n_elements + m
    dist = np.full((n, n), 2.0)
    np.fill_diagonal(dist, 0.0)
    for j in range(m):
        w = 1 + n_elements + j
        dist[0, w] = dist[w, 0] = 1.0
        for j2 in range(j + 1, m):
            w2 = 1 + n_elements + j2
            dist[w, w2] = dist[w2, w] = 1.0
        for e in sets[j]:
            dist[1 + e, w] = dist[w, 1 + e] = 1.0
    conn = [(0, i) for i in range(1, n)]
    labels = ["z"] + [f"e{i}" for i in range(n_elements)] + [f"S{j}" for j in range(m)]
    inst = make_instance(dist, conn, k, labels=labels)
    ann = {
        "family": "star-set-cover",
        "root": 0,
        "elements": list(range(1, 1 + n_elements)),
        "set_points": list(range(1 + n_elements, n)),
        "sets": [sorted(set(s)) for s in sets],
        "target_k": k,
        "objective": "center",
        "mode": "non_disjoint",
    }
    return GadgetMeta(inst, ann)


def gen_star_multicut(
    n_leaves: int, pairs: Sequence[tuple[int, int]], k: int
) -> GadgetMeta:
    """Star whose disjoint (k+1)-diameter optimum is 1 iff deleting k
    star edges separates all given leaf pairs."""
    if n_leaves < 1 or not 0 <= k < n_leaves:
        raise InstanceFormatError("need leaves and 0 <= k < n_leaves")
    pair_set = set()
    for u, v in pairs:
        if not (0 <= u < n_leaves and 0 <= v < n_leaves) or u == v:
            raise InstanceFormatError(f"bad pair ({u}, {v})")
        pair_set.add((min(u, v), max(u, v)))
    n = n_leaves + 1
    dist = np.full((n, n), 1.0)
    np.fill_diagonal(dist, 0.0)
    for u, v in pair_set:
        dist[u + 1, v + 1] = dist[v + 1, u + 1] = 2.0
    conn = [(0, i) for i in range(1, n)]
    inst = make_instance(
        dist, conn, k + 1, labels=["root"] + [f"v{i}" for i in range(n_leaves)]
    )
    ann = {
        "family": "star-multicut",
        "root": 0,
        "pairs": sorted(pair_set),
        "n_leaves": n_leaves,
        "target_k": k,
        "instance_k": k + 1,
        "objective": "diameter",
        "mode": "disjoint",
    }
    return GadgetMeta(inst, ann)


# ---------------------------------------------------------------------------
# random families


def _random_symmetric_matrix(rng: random.Random, n: int, max_distance: int) -> np.ndarray:
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = float(rng.randint(1, max_distance))
    return m


def _shortest_path_closure(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    n = out.shape[0]
    for t in range(n):
        out = np.minimum(out, out[:, t][:, None] + out[t, :][None, :])
    return out


def _prim_mst(dist: np.ndarray) -> list[tuple[int, int]]:
    n = dist.shape[0]
    best = dist[0].copy()
    best_from = np.zeros(n, dtype=int)
    used = np.zeros(n, dtype=bool)
    used[0] = True
    edges = []
    for _ in range(n - 1):
        cand = np.where(used, np.inf, best)
        v = int(np.argmin(cand))
        edges.append((int(best_from[v]), v))
        used[v] = True
        closer = dist[v] < best
        best_from[closer] = v
        best = np.minimum(best, dist[v])
    return edges


def gen_random(
    family: str,
    n: int,
    k: int,
    seed: int,
    *,
    dim: int = 2,
    p: float = 2,
    max_distance: int = 9,
    edge_prob: float = 0.35,
    metric_repair: Optional[bool] = None,
) -> Instance:
    """Seed-deterministic instance families.

    line/tree build the respective connectivity graph over a random
    integer-grid distance matrix (non-metric unless repaired); general
    adds extra edges to a random spanning tree and repairs the metric by
    default; lp samples unit-cube coordinates and connects them by their
    minimum spanning tree.
    """
    if not 1 <= k <= n:
        raise InstanceFormatError("need 1 <= k <= n")
    rng = random.Random(seed)
    if family == "line":
        m = _random_symmetric_matrix(rng, n, max_distance)
        if metric_repair:
            m = _shortest_path_closure(m)
        return make_instance(m, [(i, i + 1) for i in range(n - 1)], k)
    if family == "tree":
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        m = _random_symmetric_matrix(rng, n, max_distance)
        if metric_repair:
            m = _shortest_path_closure(m)
        return make_instance(m, edges, k)
    if family == "general":
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges and rng.random() < edge_prob:
                    edges.add((i, j))
        m = _random_symmetric_matrix(rng, n, max_distance)
        if metric_repair is None or metric_repair:
            m = _shortest_path_closure(m)
        return make_instance(m, sorted(edges), k)
    if family == "lp":
        coords = np.array([[rng.random() for _ in range(dim)] for _ in range(n)])
        from .model import LpMetric

        dist = LpMetric(coords, p).realize(n)
        return make_instance(
            dist, _prim_mst(dist), k, coords=coords, p=p, metric_kind="lp"
        )
    raise InstanceFormatError(f"unknown random family {family!r}")
