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

from .model import GraphMetric, Instance, InstanceFormatError, LpMetric, make_instance, point_ids

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
    symbol slides one coordinate to the right.  The special-free vectors
    come first, and their number is the cluster budget.
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

    # each differing coordinate costs 1, and 1 more unless exactly one
    # side is special; the sums of small integers are exact in float64
    rows = np.array(points)[:, None]
    cols = rows.transpose(1, 0, 2)
    differ = rows != cols
    dist = differ.sum(2, dtype=float) + (differ & ((rows < 0) == (cols < 0))).sum(2, dtype=float)

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
        raise InstanceFormatError("m must be between 1 and 4")
    inst, ann = _vector_instance(m, 1)
    centers = list(range(inst.k))
    cprime = [
        i
        for i, v in enumerate(ann["points"])
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


def gen_worstcase_Iprime(m: int) -> GadgetMeta:
    """Variant with k+1 distinct special symbols: the non-disjoint
    optimum stays 1 while every disjoint solution costs at least 2m-2."""
    if not 2 <= m <= 3:
        raise InstanceFormatError("m must be 2 or 3")
    k = s_sequence(m + 1)[m]  # S(m+1), the number of special-free vectors
    inst, ann = _vector_instance(m, k + 1)
    ann.update(
        {
            "family": "worstcase-Iprime",
            "k": k,
            "plain_points": list(range(k)),
            "special_groups": {
                str(j): [i for i, v in enumerate(ann["points"]) if -j in v]
                for j in range(1, k + 2)
            },
            "nondisjoint_optimum": 1,
            "disjoint_lower_bound": 2 * m - 2,
        }
    )
    return GadgetMeta(inst, ann)


# ---------------------------------------------------------------------------
# SAT gadgets


def _check_formula(clauses: Sequence[Sequence[int]]) -> list[int]:
    """The variables that occur in the formula, ascending."""
    if not clauses:
        raise InstanceFormatError("formula must have at least one clause")
    variables = set()
    for cl in clauses:
        if not cl or len(cl) > 3:
            raise InstanceFormatError("clauses must have 1..3 literals")
        for lit in cl:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise InstanceFormatError("literals are nonzero integers")
            variables.add(abs(lit))
    return sorted(variables)


#: variant -> hub labels, the (T, F) hub pair of each block, and each
#: block's infix in its point labels
_SAT_VARIANTS = {
    "two_center": (["T", "F"], [(0, 1)], [""]),
    "four_center": (["h0", "h1", "h2", "h3"], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], "12345"),
}


def gen_sat_gadget(
    clauses: Sequence[Sequence[int]], variant: str = "two_center"
) -> GadgetMeta:
    """Clustering gadget for a CNF formula with at most 3 literals per
    clause.

    two_center: an assignment instance with centers {T, F} whose optimum
    is 1 when the formula is satisfiable and 3 otherwise.  four_center:
    five linked copies sharing four hub points, k=4, with a radius-1
    clustering iff the formula is satisfiable.

    Each block attaches, to its hubs t and f, points x, ~x and a per
    variable and b per clause, all after the hubs.
    """
    variables = _check_formula(clauses)
    if variant not in _SAT_VARIANTS:
        raise InstanceFormatError(f"unknown SAT gadget variant {variant!r}")
    hubs, hub_pairs, infixes = _SAT_VARIANTS[variant]
    labels = list(hubs)
    nid = len(hubs)
    conn: list[tuple[int, int]] = []
    metric: list[tuple[int, int]] = []
    blocks = []
    for s, (t, f) in zip(infixes, hub_pairs):
        xs = {}
        for i in variables:
            xi, nxi, ai = xs[i] = (nid, nid + 1, nid + 2)
            labels += [f"x{s}{i}", f"~x{s}{i}", f"a{s}{i}"]
            conn += [(xi, t), (xi, f), (nxi, t), (nxi, f), (xi, ai), (nxi, ai)]
            metric += [(xi, t), (nxi, t), (xi, f), (nxi, f), (ai, f)]
            nid += 3
        base_b = list(range(nid, nid + len(clauses)))
        labels += [f"b{s}{j + 1}" for j in range(len(clauses))]
        nid += len(clauses)
        for bj, cl in zip(base_b, clauses):
            metric.append((bj, t))
            for lit in set(cl):
                xi, nxi, _ = xs[abs(lit)]
                conn.append((xi if lit > 0 else nxi, bj))
        blocks.append({"variables": {str(i): list(xs[i]) for i in xs}, "clause_points": base_b})
    dist = GraphMetric(tuple((u, v, 1.0) for u, v in metric)).realize(nid)
    inst = make_instance(dist, sorted(set(conn)), len(hubs), labels=labels)
    ann = {"family": "sat-" + variant.replace("_", "-"), "centers": list(range(len(hubs)))}
    if variant == "two_center":
        ann.update(blocks[0])
    else:
        ann["subinstances"] = [{"T": t, "F": f, **b} for (t, f), b in zip(hub_pairs, blocks)]
    ann["clauses"] = [list(c) for c in clauses]
    return GadgetMeta(inst, ann)


# ---------------------------------------------------------------------------
# star gadgets


def _id_pairs(pairs: Sequence[tuple[int, int]], n: int, what: str, bad: str) -> list[tuple[int, int]]:
    """The distinct pairs of distinct ids in 0..n-1, each as (smaller,
    larger), ascending; each id passes ``point_ids`` as a ``what`` id."""
    out = set()
    for pair in pairs:
        u, v = point_ids(pair, what=what)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InstanceFormatError(f"bad {bad} ({u}, {v})")
        out.add((min(u, v), max(u, v)))
    return sorted(out)


def _star(dist: np.ndarray, k: int, labels: list[str]) -> Instance:
    """The instance on ``dist``, its diagonal zeroed, whose connectivity
    graph joins point 0 to every other point."""
    np.fill_diagonal(dist, 0.0)
    return make_instance(dist, [(0, i) for i in range(1, len(dist))], k, labels=labels)


def gen_star_clique_cover(
    n_vertices: int, graph_edges: Sequence[tuple[int, int]], k: int
) -> GadgetMeta:
    """Star whose non-disjoint k-diameter optimum is 1 iff the source
    graph has a clique cover of size k."""
    if n_vertices < 1 or not 1 <= k < n_vertices:
        raise InstanceFormatError("need a nonempty graph and 1 <= k < n_vertices")
    edges = _id_pairs(graph_edges, n_vertices, "vertex", "source edge")
    dist = np.full((n_vertices + 1, n_vertices + 1), 2.0)
    dist[0, :] = dist[:, 0] = 1.0
    for u, v in edges:
        dist[u + 1, v + 1] = dist[v + 1, u + 1] = 1.0
    inst = _star(dist, k, ["root"] + [f"v{i}" for i in range(n_vertices)])
    ann = {
        "family": "star-clique-cover",
        "root": 0,
        "source_edges": edges,
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
    checked = []
    for s in sets:
        s = point_ids(s, what="element")
        for e in s:
            if not 0 <= e < n_elements:
                raise InstanceFormatError(f"element {e} out of range")
        checked.append(sorted(set(s)))
    sets = checked
    if set().union(*sets) != set(range(n_elements)):
        raise InstanceFormatError("every element must occur in some set")
    n = 1 + n_elements + len(sets)
    set_points = list(range(1 + n_elements, n))
    # the root and the set points lie at 1 from each other, each element
    # at 1 from the sets that hold it, and every other pair at 2
    dist = np.full((n, n), 2.0)
    dist[np.ix_([0] + set_points, [0] + set_points)] = 1.0
    for w, s in zip(set_points, sets):
        dist[[1 + e for e in s], w] = dist[w, [1 + e for e in s]] = 1.0
    labels = ["z"] + [f"e{i}" for i in range(n_elements)] + [f"S{j}" for j in range(len(sets))]
    ann = {
        "family": "star-set-cover",
        "root": 0,
        "elements": list(range(1, 1 + n_elements)),
        "set_points": set_points,
        "sets": sets,
        "target_k": k,
        "objective": "center",
        "mode": "non_disjoint",
    }
    return GadgetMeta(_star(dist, k, labels), ann)


def gen_star_multicut(
    n_leaves: int, pairs: Sequence[tuple[int, int]], k: int
) -> GadgetMeta:
    """Star whose disjoint (k+1)-diameter optimum is 1 iff deleting k
    star edges separates all given leaf pairs."""
    if n_leaves < 1 or not 0 <= k < n_leaves:
        raise InstanceFormatError("need leaves and 0 <= k < n_leaves")
    pairs = _id_pairs(pairs, n_leaves, "leaf", "pair")
    dist = np.full((n_leaves + 1, n_leaves + 1), 1.0)
    for u, v in pairs:
        dist[u + 1, v + 1] = dist[v + 1, u + 1] = 2.0
    inst = _star(dist, k + 1, ["root"] + [f"v{i}" for i in range(n_leaves)])
    ann = {
        "family": "star-multicut",
        "root": 0,
        "pairs": pairs,
        "n_leaves": n_leaves,
        "target_k": k,
        "instance_k": k + 1,
        "objective": "diameter",
        "mode": "disjoint",
    }
    return GadgetMeta(inst, ann)


# ---------------------------------------------------------------------------
# random families


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit outputs of ``rng``, in order: CPython's
    ``getrandbits`` puts its first output in the least significant word."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


def _randints(rng: random.Random, count: int, high: int) -> np.ndarray:
    """``count`` draws of ``rng.randint(1, high)``, ``1 <= high < 2**32``,
    as uint32, leaving ``rng`` where the scalar calls would.

    A scalar draw keeps the top ``high.bit_length()`` bits of one output
    and retries while they reach ``high``, so the values are the accepted
    outputs in order. Each round takes as many outputs as values are still
    missing, so the stream never runs past the last accepted one."""
    shift = 32 - high.bit_length()
    out = np.empty(count, dtype=np.uint32)
    filled = 0
    while filled < count:
        r = _words(rng, count - filled) >> shift
        r = r[r < high]
        out[filled : filled + r.size] = r + 1
        filled += r.size
    return out


def _randoms(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws of ``rng.random()``: two outputs each, combined as
    CPython combines them."""
    a, b = _words(rng, 2 * count).reshape(count, 2).T
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def _random_symmetric_matrix(rng: random.Random, n: int, max_distance: int) -> np.ndarray:
    """Symmetric matrix with a zero diagonal whose strict upper triangle,
    in row-major order, holds ``randint(1, max_distance)`` draws."""
    m = np.zeros((n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    m[upper] = m.T[upper] = _randints(rng, n * (n - 1) // 2, max_distance)
    return m


def _general_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random spanning tree ``(randrange(i), i)`` plus each other pair
    ``i < j`` with chance ``EDGE_PROB``, one ``random()`` per pair in
    row-major order; sorted."""
    parent = np.array([rng.randrange(i) for i in range(1, n)], dtype=int)
    chosen = np.zeros((n, n), dtype=bool)
    chosen[parent, np.arange(1, n)] = True
    free = np.triu(~chosen, 1)
    chosen[free] = _randoms(rng, int(free.sum())) < EDGE_PROB
    return list(zip(*(ids.tolist() for ids in np.nonzero(chosen))))


def _shortest_path_closure(m: np.ndarray) -> None:
    """Replace ``m`` in place by its shortest-path closure. Each sum is
    built before it is written, so working in place changes no value."""
    for t in range(m.shape[0]):
        np.minimum(m, m[:, t, None] + m[t], out=m)


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


#: chance that ``gen_random("general", ...)`` adds each non-tree edge
EDGE_PROB = 0.35


def gen_random(
    family: str,
    n: int,
    k: int,
    seed: int,
    *,
    dim: int = 2,
    p: float = 2,
    max_distance: int = 9,
    metric_repair: Optional[bool] = None,
) -> Instance:
    """Seed-deterministic instance families.

    line/tree build the respective connectivity graph over a random
    integer-grid distance matrix (non-metric unless repaired); general
    adds extra edges to a random spanning tree and repairs the metric by
    default; lp samples unit-cube coordinates and connects them by their
    minimum spanning tree. ``max_distance`` lies in ``[1, 2**32 - 1]``.

    Each family's numbers come in a few bulk draws from one
    ``random.Random(seed)`` stream, equal to the scalar ``randint`` and
    ``random`` calls on that stream, so a seed always gives the same
    instance.
    """
    if not 1 <= k <= n:
        raise InstanceFormatError("need 1 <= k <= n")
    if not 1 <= max_distance < 2**32:
        raise InstanceFormatError(f"need 1 <= max_distance <= 2**32 - 1, got {max_distance}")
    rng = random.Random(seed)
    if family == "lp":
        if dim < 0:
            raise InstanceFormatError("need dim >= 0")
        coords = _randoms(rng, n * dim).reshape(n, dim)
        dist = LpMetric(coords, p).realize(n)
        return make_instance(dist, _prim_mst(dist), k, coords=coords, p=p)
    # the edges are drawn before the matrix: a seed's instance depends on that order
    if family == "line":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "tree":
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    elif family == "general":
        edges = _general_edges(rng, n)
    else:
        raise InstanceFormatError(f"unknown random family {family!r}")
    m = _random_symmetric_matrix(rng, n, max_distance)
    if metric_repair or (metric_repair is None and family == "general"):
        _shortest_path_closure(m)
    return make_instance(m, edges, k)
