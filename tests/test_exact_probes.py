"""The vectorized exact probes against the loops they replaced.

``loop_line_reach``, ``loop_line_center`` and ``loop_line_diameter`` are
the line sweeps ``exact`` used to run, with scalar ``dist_leq`` tests
per position pair; ``loop_tree_tables`` is the subtree DP table fill it
used to run, one freshly allocated row per node, and ``loop_tree_dp_solve``
the tree DP solve that probed with it on paths too.
``loop_tree_assignment`` is the fixed-center tree assignment that built
its forest again at every radius.  ``path_order`` and ``is_tree`` are the
shape tests the loops ran (``_tree_refs``).  The new probes must return
the same clusterings (or both None) at every radius, and the tables must
be equal entry for entry, so that the radius searches, the DP
reconstruction and every CLI byte stay the same.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import exact
from conncluster.exact import (
    _path_count,
    _path_matrix,
    _reconstruct,
    _tree_context,
    _tree_tables,
    line_center_nondisjoint,
    line_diameter,
    solve_line_center_nondisjoint,
    solve_line_diameter,
    solve_tree_assignment,
    tree_assignment,
    tree_dp_solve,
)
from conncluster.instances import gen_random
from conncluster.model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    REL_TOL,
    AlgorithmPreconditionError,
    InfeasibleError,
    binary_search_min_feasible,
    candidate_radii,
    clustering,
    clustering_cost,
    dedup_radii,
    dist_leq,
    make_instance,
    make_report,
)

import _search_refs
from _tree_refs import is_tree, path_order, tree_context


def loop_line_reach(inst, order, r):
    n = len(order)
    d = inst.dist
    a, b = [], []
    for i in range(n):
        lo = i
        while lo - 1 >= 0 and dist_leq(float(d[order[lo - 1], order[i]]), r):
            lo -= 1
        hi = i
        while hi + 1 < n and dist_leq(float(d[order[hi + 1], order[i]]), r):
            hi += 1
        a.append(lo)
        b.append(hi)
    return a, b


def loop_line_center(inst, r):
    order = path_order(inst)
    a, b = loop_line_reach(inst, order, r)
    n = len(order)
    clusters, centers = [], []
    next_uncovered = 0
    while next_uncovered < n:
        u = next_uncovered
        candidates = [i for i in range(n) if a[i] <= u <= b[i]]
        i = max(candidates, key=lambda t: (b[t], -t))
        clusters.append([order[t] for t in range(min(i, u), b[i] + 1)])
        centers.append(order[i])
        next_uncovered = b[i] + 1
    if len(clusters) > inst.k:
        return None
    return clustering(clusters, centers, NON_DISJOINT)


def loop_line_diameter(inst, r):
    order = path_order(inst)
    n = len(order)
    d = inst.dist
    segments = []
    i = 0
    while i < n:
        h = i
        while h + 1 < n and all(
            dist_leq(float(d[order[h + 1], order[t]]), r) for t in range(i, h + 1)
        ):
            h += 1
        segments.append([order[t] for t in range(i, h + 1)])
        i = h + 1
    if len(segments) > inst.k:
        return None
    return clustering(segments, None, DISJOINT)


def loop_tree_tables(ctx, r):
    n = len(ctx.nodes)
    a = ctx.dprime
    feas = a <= r + REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), abs(r)))
    I = np.full((n, n), np.inf)
    Fz = np.zeros((n, n))
    Ia = np.zeros(n)
    for a in range(n - 1, -1, -1):
        s, e = a, ctx.out[a]
        if ctx.children[a]:
            S = Fz[ctx.children[a]].sum(axis=0)
        else:
            S = np.zeros(n)
        row = np.full(n, np.inf)
        row[a] = 1.0 + S[a]
        for c in ctx.children[a]:
            row[c : ctx.out[c]] = I[c, c : ctx.out[c]] + S[c : ctx.out[c]]
        row[~feas[:, a]] = np.inf
        I[a, s:e] = row[s:e]
        Ia[a] = row[s:e].min()
        f = np.where(feas[:, a], np.minimum(S, Ia[a]), Ia[a])
        f[s:e] = 0.0
        Fz[a] = f
    return I, Fz, Ia, feas


def loop_tree_dp_solve(inst):
    ctx = _tree_context(inst)

    def probe(r):
        tables = loop_tree_tables(ctx, r)
        return tables if tables[2][0] <= inst.k else None

    _, (I, Fz, Ia, feas) = binary_search_min_feasible(candidate_radii(inst), probe)
    by_center = {}
    for a, b in _reconstruct(ctx, I, Fz, Ia, feas).items():
        by_center.setdefault(b, set()).add(ctx.nodes[a])
    centers = sorted(by_center, key=lambda b: ctx.nodes[b])
    result = clustering(
        [by_center[b] for b in centers], [ctx.nodes[b] for b in centers], DISJOINT
    )
    bound = clustering_cost(inst, result, CENTER)
    return make_report(inst, result, CENTER, "tree-dp", bound=bound), result


def loop_tree_assignment(inst, C, r):
    if not is_tree(inst):
        raise AlgorithmPreconditionError("connectivity graph is not a tree")
    C = sorted(int(c) for c in C)
    if not C:
        raise AlgorithmPreconditionError("need at least one center")
    if len(set(C)) != len(C):
        raise AlgorithmPreconditionError("centers must be distinct")
    if not all(0 <= c < inst.n for c in C):
        raise AlgorithmPreconditionError("center ids out of range")
    if set(C) == set(range(inst.n)):
        return clustering([{c} for c in C], C, DISJOINT)

    adj = {v: set(inst.adj[v]) for v in range(inst.n)}
    orig = {v: v for v in range(inst.n)}
    is_center = {v: v in set(C) for v in range(inst.n)}
    next_id = inst.n
    queue = [c for c in C]
    while queue:
        c = queue.pop()
        if len(adj[c]) < 2:
            continue
        for nb in sorted(adj[c]):
            copy = next_id
            next_id += 1
            orig[copy] = orig[c]
            is_center[copy] = True
            adj[copy] = {nb}
            adj[nb].discard(c)
            adj[nb].add(copy)
        del adj[c], is_center[c], orig[c]

    seen = set()
    blocks = {c: {c} for c in C}
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        side = loop_assign_component(inst, comp, adj, orig, is_center, r)
        if side is None:
            return None
        for v, c in side.items():
            blocks[orig[c]].add(orig[v])
    return clustering([blocks[c] for c in C], C, DISJOINT)


def loop_assign_component(inst, comp, adj, orig, is_center, r):
    centers = {v for v in comp if is_center[v]}
    if not centers:
        return None
    non_centers = comp - centers
    if not non_centers:
        return {v: v for v in comp}
    root = min(non_centers)

    parent = {root: -1}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in sorted(adj[v], reverse=True):
            if u not in parent:
                parent[u] = v
                stack.append(u)
    post = list(reversed(order))
    children = {v: [] for v in comp}
    for v in order[1:]:
        children[parent[v]].append(v)

    need = {v: {v} for v in comp}
    reach = {v: set() for v in comp}
    d = inst.dist
    for v in post:
        if is_center[v]:
            reach[v] = {v}
            continue
        for u in children[v]:
            for c in reach[u]:
                if all(dist_leq(float(d[orig[x], orig[c]]), r) for x in need[v]):
                    reach[v].add(c)
        if not reach[v]:
            if v == root:
                return None
            need[parent[v]] |= need[v]

    side = {}
    for v in reversed(post):
        if v in side:
            continue
        c = min(reach[v], key=lambda t: (orig[t], t))
        path = [c]
        while path[-1] != v:
            path.append(parent[path[-1]])
        for x in path:
            for y in need[x]:
                side[y] = c
    return side


def loop_solve_tree_assignment(inst, C):
    C = sorted(int(c) for c in C)
    if len(C) > inst.k:
        raise AlgorithmPreconditionError(f"{len(C)} centers exceed the budget k={inst.k}")
    cands = dedup_radii(inst.dist[:, C], leq=True)
    found = _search_refs.binary_search_min_feasible(
        cands, lambda r: loop_tree_assignment(inst, C, r)
    )
    if found is None:
        raise InfeasibleError("the given centers cannot serve every point")
    r, result = found
    return make_report(inst, result, CENTER, algorithm="tree-assign", bound=r), result


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (AlgorithmPreconditionError, InfeasibleError) as exc:
        return type(exc), str(exc)


def loop_solve_line(inst, objective):
    probe = loop_line_diameter if objective == DIAMETER else loop_line_center
    r, result = binary_search_min_feasible(candidate_radii(inst), lambda r: probe(inst, r))
    algorithm = "line-diameter" if objective == DIAMETER else "line-center"
    return make_report(inst, result, objective, algorithm=algorithm, bound=r), result


def probe_radii(inst):
    """Every candidate radius and the floats one ulp either side of it,
    and a negative radius, at which no point can host even itself."""
    out = [-1.0]
    for r in candidate_radii(inst):
        out += [math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf)]
    return out


def assert_same_tables(got, want):
    """Equal entry for entry, sign bits included; the counts are held
    in float32, which is exact for whole numbers up to 2**24 and inf."""
    for g, w in zip(got, want, strict=True):
        assert g.dtype == (bool if w.dtype == bool else np.float32) and g.shape == w.shape
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


# Small integer distances make ties; each may sit exactly on, or one ulp
# off, the tolerance boundary r * (1 + REL_TOL) of another radius.
BASES = (0.0, 1.0, 2.0, 3.0, 5.0, 1e6)


@st.composite
def distance(draw):
    base = draw(st.sampled_from(BASES))
    shape = draw(st.sampled_from(("tie", "tol", "tol-ulp", "ulp")))
    if shape == "tie":
        return base
    edge = base + REL_TOL * max(1.0, base)
    if shape == "tol":
        return edge
    if shape == "tol-ulp":
        return math.nextafter(edge, draw(st.sampled_from((0.0, math.inf))))
    return math.nextafter(base, math.inf)


@st.composite
def instances(draw, family):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(distance())
    perm = draw(st.permutations(range(n)))
    if family == "line":
        edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    else:
        edges = [(perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)]
    return make_instance(m, edges, k)


@settings(max_examples=150)
@given(instances("line"))
def test_line_probes_match_loops(inst):
    for r in probe_radii(inst):
        assert line_center_nondisjoint(inst, r) == loop_line_center(inst, r)
        assert line_diameter(inst, r) == loop_line_diameter(inst, r)
    assert solve_line_center_nondisjoint(inst) == loop_solve_line(inst, CENTER)
    assert solve_line_diameter(inst) == loop_solve_line(inst, DIAMETER)


@settings(max_examples=150)
@given(st.one_of(instances("tree"), instances("line")))
def test_tree_tables_match_loop(inst):
    ctx = _tree_context(inst)
    for r in probe_radii(inst):
        assert_same_tables(_tree_tables(ctx, r), loop_tree_tables(ctx, r))


def _shape_edges(draw, shape, n):
    """Edges of a tree of the given shape on 0..n-1, before relabeling."""
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "binary":  # complete: i hangs from (i - 1) // 2
        return [((i - 1) // 2, i) for i in range(1, n)]
    if shape == "caterpillar":  # a spine, each other point hung from one spine point
        spine = draw(st.integers(1, n))
        legs = [(draw(st.integers(0, spine - 1)), i) for i in range(spine, n)]
        return [(i, i + 1) for i in range(spine - 1)] + legs
    return [(i, i + 1) for i in range(n - 1)]  # path


@st.composite
def shaped_trees(draw):
    """Trees whose height levels are large, small or single: stars,
    caterpillars, complete binary trees, paths with point 0 inside (so
    that pre-order differs from the order along the path), and n = 1, 2.
    The root, point 0, may land anywhere."""
    shape = draw(st.sampled_from(("star", "caterpillar", "binary", "path", "tiny")))
    n = draw(st.integers(1, 2) if shape == "tiny" else st.integers(3, 16))
    perm = draw(st.permutations(range(n)))
    if shape == "path":  # point 0 at neither end
        at = perm.index(0)
        inner = draw(st.integers(1, n - 2))
        perm[at], perm[inner] = perm[inner], perm[at]
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(distance())
    edges = [(perm[u], perm[v]) for u, v in _shape_edges(draw, shape, n)]
    return make_instance(m, edges, draw(st.integers(1, n)))


@settings(max_examples=150)
@given(shaped_trees())
def test_level_fill_matches_loops_on_tree_shapes(inst):
    """The level-by-level ``dprime`` equals the old loops', and the
    tables equal the loop fill over the old context at every radius."""
    ctx, ref = _tree_context(inst), tree_context(inst)
    assert (ctx.nodes, ctx.children, ctx.out) == (ref.nodes, ref.children, ref.out)
    assert np.array_equal(ctx.dprime, ref.dprime)
    for r in probe_radii(inst):
        assert_same_tables(_tree_tables(ctx, r), loop_tree_tables(ref, r))


def test_tree_shapes_reach_batch_and_single_levels():
    """A star's leaves make one batch; a path has no level as wide."""
    star = make_instance(np.ones((8, 8)) - np.eye(8), [(0, i) for i in range(1, 8)], 2)
    path = make_instance(np.ones((8, 8)) - np.eye(8), [(i, i + 1) for i in range(7)], 2)
    kinds = [[isinstance(g, exact._Level) for g in _tree_context(inst).levels] for inst in (star, path)]
    assert kinds == [[True, False], [False] * 8]


def test_tree_dp_fills_tables_once_per_probe(monkeypatch):
    """The solve reconstructs from the last feasible probe's tables
    instead of filling them again."""
    inst = gen_random("tree", 30, 3, seed=4, max_distance=30)
    fills, probes = [], []

    def counting_tables(ctx, r):
        fills.append(r)
        return _tree_tables(ctx, r)

    def counting_search(candidates, probe):
        return binary_search_min_feasible(candidates, lambda r: probes.append(r) or probe(r))

    monkeypatch.setattr(exact, "_tree_tables", counting_tables)
    monkeypatch.setattr(exact, "binary_search_min_feasible", counting_search)
    exact.tree_dp_solve(inst)
    assert fills == probes and len(probes) > 1


def test_seeded_instances_match_loops(monkeypatch):
    """Larger seeded documents, and the whole tree DP solve with the old
    tables swapped in."""
    for seed in range(12):
        n = 20 + 7 * seed
        k = 1 + seed % 6
        line = gen_random("line", n, k, seed=seed, max_distance=30)
        tree = gen_random("tree", n, k, seed=seed, max_distance=30)
        radii = candidate_radii(line)[:: max(1, n // 8)]
        for r in radii:
            assert line_center_nondisjoint(line, r) == loop_line_center(line, r)
            assert line_diameter(line, r) == loop_line_diameter(line, r)
        assert solve_line_center_nondisjoint(line) == loop_solve_line(line, CENTER)
        assert solve_line_diameter(line) == loop_solve_line(line, DIAMETER)
        for inst in (line, tree):
            ctx = _tree_context(inst)
            for r in candidate_radii(inst)[:: max(1, n // 4)]:
                assert_same_tables(_tree_tables(ctx, r), loop_tree_tables(ctx, r))
            got = tree_dp_solve(inst)
            with monkeypatch.context() as m:
                m.setattr(exact, "_tree_tables", loop_tree_tables)
                assert got == tree_dp_solve(inst)


@settings(max_examples=150)
@given(instances("line"))
def test_path_count_matches_tables(inst):
    ctx = _tree_context(inst)
    _, D = _path_matrix(inst)
    for r in probe_radii(inst):
        assert _path_count(D, r) == _tree_tables(ctx, r)[2][0]


@settings(max_examples=100)
@given(instances("line"))
def test_path_tree_dp_matches_table_probes(inst):
    assert tree_dp_solve(inst) == loop_tree_dp_solve(inst)


def test_seeded_paths_tree_dp_matches_table_probes():
    for seed in range(10):
        n = 15 * (seed + 1)
        inst = gen_random("line", n, 1 + seed % 7, seed=seed + 100, max_distance=30)
        assert tree_dp_solve(inst) == loop_tree_dp_solve(inst)


def test_path_tree_dp_fills_tables_once(monkeypatch):
    """On a path the probes only count; the tables are filled once, at
    the radius the search returns."""
    inst = gen_random("line", 30, 3, seed=4, max_distance=30)
    fills, found = [], []

    def counting_tables(ctx, r):
        fills.append(r)
        return _tree_tables(ctx, r)

    def recording_search(candidates, probe):
        found.append(binary_search_min_feasible(candidates, probe))
        return found[-1]

    monkeypatch.setattr(exact, "_tree_tables", counting_tables)
    monkeypatch.setattr(exact, "binary_search_min_feasible", recording_search)
    exact.tree_dp_solve(inst)
    assert fills == [found[0][0]]


@st.composite
def centered_trees(draw):
    """A tie-heavy tree and a center subset: any subset, interior centers
    included, or all points."""
    inst = draw(instances("tree"))
    points = range(inst.n)
    subsets = st.lists(st.sampled_from(points), min_size=1, unique=True)
    C = draw(st.one_of(st.just(list(points)), subsets))
    return inst, C


def assignment_radii(inst, C):
    out = []
    for r in dedup_radii(inst.dist[:, sorted(C)], leq=True):
        out += [math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf)]
    return out


@settings(max_examples=200)
@given(centered_trees())
def test_tree_assignment_matches_loop(case):
    inst, C = case
    for r in assignment_radii(inst, C):
        assert tree_assignment(inst, C, r) == loop_tree_assignment(inst, C, r)
    assert outcome(solve_tree_assignment, inst, C) == outcome(loop_solve_tree_assignment, inst, C)


def test_seeded_tree_assignment_matches_loop():
    """Larger trees, with the highest-degree point among the centers, so
    that it touches several components, once alone and once beside two
    of its neighbours, so that centers also share edges."""
    rng = random.Random(5)
    for seed in range(10):
        n = 10 + 8 * seed
        inst = gen_random("tree", n, n, seed=seed + 200, max_distance=30)
        hub = max(range(n), key=lambda v: len(inst.adj[v]))
        for C in (
            [hub],
            [hub, *inst.adj[hub][:2]],
            [hub, *rng.sample(range(n), 3 + seed)],
            list(range(n)),
        ):
            C = sorted(set(C))
            for r in dedup_radii(inst.dist[:, C], leq=True)[:: max(1, n // 6)]:
                assert tree_assignment(inst, C, r) == loop_tree_assignment(inst, C, r)
            assert solve_tree_assignment(inst, C) == loop_solve_tree_assignment(inst, C)
