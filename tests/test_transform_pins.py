"""The merge-and-split transform against the code it replaced.

``old_make_disjoint`` is the transform ``disjoint`` used to run: it
merged each group's overlapping clusters by restarting a pair scan after
every merge, and replayed the layers through a ``LayeredForest`` with
separate branches for clusters touching no, one or several finalized
clusters.  The one-pass transform must return the same clustering, with
its clusters and centers in the same order, or raise the same exception
with the same message, so that every report and every CLI byte stays
the same.  It took the cover with its clusters keyed by center, beside
the radius they were grown at; ``old_make_disjoint_of_cover`` hands it a
``Clustering`` cover in that form, at the partition's radius, which is
the radius ``make_disjoint`` reads, and reports the result as the
pipeline did, by ``make_report`` with the partition bound: the report
``make_disjoint`` builds from its own validation and cost must equal it.

``_bfs_tree``, ``old_validate_clustering`` (with ``_is_connected_subset``)
and ``old_pad_to_k`` are the spanning trees, the connectivity test and
the padding the package ran before one breadth-first search
(``model.bfs_parents``) answered every connectivity question; the
verdicts and the padded clusterings must stay the same.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import disjoint
from conncluster.disjoint import (
    DisjointInvariantError,
    make_disjoint,
    pad_to_k,
    partition_bound,
    solve_assignment_given_centers,
    solve_disjoint,
)
from conncluster.greedy import greedy_clustering, greedy_with_given_centers
from conncluster.instances import gen_random
from conncluster.model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    MODES,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    Verdict,
    cluster_radius,
    clustering,
    clustering_cost,
    dist_eq,
    dist_leq,
    load_instance,
    make_instance,
    make_report,
    validate_clustering,
)
from conncluster.wsp import (
    partition_doubling,
    partition_general_metric,
    partition_lp,
    partition_two_centers,
)

from test_exact_probes import distance, probe_radii


def _bfs_tree(inst, points, root):
    """Children lists of a BFS spanning tree of the induced subgraph."""
    children: dict[int, list[int]] = {root: []}
    queue = [root]
    while queue:
        nxt = []
        for v in queue:
            for u in inst.adj[v]:
                if u in points and u not in children:
                    children[u] = []
                    children[v].append(u)
                    nxt.append(u)
        queue = nxt
    if len(children) != len(points):
        raise DisjointInvariantError(
            f"cluster around {root} does not induce a connected subgraph"
        )
    return children


def _is_connected_subset(inst, points):
    it = iter(points)
    start = next(it)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in inst.adj[v]:
            if u in points and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(points)


def old_validate_clustering(inst, c):
    for cl in c.clusters:
        for x in cl:
            if not (0 <= x < inst.n):
                raise ValueError(f"point id {x} out of range")
    violations: list[str] = []
    covered: set[int] = set()
    for cl in c.clusters:
        covered |= cl
    if covered != set(range(inst.n)):
        missing = sorted(set(range(inst.n)) - covered)
        violations.append(f"points not covered: {missing}")
    for i, cl in enumerate(c.clusters):
        if not _is_connected_subset(inst, cl):
            violations.append(f"cluster {i} ({sorted(cl)}) is not connected")
    if c.mode == DISJOINT:
        total = sum(len(cl) for cl in c.clusters)
        if total != len(covered):
            for i in range(len(c.clusters)):
                for j in range(i + 1, len(c.clusters)):
                    inter = c.clusters[i] & c.clusters[j]
                    if inter:
                        violations.append(
                            f"clusters {i} and {j} overlap on {sorted(inter)}"
                        )
    if c.clusters_used > inst.k:
        violations.append(f"{c.clusters_used} clusters exceed budget k={inst.k}")
    return Verdict(feasible=not violations, violations=tuple(violations))


def old_pad_to_k(inst, c):
    if c.mode != DISJOINT:
        raise AlgorithmPreconditionError("padding needs a disjoint clustering")
    verdict = old_validate_clustering(inst, c)
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
        children = _bfs_tree(inst, clusters[i], root)
        leaf = min(v for v, ch in children.items() if not ch and v != root)
        clusters[i].discard(leaf)
        new_singletons.append(leaf)
    out_clusters = clusters + [{x} for x in new_singletons]
    out_centers = centers + new_singletons if centers is not None else None
    return clustering(out_clusters, out_centers, DISJOINT)


@dataclass
class _Pending:
    center: int
    points: set[int]


@dataclass
class _Final:
    center: int
    points: set[int]
    layer: int


@dataclass
class LayeredForest:
    finalized: list[_Final] = field(default_factory=list)
    owner: dict[int, int] = field(default_factory=dict)

    def finalize(self, center, points, layer):
        idx = len(self.finalized)
        self.finalized.append(_Final(center, set(points), layer))
        for x in points:
            self.owner[x] = idx

    def absorb(self, target, points):
        self.finalized[target].points |= points
        for x in points:
            self.owner[x] = target


def old_make_disjoint(inst, g, p, objective):
    centers = set(g.centers)
    if p.center_set() != centers:
        raise AlgorithmPreconditionError("partition does not cover the center set")
    if not dist_eq(p.r, g.radius_used):
        raise AlgorithmPreconditionError(
            f"partition radius {p.r} differs from cover radius {g.radius_used}"
        )
    r = g.radius_used

    merged_layers = []
    for layer in p.layers:
        pend = []
        for group in layer:
            items = [_Pending(c, set(g.clusters[c])) for c in sorted(group)]
            changed = True
            while changed:
                changed = False
                for i, j in itertools.combinations(range(len(items)), 2):
                    if items[i].points & items[j].points:
                        items[i].points |= items[j].points
                        del items[j]
                        changed = True
                        break
            pend.extend(items)
        pend.sort(key=lambda t: t.center)
        merged_layers.append(pend)

    forest = LayeredForest()
    for li, pend in enumerate(merged_layers):
        for t in pend:
            vstar = {v for v in t.points if v in forest.owner}
            if not vstar:
                forest.finalize(t.center, t.points, li)
                continue
            if len(vstar) == 1:
                v = next(iter(vstar))
                forest.absorb(forest.owner[v], t.points - {v})
                continue
            children = _bfs_tree(inst, t.points, t.center)
            cuts = vstar - {t.center}

            def component(start):
                comp = {start}
                stack = [start]
                while stack:
                    x = stack.pop()
                    for ch in children[x]:
                        if ch not in cuts:
                            comp.add(ch)
                            stack.append(ch)
                return comp

            for v in sorted(cuts):
                forest.absorb(forest.owner[v], component(v) - {v})
            root_comp = component(t.center)
            if t.center in vstar:
                forest.absorb(forest.owner[t.center], root_comp - {t.center})
            else:
                forest.finalize(t.center, root_comp, li)
        total = sum(len(f.points) for f in forest.finalized)
        if total != len(forest.owner):
            raise DisjointInvariantError(
                f"finalized clusters overlap after layer {li + 1}"
            )
        bound = (2 * (li + 1) - 1) * r + sum(p.h[: li + 1])
        for f in forest.finalized:
            rad = cluster_radius(inst.dist, f.points, f.center)
            if not dist_leq(rad, bound):
                raise DisjointInvariantError(
                    f"after layer {li + 1}: cluster of center {f.center} has "
                    f"radius {rad} > {(2 * (li + 1) - 1)}r + h_1..h_{li + 1} = {bound}"
                )

    order = sorted(
        range(len(forest.finalized)),
        key=lambda i: (forest.finalized[i].layer, forest.finalized[i].center),
    )
    result = clustering(
        [forest.finalized[i].points for i in order],
        [forest.finalized[i].center for i in order],
        DISJOINT,
    )
    if result.clusters_used > len(g.centers):
        raise DisjointInvariantError("more clusters than centers")
    verdict = validate_clustering(inst, result)
    structural = [v for v in verdict.violations if "budget" not in v]
    if structural:
        raise DisjointInvariantError("; ".join(structural))
    limit = partition_bound(p, objective)
    cost = clustering_cost(inst, result, objective)
    if not dist_leq(cost, limit):
        raise DisjointInvariantError(
            f"{objective} cost {cost} exceeds the partition bound {limit}"
        )
    return result


def old_make_disjoint_of_cover(inst, cover, p, objective, algorithm):
    """``old_make_disjoint`` on a ``Clustering`` cover, as ``make_disjoint``
    takes it: the clusters keyed by center, grown at ``p.r``; with the
    report the pipeline built for its result."""
    g = SimpleNamespace(
        centers=cover.centers, clusters=dict(zip(cover.centers, cover.clusters)), radius_used=p.r
    )
    result = old_make_disjoint(inst, g, p, objective)
    bound = partition_bound(p, objective)
    return make_report(inst, result, objective, algorithm, bound=bound), result


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of the
    exception it raised."""
    try:
        return fn(*args)
    except (AlgorithmPreconditionError, DisjointInvariantError, InfeasibleError) as exc:
        return type(exc), str(exc)


def assert_same(*args):
    got = outcome(make_disjoint, *args, "transform")
    want = outcome(old_make_disjoint_of_cover, *args, "transform")
    assert got == want
    if isinstance(got[1], Clustering):  # a report and a Clustering: equal, in the same order
        assert got[1].clusters == want[1].clusters and got[1].centers == want[1].centers


WEIGHTS = (0.0, 1.0, 2.0, 3.0, 5.0)


@st.composite
def instances(draw):
    """Explicit non-metric and metric matrices, Lp metrics on integer
    grids and graph metrics, over connected or arbitrary graphs."""
    kind = draw(st.sampled_from(("explicit", "metric", "lp", "graph")))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    perm = draw(st.permutations(range(n)))
    tree = {tuple(sorted((perm[draw(st.integers(0, i - 1))], perm[i]))) for i in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    extra = set(draw(st.lists(st.sampled_from(pairs), max_size=n))) if pairs else set()
    edges = sorted(extra | tree if kind == "graph" or draw(st.booleans()) else extra)
    if kind == "lp":
        d = draw(st.integers(1, 3))
        coords = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n))
        p = draw(st.sampled_from([1, 2, "inf"]))
        metric = {"type": "lp", "p": p, "coords": coords}
    elif kind == "graph":
        metric = {"type": "graph",
                  "edges": [[u, v, draw(st.sampled_from(WEIGHTS))] for u, v in edges]}
    else:
        m = np.zeros((n, n))
        for i, j in pairs:
            m[i, j] = m[j, i] = draw(distance())
        if kind == "metric":
            for w in range(n):  # shortest-path closure
                m = np.minimum(m, m[:, w, None] + m[None, w, :])
        return make_instance(m, edges, k)
    return load_instance({"n": n, "k": k, "metric": metric, "edges": [list(e) for e in edges]})


def partitions(inst, centers, r):
    """Every construction that applies to the centers at radius r."""
    out = []
    if len(centers) <= 2:
        out.append(partition_two_centers(inst.dist, centers, r))
    out.append(partition_general_metric(inst.dist, centers, r))
    out.append(partition_doubling(inst.dist, centers, r, 1))
    if inst.coords is not None and r > 1e-9:  # a subnormal r overflows the grid cells
        out.append(partition_lp(inst.coords, inst.p, centers, r))
    return out


@settings(max_examples=200)
@given(st.data(), instances())
def test_transform_matches_old(data, inst):
    radii = [r for r in probe_radii(inst) if r >= 0]
    chosen = data.draw(st.lists(st.sampled_from(radii), min_size=1, max_size=4, unique=True))
    given_centers = data.draw(
        st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=min(inst.n, 4), unique=True)
    )
    for r in chosen:
        covers = [greedy_clustering(inst, r), greedy_with_given_centers(inst, given_centers, r)]
        for g in covers:
            if g is None:
                continue
            for p in partitions(inst, sorted(g.centers), r):
                for objective in (CENTER, DIAMETER):
                    assert_same(inst, g, p, objective)
        # a partition at another radius: the cover is checked against that
        # radius; a partition of another center set is refused
        g = covers[0]
        other = radii[(radii.index(r) + 1) % len(radii)]
        assert_same(inst, g, partition_general_metric(inst.dist, g.centers, other), CENTER)
        if inst.n > 1:
            fewer = sorted(g.centers)[:-1] or [(g.centers[0] + 1) % inst.n]
            assert_same(inst, g, partition_general_metric(inst.dist, fewer, r), CENTER)


def test_seeded_solves_match_old(monkeypatch):
    """Larger seeded documents through the whole pipelines, with the old
    transform swapped in."""
    for seed in range(8):
        n = 20 + 5 * seed
        k = 2 + seed % 5
        insts = [
            gen_random("general", n, k, seed=seed),
            gen_random("lp", n, k, seed=seed, dim=1 + seed % 3, p=(1, 2, math.inf)[seed % 3]),
            gen_random("tree", n, k, seed=seed),  # not metric
        ]
        for inst in insts:
            runs = [(solve_disjoint, inst, obj, strategy)
                    for obj in (CENTER, DIAMETER) for strategy in ("general", "lp", "doubling")
                    if strategy != "lp" or inst.coords is not None]
            runs.append((solve_assignment_given_centers, inst, list(range(0, n, n // k))[:k], CENTER))

            def run_all():
                out = []
                for fn, *args in runs:
                    kwargs = {"dim": 2} if args[-1] == "doubling" else {}
                    try:
                        out.append(fn(*args, **kwargs))
                    except (AlgorithmPreconditionError, DisjointInvariantError,
                            InfeasibleError) as exc:
                        out.append((type(exc), str(exc)))
                return out

            got = run_all()
            with monkeypatch.context() as m:
                m.setattr(disjoint, "make_disjoint", old_make_disjoint_of_cover)
                assert got == run_all()


def _with_centers(data, clusters):
    """One center drawn from each cluster, or None."""
    if not data.draw(st.booleans()):
        return None
    return [data.draw(st.sampled_from(sorted(cl))) for cl in clusters]


@settings(max_examples=300)
@given(st.data(), instances())
def test_validation_matches_old(data, inst):
    """Any clusters, disconnected, overlapping or missing points included."""
    points = st.sets(st.integers(0, inst.n - 1), min_size=1)
    clusters = data.draw(st.lists(points, min_size=1, max_size=4))
    mode = data.draw(st.sampled_from(MODES))
    c = clustering(clusters, _with_centers(data, clusters), mode)
    assert validate_clustering(inst, c) == old_validate_clustering(inst, c)


@settings(max_examples=300)
@given(st.data(), instances())
def test_padding_matches_old(data, inst):
    """Connected disjoint covers, from the components of a drawn subset of
    the edges, padded to a drawn budget."""
    kept = data.draw(st.lists(st.sampled_from(inst.edges), unique=True)) if inst.edges else []
    root = list(range(inst.n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in kept:
        root[find(u)] = find(v)
    comps: dict[int, set[int]] = {}
    for x in range(inst.n):
        comps.setdefault(find(x), set()).add(x)
    clusters = data.draw(st.permutations(list(comps.values())))
    inst = dataclasses.replace(inst, k=data.draw(st.integers(1, inst.n)))
    c = clustering(clusters, _with_centers(data, clusters), DISJOINT)
    assert outcome(pad_to_k, inst, c) == outcome(old_pad_to_k, inst, c)
