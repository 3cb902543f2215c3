"""The greedy cover and the Lp metric against the code they replaced.

``loop_compute_cluster`` is the growth ``greedy`` used to run, a scalar
``dist_leq`` test per scanned edge; ``loop_greedy_clustering`` took each
seed from a set of uncovered ids; ``loop_lp_realize`` realized an Lp
metric from an n x n x d tensor of coordinate differences.  The new code
must return the same sets, the same covers and the same matrix bit for
bit, so that every radius search and every CLI byte stays the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import greedy
from conncluster.greedy import compute_cluster, greedy_clustering
from conncluster.instances import gen_random
from conncluster.model import NON_DISJOINT, Clustering, LpMetric, dist_leq, load_instance, make_instance

from test_exact_probes import distance, probe_radii


def loop_compute_cluster(inst, R, c):
    if not (0 <= c < inst.n):
        raise ValueError(f"center {c} out of range")
    if R < 0:
        raise ValueError("growth radius must be nonnegative")
    row = inst.dist[c]
    members = {c}
    stack = [c]
    while stack:
        v = stack.pop()
        for u in inst.adj[v]:
            if u not in members and dist_leq(float(row[u]), R):
                members.add(u)
                stack.append(u)
    return frozenset(members)


def loop_greedy_clustering(inst, r, *, max_centers=None):
    uncovered = set(range(inst.n))
    centers = []
    clusters = []
    while uncovered:
        if max_centers is not None and len(centers) >= max_centers:
            return None
        c = min(uncovered)
        t = loop_compute_cluster(inst, r, c)
        centers.append(c)
        clusters.append(t)
        uncovered -= t
    return Clustering(tuple(clusters), tuple(centers), NON_DISJOINT)


def loop_lp_realize(coords, p):
    c = np.asarray(coords, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(c[:, None, :] - c[None, :, :])
        if p == math.inf:
            return diff.max(axis=2)
        if p == 1:
            return diff.sum(axis=2)
        if p == 2:
            return np.sqrt((diff**2).sum(axis=2))
        return (diff**p).sum(axis=2) ** (1.0 / p)


def _edges(draw, n, family):
    perm = draw(st.permutations(range(n)))
    if family == "line":
        return [(perm[i], perm[i + 1]) for i in range(n - 1)]
    if family == "tree":
        return [(perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)]
    # any subgraph, so possibly several components
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []


@st.composite
def instances(draw):
    """Small instances full of ties and zero distances: explicit matrices
    on line, tree and arbitrary graphs, and Lp metrics on integer grids."""
    family = draw(st.sampled_from(("general", "line", "tree", "lp")))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    edges = _edges(draw, n, family)
    if family == "lp":
        d = draw(st.integers(0, 3))
        coords = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                               min_size=n, max_size=n))
        p = draw(st.sampled_from([1, 2, 3, "inf"]))
        return load_instance({"n": n, "k": k, "metric": {"type": "lp", "p": p, "coords": coords},
                              "edges": [list(e) for e in edges]})
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(distance())
    return make_instance(m, edges, k)


@settings(max_examples=150)
@given(instances())
def test_compute_cluster_matches_loop(inst):
    for r in probe_radii(inst):
        for c in range(inst.n):
            if r < 0:
                with pytest.raises(ValueError, match="nonnegative"):
                    compute_cluster(inst, r, c)
                continue
            assert compute_cluster(inst, r, c) == loop_compute_cluster(inst, r, c)
    for c in (-1, inst.n):
        with pytest.raises(ValueError, match="out of range"):
            compute_cluster(inst, 0.0, c)


@settings(max_examples=150)
@given(instances())
def test_greedy_clustering_matches_loop(inst):
    for r in probe_radii(inst):
        if r < 0:
            with pytest.raises(ValueError, match="nonnegative"):
                greedy_clustering(inst, r)
            continue
        for max_centers in (None, inst.k):
            got = greedy_clustering(inst, r, max_centers=max_centers)
            assert got == loop_greedy_clustering(inst, r, max_centers=max_centers)


def test_greedy_clustering_grows_through_module_function(monkeypatch):
    """The tracer counts growth by rebinding ``greedy.compute_cluster``."""
    inst = gen_random("general", 30, 4, seed=5)
    calls = []

    def counting(*args):
        calls.append(args[2])
        return compute_cluster(*args)

    monkeypatch.setattr(greedy, "compute_cluster", counting)
    out = greedy_clustering(inst, 3.0)
    assert tuple(calls) == out.centers


coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=True),
    st.sampled_from([1e154, -1e154, 1e308, -1e308, 5e-324]),
)


@settings(max_examples=300)
@given(st.integers(1, 12), st.sampled_from([1, 2, 3, math.inf]), st.data())
def test_lp_realize_matches_tensor_loop(d, p, data):
    n = data.draw(st.integers(1, 6))
    coords = np.array(
        data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=n, max_size=n))
    )
    got = LpMetric(coords, p).realize(n)
    want = loop_lp_realize(coords, p)
    assert got.shape == want.shape == (n, n)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_lp_realize_matches_tensor_loop_seeded():
    """Full-size random coordinates in every dimension up to 12."""
    rng = np.random.default_rng(0)
    for d in range(1, 13):
        coords = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-3, 3, size=(40, d))
        for p in (1, 2, 3, math.inf):
            got = LpMetric(coords, p).realize(40)
            assert np.array_equal(got.view(np.int64), loop_lp_realize(coords, p).view(np.int64))


@pytest.mark.parametrize("p", [1, 2, 3, math.inf])
def test_lp_realize_without_coordinates_is_zero(p):
    assert np.array_equal(LpMetric(np.zeros((3, 0)), p).realize(3), np.zeros((3, 3)))
