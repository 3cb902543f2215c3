"""The searches over the connectivity graph against their full scans.

``full_scan_resume`` is the minimum-first walk ``greedy`` ran before the
walk learned to stop reading adjacency lists once every point within its
bound was reached; ``full_scan_bfs_parents`` is the breadth-first search
``model`` ran before it stopped once every point of the set was reached.
The early exits must leave every walk (its admission order, levels and
top) and every search tree (its items, in discovery order) the same, so
that every CLI byte stays the same.  On a complete graph each search now
reads one adjacency list, which the counting tests pin.
"""

import dataclasses
import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import disjoint, greedy, model, oracle
from conncluster.cli import main
from conncluster.greedy import compute_cluster, greedy_clustering
from conncluster.instances import gen_random
from conncluster.model import (
    DISJOINT,
    REL_TOL,
    bfs_parents,
    clustering,
    instance_to_doc,
    leq_bound,
    make_instance,
    validate_clustering,
)

from test_exact_probes import BASES, probe_radii


def full_scan_resume(inst, c, bound, walk):
    row = inst.dist[c]
    ok = (row <= bound).tolist()
    key = memoryview(row)  # a Python float per point read, and no copy
    order, levels = walk.order, walk.levels
    for v in order:
        ok[v] = False
    adj = inst.adj
    buckets: dict[float, list[int]] = {}
    for v in order:
        for u in adj[v]:
            if ok[u]:
                ok[u] = False
                buckets.setdefault(key[u], []).append(u)
    heap = list(buckets)
    heapq.heapify(heap)
    level = levels[-1]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d = pop(heap)
        if d > level:
            level = d
        stack = buckets.pop(d)
        while stack:
            v = stack.pop()
            order.append(v)
            levels.append(level)
            for u in adj[v]:
                if ok[u]:
                    ok[u] = False
                    d = key[u]
                    if d <= level:
                        stack.append(u)
                    elif d in buckets:
                        buckets[d].append(u)
                    else:
                        buckets[d] = [u]
                        push(heap, d)
    walk.top = bound


def full_scan_bfs_parents(inst, points, roots):
    parent = dict.fromkeys(roots, -1)
    queue = list(parent)
    adj = inst.adj
    for v in queue:  # the list grows while it is read: a FIFO queue
        for u in adj[v]:
            # most neighbours of a cluster's point lie in that cluster and
            # are reached already, so the cheaper test to fail comes first
            if u not in parent and u in points:
                parent[u] = v
                queue.append(u)
    return parent


def _near(base):
    """``base`` and the floats on and one ulp off its tolerance edge."""
    edge = base + REL_TOL * max(1.0, base)
    return (base, math.nextafter(base, math.inf), edge,
            math.nextafter(edge, 0.0), math.nextafter(edge, math.inf))


VALUES = tuple(v for base in BASES for v in _near(base))


@st.composite
def dense_instances(draw):
    """Up to 30 points with tied and tolerance-edge distances, each pair
    joined with a drawn chance of up to 1 (a complete graph)."""
    n = draw(st.integers(1, 30))
    chance = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    m = np.zeros((n, n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = rnd.choice(VALUES)
            if rnd.random() < chance:
                edges.append((i, j))
    return make_instance(m, edges, 1)


@settings(max_examples=60, deadline=None)
@given(dense_instances(), st.data())
def test_walks_match_the_full_scan(inst, data):
    """A few centers walked to radii in any order, up and down, as one
    search's cache walks them: each walk resumed to a larger bound only."""
    radii = [r for r in probe_radii(inst) if r >= 0]
    centers = data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=3,
                                 unique=True))
    steps = st.tuples(st.sampled_from(radii), st.sampled_from(centers))
    new, old = {}, {}
    for r, c in data.draw(st.lists(steps, min_size=1, max_size=12)):
        bound = leq_bound(r)
        for walks, resume in ((new, greedy._resume), (old, full_scan_resume)):
            walk = walks.setdefault(c, greedy._Walk(c))
            if bound > walk.top:
                resume(inst, c, bound, walk)
        got, want = new[c], old[c]
        assert (got.order, got.levels, got.top) == (want.order, want.levels, want.top)


@settings(max_examples=50, deadline=None)
@given(dense_instances(), st.data())
def test_bfs_matches_the_full_scan(inst, data):
    """Point sets as a range, a set or a frozenset; roots in and out of
    the set, repeated or none."""
    n = inst.n
    kind = data.draw(st.sampled_from(("range", "set", "frozenset")))
    if kind == "range":
        lo = data.draw(st.integers(0, n))
        points = range(lo, data.draw(st.integers(lo, n)))
    else:
        points = {"set": set, "frozenset": frozenset}[kind](
            data.draw(st.sets(st.integers(0, n - 1)))
        )
    roots = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    got = bfs_parents(inst, points, roots)
    assert list(got.items()) == list(full_scan_bfs_parents(inst, points, roots).items())


class CountingAdjacency(tuple):
    """Adjacency lists that count how many are read."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)


@pytest.fixture
def complete_graph(monkeypatch):
    """A complete graph on 12 points whose lists count their reads."""
    monkeypatch.setattr(CountingAdjacency, "reads", 0)
    inst = gen_random("general", 12, 3, seed=2)
    everything = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    inst = make_instance(inst.dist, everything, 3)
    return dataclasses.replace(inst, adj=CountingAdjacency(inst.adj))


def test_a_walk_at_the_top_radius_reads_one_list(complete_graph):
    top = float(complete_graph.dist.max())
    assert compute_cluster(complete_graph, top, 5) == frozenset(range(12))
    assert CountingAdjacency.reads == 1


def test_a_cluster_check_reads_one_list(complete_graph):
    assert len(bfs_parents(complete_graph, frozenset(range(12)), [5])) == 12
    assert CountingAdjacency.reads == 1
    c = clustering([set(range(12))], [5], DISJOINT)
    assert not validate_clustering(complete_graph, c).violations
    assert CountingAdjacency.reads == 2


def test_a_nan_radius_is_refused():
    inst = gen_random("general", 12, 3, seed=1)
    cache = {}
    with pytest.raises(ValueError, match="nonnegative"):
        compute_cluster(inst, math.nan, 0, cache)
    assert cache == {}
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_clustering(inst, math.nan)


def test_dense_documents_keep_every_byte(tmp_path, monkeypatch):
    """A dense general document through the disjoint, non-disjoint,
    given-center, two-center and padded solves, at the CLI, with the
    early exits and with the full scans."""
    doc = instance_to_doc(gen_random("general", 60, 6, seed=9))
    dense, pair = tmp_path / "dense.json", tmp_path / "pair.json"
    dense.write_text(json.dumps(doc))
    pair.write_text(json.dumps({**doc, "k": 2}))
    runs = [
        (pair, "--algo", "two-center"),
        (dense, "--algo", "assign", "--centers", "0,10,20,30,40,50"),
        (dense, "--algo", "general", "--exact-k"),
    ]
    for objective in ("center", "diameter"):
        runs.append((dense, "--algo", "general", "--objective", objective))
        runs.append((dense, "--algo", "greedy", "--mode", "non_disjoint",
                     "--objective", objective))

    def documents():
        out = []
        for i, (path, *args) in enumerate(runs):
            dest = tmp_path / f"{i}.json"
            assert main(["solve", "--in", str(path), *args, "--out", str(dest)]) == 0
            out.append(dest.read_bytes())
        return out

    early = documents()
    monkeypatch.setattr(greedy, "_resume", full_scan_resume)
    for module in (model, disjoint, oracle):
        monkeypatch.setattr(module, "bfs_parents", full_scan_bfs_parents)
    assert documents() == early
