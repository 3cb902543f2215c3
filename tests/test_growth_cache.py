"""One radius search's growth cache against growing every cluster afresh.

A search hands one cache to every growth it runs, and ``compute_cluster``
keeps each center's minimum-first walk in it: a smaller radius is
answered by a prefix of the walk, a larger one resumes it.  Whatever
sequence of radii and centers the cache has seen, each answer must equal
the growth ``greedy`` used to run (``loop_compute_cluster``), and every
solve must write the same document as with a fresh cache per growth.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import greedy
from conncluster.disjoint import (
    DisjointInvariantError,
    solve_assignment_given_centers,
    solve_disjoint,
)
from conncluster.greedy import (
    compute_cluster,
    greedy_clustering,
    greedy_with_given_centers,
    solve_nondisjoint,
)
from conncluster.instances import gen_random
from conncluster.model import (
    CENTER,
    NON_DISJOINT,
    OBJECTIVES,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    clustering_to_doc,
)

from test_exact_probes import probe_radii
from test_greedy_pins import instances, loop_compute_cluster, loop_greedy_clustering


def loop_given_centers(inst, C, r):
    clusters = tuple(loop_compute_cluster(inst, r, c) for c in C)
    if len(frozenset().union(*clusters)) != inst.n:
        return None
    return Clustering(clusters, tuple(C), NON_DISJOINT)


@settings(max_examples=100, deadline=None)
@given(instances(), st.data())
def test_one_cache_answers_any_radius_sequence(inst, data):
    """Radii from ``probe_radii`` in any order, up and down, with ties and
    tolerance edges; the growths, covers and given-center covers of one
    instance all share one cache, as a search's probes do."""
    radii = probe_radii(inst)
    cache = {}
    steps = st.tuples(st.sampled_from(radii), st.integers(0, inst.n - 1))
    for r, c in data.draw(st.lists(steps, max_size=24)):
        if r < 0:
            with pytest.raises(ValueError, match="nonnegative"):
                compute_cluster(inst, r, c, cache)
        else:
            assert compute_cluster(inst, r, c, cache) == loop_compute_cluster(inst, r, c)
    nonnegative = st.sampled_from([r for r in radii if r >= 0])
    max_centers = st.sampled_from((None, inst.k))
    for r, limit in data.draw(st.lists(st.tuples(nonnegative, max_centers), max_size=8)):
        got = greedy_clustering(inst, r, max_centers=limit, cache=cache)
        assert got == loop_greedy_clustering(inst, r, max_centers=limit)
    C = data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=3, unique=True))
    for r in data.draw(st.lists(nonnegative, max_size=8)):
        assert greedy_with_given_centers(inst, C, r, cache) == loop_given_centers(inst, C, r)


def _instances():
    yield gen_random("lp", 80, 5, seed=3)
    yield gen_random("lp", 60, 4, seed=4, dim=3, p=float("inf"))
    yield gen_random("general", 50, 4, seed=5)
    yield gen_random("tree", 50, 4, seed=6)
    yield gen_random("general", 60, 6, seed=9)  # dense: a third of all pairs are edges


def _solves(inst):
    """Every solver that runs a greedy radius search, by name."""
    strategies = ["general", ("doubling", 2)] + (["lp"] if inst.coords is not None else [])
    for objective in OBJECTIVES:
        for s in strategies:
            name, dim = s if isinstance(s, tuple) else (s, None)
            yield f"disjoint-{name}-{objective}", lambda o=objective, n=name, d=dim: (
                solve_disjoint(inst, o, n, dim=d)
            )
        yield f"nondisjoint-{objective}", lambda o=objective: solve_nondisjoint(inst, o)
        centers = list(range(0, inst.n, inst.n // inst.k))[: inst.k]
        yield f"assign-{objective}", lambda o=objective, C=centers: (
            solve_assignment_given_centers(inst, C, o)
        )


def _document(solve) -> str:
    try:
        report, result = solve()
    except (DisjointInvariantError, InfeasibleError, AlgorithmPreconditionError) as exc:
        # the same failure, message included, on both sides
        return f"{type(exc).__name__}: {exc}"
    doc = {"report": report.to_doc(), "clustering": clustering_to_doc(result)}
    return json.dumps(doc, indent=2, sort_keys=True)


def test_reuse_never_changes_a_byte(monkeypatch):
    grow = greedy.compute_cluster
    reused = []

    def sharing(inst, R, c, cache=None):
        assert cache is not None, "every search passes its cache"
        reused.append(c in cache)
        return grow(inst, R, c, cache)

    def regrowing(inst, R, c, cache=None):
        return grow(inst, R, c, {})

    for inst in _instances():
        fields = set(vars(inst))
        for name, solve in _solves(inst):
            monkeypatch.setattr(greedy, "compute_cluster", regrowing)
            want = _document(solve)
            monkeypatch.setattr(greedy, "compute_cluster", sharing)
            assert _document(solve) == want, name
            assert set(vars(inst)) <= fields | {"tree"}, name
    assert sum(reused) > len(reused) / 2  # most growths start from a kept walk


def test_a_search_keeps_no_cache_after_it_returns():
    """The cache lives in the search's frame: a second solve of the same
    instance starts from nothing and gives the same clustering."""
    inst = gen_random("lp", 60, 4, seed=8)
    grown = []
    grow = greedy.compute_cluster

    def counting(inst, R, c, cache=None):
        grown.append(len(cache))
        return grow(inst, R, c, cache)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "compute_cluster", counting)
        first = solve_disjoint(inst, CENTER, "lp")
        assert grown[0] == 0
        grown.clear()
        assert solve_disjoint(inst, CENTER, "lp") == first
        assert grown[0] == 0
