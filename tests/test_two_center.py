"""The matrix two-center probe against the pair scan and the dense
probe it replaced.

``pair_scan_probe`` is the probe ``solve_two_center_disjoint`` once ran:
every center pair in ``itertools.combinations`` order, both clusters
regrown by ``compute_cluster``.  ``pair_scan_two_center`` is the whole
solver around it.  ``_two_center_refs`` keeps the dense probe that came
next, which regrew all n clusters per probe, one matrix product per hop;
it is fast enough to check larger inputs than the pair scan.  The probe
over ``bottleneck_levels`` must return the same pair with the same
clusters at every radius, so that the radius search, the merge step and
every CLI byte stay the same.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _two_center_refs as dense
from conncluster import greedy
from conncluster.disjoint import first_covering_pair, solve_two_center_disjoint
from conncluster.greedy import (
    bottleneck_levels,
    compute_cluster,
    greedy_with_given_centers,
)
from conncluster.instances import gen_random
from conncluster.model import (
    CENTER,
    DISJOINT,
    REL_TOL,
    InfeasibleError,
    binary_search_min_feasible,
    candidate_radii,
    clustering,
    leq_bound,
    make_instance,
    make_report,
)


def pair_scan_probe(inst, r):
    for a, b in itertools.combinations(range(inst.n), 2):
        out = greedy_with_given_centers(inst, [a, b], r)
        if out is not None:
            return out
    return None


def pair_scan_two_center(inst):
    found = binary_search_min_feasible(
        candidate_radii(inst), lambda r: pair_scan_probe(inst, r)
    )
    if found is None:
        raise InfeasibleError("connectivity graph has more than two components")
    r, g = found
    c1, c2 = g.centers
    t1, t2 = g.clusters
    if not (t1 & t2):
        result = clustering([t1, t2], [c1, c2], DISJOINT)
        bound = r
    else:
        result = clustering([t1 | t2], [min(t1 & t2)], DISJOINT)
        bound = 2.0 * r
    return make_report(inst, result, CENTER, algorithm="two-center", bound=bound), result


# Matrix entries: exact ties, zeros off the diagonal, and values one
# tolerance step or one ulp apart.
ENTRIES = (0.0, 1.0, 1.0 + REL_TOL, math.nextafter(1.0, 2.0), 2.0, 2.5, 3.0, 7.0)


@st.composite
def explicit_instances(draw):
    """n <= 8 points with a random symmetric matrix over ENTRIES and a
    random connectivity graph (possibly with several components)."""
    n = draw(st.integers(1, 8))
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = m.T[iu] = draw(
        st.lists(st.sampled_from(ENTRIES), min_size=len(iu[0]), max_size=len(iu[0]))
    )
    pairs = list(zip(*iu))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_instance(m, edges, min(2, n))


generated_instances = st.builds(
    lambda family, n, seed: gen_random(family, n, min(2, n), seed),
    st.sampled_from(("general", "lp", "line", "tree")),
    st.integers(1, 9),
    st.integers(0, 10**6),
)
instances = st.one_of(explicit_instances(), generated_instances)


def probe_radii(inst):
    """Every candidate radius and its neighbours one ulp either side."""
    out = set()
    for r in candidate_radii(inst):
        out |= {r, math.nextafter(r, math.inf)}
        if r > 0:
            out.add(math.nextafter(r, 0.0))
    return sorted(out)


def assert_levels_match_walks(inst, levels, radii):
    """Row c of ``levels`` at each radius is c's cluster, and each of its
    entries is the level c's walk gives that point (inf off c's
    component, -inf at c itself)."""
    assert levels.dtype == float and levels.shape == (inst.n, inst.n)
    for c in range(inst.n):
        cache = {}
        compute_cluster(inst, math.inf, c, cache)
        walk = cache[c]
        want = [math.inf] * inst.n
        for u, level in zip(walk.order, walk.levels):
            want[u] = level
        assert want[c] == -math.inf
        assert levels[c].tolist() == want
    for r in radii:
        for c in range(inst.n):
            got = set(np.flatnonzero(levels[c] <= leq_bound(r)).tolist())
            assert got == compute_cluster(inst, r, c)


@settings(max_examples=200)
@given(instances)
def test_levels_match_compute_cluster(inst):
    assert_levels_match_walks(inst, bottleneck_levels(inst), probe_radii(inst))


@settings(max_examples=200)
@given(instances)
def test_first_covering_pair_matches_pair_scan(inst):
    levels = bottleneck_levels(inst)
    for r in probe_radii(inst):
        got = first_covering_pair(levels, r)
        assert got == pair_scan_probe(inst, r)
        if got is not None:
            assert all(type(x) is int for cl in got.clusters for x in cl)


@settings(max_examples=200)
@given(instances.filter(lambda inst: inst.k == 2))
def test_solve_matches_pair_scan(inst):
    try:
        want = pair_scan_two_center(inst)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_two_center_disjoint(inst)
        return
    assert solve_two_center_disjoint(inst) == want


def components_instance(sizes):
    """Paths of the given sizes, far apart from each other."""
    n = sum(sizes)
    m = np.full((n, n), 10.0)
    edges, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        for u, v in itertools.combinations(block, 2):
            m[u, v] = m[v, u] = float(v - u)
        edges += [(u, u + 1) for u in block[:-1]]
        start += size
    np.fill_diagonal(m, 0.0)
    return make_instance(m, edges, 2)


def test_two_components_take_one_center_each():
    inst = components_instance([3, 2])
    report, result = solve_two_center_disjoint(inst)
    assert (report, result) == pair_scan_two_center(inst)
    assert sorted(sorted(c) for c in result.clusters) == [[0, 1, 2], [3, 4]]
    assert report.objective == 1.0


def test_three_components_are_infeasible():
    inst = components_instance([2, 1, 2])
    with pytest.raises(InfeasibleError):
        pair_scan_two_center(inst)
    with pytest.raises(InfeasibleError):
        solve_two_center_disjoint(inst)


@pytest.mark.parametrize("d", [0.0, 1.0])
@pytest.mark.parametrize("edges", [[], [(0, 1)]])
def test_two_points(d, edges):
    inst = make_instance([[0.0, d], [d, 0.0]], edges, 2)
    report, result = solve_two_center_disjoint(inst)
    assert (report, result) == pair_scan_two_center(inst)
    assert report.objective == 0.0
    # zero distance across an edge: both clusters hold both points and merge
    assert len(result.clusters) == (1 if d == 0.0 and edges else 2)


def test_single_point_has_no_pair():
    inst = make_instance([[0.0]], [], 1)
    levels = bottleneck_levels(inst)
    assert levels.tolist() == [[-math.inf]]
    assert first_covering_pair(levels, 0.0) is None


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_sliced_steps_give_the_same_levels(monkeypatch, budget):
    insts = [
        gen_random("general", 40, 2, seed=7),
        gen_random("line", 30, 2, seed=8, metric_repair=True),
        components_instance([4, 1, 5]),
    ]
    want = [bottleneck_levels(inst) for inst in insts]
    monkeypatch.setattr(greedy, "_OFFERS_PER_SLICE", budget)
    for inst, levels in zip(insts, want):
        assert np.array_equal(bottleneck_levels(inst), levels)
    assert_levels_match_walks(insts[0], want[0], candidate_radii(insts[0]))


def test_long_path_levels_match_compute_cluster():
    n = 40
    inst = gen_random("line", n, 2, seed=3, metric_repair=True)
    assert_levels_match_walks(inst, bottleneck_levels(inst), candidate_radii(inst)[::50])


def with_chords(inst, chords):
    """``inst`` with the extra connectivity edges ``chords``."""
    return make_instance(inst.dist, list(inst.edges) + chords, inst.k)


def long_hop_instances():
    """Paths and lp spanning trees with long chords, up to 200 points:
    clusters many hops deep, too large for the pair scan."""
    for n, seed in ((60, 1), (160, 2)):
        inst = gen_random("line", n, 2, seed, metric_repair=True)
        yield pytest.param(inst, id=f"line-{n}")
    for n, seed in ((60, 3), (200, 4)):
        inst = gen_random("lp", n, 2, seed)
        yield pytest.param(inst, id=f"lp-{n}")
        chords = [(0, n // 2), (10, 4 * n // 5), (3, n - 1)]
        yield pytest.param(with_chords(inst, chords), id=f"lp-{n}-chords")


def dense_instances():
    """Dense general graphs with many tied distances: a step settles
    many pairs per center, which the slice budget splits."""
    for n, seed in ((100, 5), (200, 6)):
        yield pytest.param(gen_random("general", n, 2, seed), id=f"general-{n}")


@pytest.mark.parametrize("inst", [*long_hop_instances(), *dense_instances()])
def test_solve_matches_dense_reference(inst):
    assert solve_two_center_disjoint(inst) == dense.solve_two_center_disjoint(inst)


def test_probes_match_dense_reference_on_a_path():
    inst = gen_random("line", 80, 2, 5, metric_repair=True)
    levels = bottleneck_levels(inst)
    adj = dense.adjacency_matrix(inst)
    for r in candidate_radii(inst)[::40]:
        assert first_covering_pair(levels, r) == dense.first_covering_pair(inst, r, adj)
