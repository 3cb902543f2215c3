"""The vectorized radius dedup against the Python loops it replaced.

``loop_candidate_radii`` is the loop ``candidate_radii`` used to run and
``loop_center_radii`` the loop the fixed-center searches (tree-assign
and the oracle's center assignment) used to run.  Every float64 array
must match its list bit for bit, and every probe must receive the
Python float the list held, because the greedy probes are not monotone:
other candidates probe other radii.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import disjoint, exact, greedy, oracle
from conncluster.instances import gen_random
from conncluster.model import (
    CENTER,
    DIAMETER,
    REL_TOL,
    InfeasibleError,
    candidate_radii,
    dedup_radii,
    dist_eq,
    dist_leq,
    make_instance,
)


def loop_candidate_radii(values):
    out = [0.0]
    for v in np.sort(np.asarray(values, dtype=float)):
        v = float(v)
        if not dist_eq(v, out[-1]):
            out.append(v)
    return out


def loop_center_radii(values):
    vals = {0.0}
    vals.update(float(x) for x in np.ravel(values))
    cands = sorted(vals)
    merged = [cands[0]]
    for v in cands[1:]:
        if not dist_leq(v, merged[-1]):
            merged.append(v)
    return merged


def assert_same(got, want):
    assert got.dtype == np.float64
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


# Steps between chain members, in units of the tolerance at the chain's
# base: 0 makes exact ties, <1 makes near-tie chains whose span exceeds
# the tolerance after a few members, 1 sits on the tolerance boundary.
TOL_STEPS = (0.0, 0.3, 0.5, 0.9, 1.0, 1.1, 2.0)
BASES = st.one_of(
    st.integers(0, 5).map(float),
    st.just(-0.0),
    st.floats(0.0, 3.0),
    st.floats(1e-12, 1e-8),
    st.floats(0.0, 1e6),
)


@st.composite
def radius_values(draw):
    values = []
    for _ in range(draw(st.integers(0, 6))):
        base = draw(BASES)
        step = draw(st.sampled_from(TOL_STEPS)) * REL_TOL * max(1.0, base)
        nudge = draw(st.sampled_from((0.0, math.inf)))  # direction of a one-ulp nudge
        for j in range(draw(st.integers(1, 12))):
            v = base + j * step if j else base
            if j and draw(st.booleans()):
                v = math.nextafter(v, nudge)
            values.append(v)
    return values


@st.composite
def path_instances(draw):
    """A path on n <= 7 points whose symmetric matrix draws its entries
    from radius_values; k = n so that any center set fits the budget."""
    n = draw(st.integers(1, 7))
    pool = draw(radius_values()) or [0.0]
    if draw(st.booleans()):
        pool = [float(round(v)) for v in pool]  # integer-valued matrix
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = m.T[iu] = draw(
        st.lists(st.sampled_from(pool), min_size=len(iu[0]), max_size=len(iu[0]))
    )
    return make_instance(m, [(i, i + 1) for i in range(n - 1)], n)


@settings(max_examples=300)
@given(radius_values())
def test_dedup_radii_matches_both_loops(values):
    assert_same(dedup_radii(np.asarray(values)), loop_candidate_radii(values))
    assert_same(dedup_radii(np.asarray(values), leq=True), loop_center_radii(values))


@settings(max_examples=200)
@given(path_instances())
def test_candidate_radii_matches_loop(inst):
    want = loop_candidate_radii(inst.dist[np.triu_indices(inst.n, k=1)])
    assert_same(candidate_radii(inst), want)


def test_dedup_rules_differ_on_rounding_boundary():
    # 1 + tol rounds up to `over`, which lies beyond the tolerance of 1
    # (dist_eq keeps it) yet equals 1 + tol in float (dist_leq drops it).
    over = 1.0 + REL_TOL
    assert over - 1.0 > REL_TOL * over
    assert not dist_eq(over, 1.0) and dist_leq(over, 1.0)
    values = [1.0, over]
    assert_same(dedup_radii(np.asarray(values)), loop_candidate_radii(values))
    assert_same(dedup_radii(np.asarray(values), leq=True), loop_center_radii(values))


def test_dedup_radii_compares_with_last_kept():
    tol = REL_TOL
    values = [1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol, 1.0 + 1.8 * tol, 1.0 + 2.4 * tol]
    # each value is within tolerance of its predecessor, but only the
    # ones beyond tolerance of the last kept value survive
    assert dedup_radii(np.asarray(values)).tolist() == [0.0, 1.0, values[2], values[4]]


def test_dedup_radii_near_tie_screen_spans_the_largest_tolerance():
    # the screen passes every gap within twice the largest value's
    # tolerance; gaps beyond their own tolerance stay, at either end of
    # the float range, and ties at the top are still found
    big = 1e300
    values = [1.0, 1.0 + 3 * REL_TOL, 1e6, big, big * (1 + 0.5 * REL_TOL), big * (1 + 3 * REL_TOL)]
    for leq, loop in ((False, loop_candidate_radii), (True, loop_center_radii)):
        got = dedup_radii(np.asarray(values), leq=leq)
        assert_same(got, loop(values))
        assert got.tolist() == [0.0, 1.0, values[1], 1e6, big, values[5]]


def test_candidate_radii_single_point_and_negative_zero():
    assert_same(candidate_radii(make_instance([[0.0]], [], 1)), [0.0])
    # np.unique keeps a -0.0 entry in place of the 0.0 on this matrix
    m = np.zeros((5, 5))
    iu = np.triu_indices(5, k=1)
    m[iu] = m.T[iu] = [-0.0, -0.0, 1.0] * 3 + [-0.0]
    inst = make_instance(m, [], 1)
    assert np.signbit(np.unique(np.concatenate(([0.0], inst.dist[iu])))[0])
    assert_same(candidate_radii(inst), [0.0, 1.0])
    assert_same(dedup_radii(inst.dist, leq=True), [0.0, 1.0])


def searched_candidates(module, fn, *args):
    """The candidate list ``fn`` hands to the radius search."""
    seen = []
    search = module.binary_search_min_feasible

    def spy(cands, probe):
        seen.append(cands)
        return search(cands, probe)

    with mock.patch.object(module, "binary_search_min_feasible", spy):
        fn(*args)
    return seen[0]


@settings(max_examples=100)
@given(path_instances(), st.data())
def test_fixed_center_candidates_match_loop(inst, data):
    C = data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=3, unique=True))
    want = loop_center_radii(inst.dist[:, sorted(C)])
    assert_same(searched_candidates(exact, exact.solve_tree_assignment, inst, C), want)
    assert_same(searched_candidates(oracle, oracle.exact_assignment, inst, C, CENTER), want)


def list_search(candidates, probe):
    """The radius search as it ran over a list of Python floats, with the
    largest candidate probed last, when no smaller one succeeded."""
    lo, hi = 0, len(candidates) - 1
    best = None
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(candidates[mid])
        if res is not None:
            best, hi = res, mid
        else:
            lo = mid + 1
    if best is None:
        best = probe(candidates[lo])
        if best is None:
            return None
    return candidates[lo], best


@st.composite
def search_instances(draw):
    """A small seeded lp or general instance, or a path whose distances
    are drawn from radius_values (near ties); k >= 2."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        family = draw(st.sampled_from(["lp", "general"]))
        return gen_random(family, n, draw(st.integers(2, n)), draw(st.integers(0, 10**6)))
    inst = draw(path_instances().filter(lambda inst: inst.n >= 2))
    return make_instance(inst.dist, inst.edges, draw(st.integers(2, inst.n)))


def probe_sequences(module, inst, solve):
    """The radii each search in ``solve()`` hands its probe, and the radii
    ``list_search`` over ``loop_candidate_radii`` hands the same probe."""
    got, want = [], []
    search = module.binary_search_min_feasible
    radii = loop_candidate_radii(inst.dist[np.triu_indices(inst.n, k=1)])

    def spy(cands, probe):
        expected = list_search(radii, lambda r: want.append(r) or probe(r))
        found = search(cands, lambda r: got.append(r) or probe(r))
        assert (found is None) == (expected is None)
        if found is not None:
            assert type(found[0]) is float and found[0].hex() == expected[0].hex()
        return found

    with mock.patch.object(module, "binary_search_min_feasible", spy):
        try:
            solve()
        except (InfeasibleError, disjoint.DisjointInvariantError):
            pass  # raised past the search: too many components, or a non-metric matrix
    assert got
    return got, want


@settings(max_examples=100, deadline=None)
@given(search_instances(), st.sampled_from([CENTER, DIAMETER]))
def test_probes_receive_the_loop_radii_as_python_floats(inst, objective):
    solves = [
        (greedy, lambda: greedy.solve_nondisjoint(inst, objective)),
        (disjoint, lambda: disjoint.solve_disjoint(inst, objective, "general")),
        (disjoint, lambda: disjoint.solve_assignment_given_centers(inst, [0], objective)),
    ]
    if inst.k == 2:
        solves.append((disjoint, lambda: disjoint.solve_two_center_disjoint(inst)))
    for module, solve in solves:
        got, want = probe_sequences(module, inst, solve)
        assert all(type(r) is float for r in got)
        assert [r.hex() for r in got] == [r.hex() for r in want]
