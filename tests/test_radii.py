"""The vectorized radius dedup against the Python loops it replaced.

``loop_candidate_radii`` is the loop ``candidate_radii`` used to run and
``loop_center_radii`` the loop the fixed-center searches (tree-assign
and the oracle's center assignment) used to run.  Every list must match
bit for bit, as Python floats, because the greedy probes are not
monotone: another candidate list probes other radii.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import exact, oracle
from conncluster.model import (
    CENTER,
    REL_TOL,
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
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in want]


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
    assert dedup_radii(np.asarray(values)) == [0.0, 1.0, values[2], values[4]]


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
