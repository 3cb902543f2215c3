"""The subset-table oracles against the searches they replaced.

``exact_disjoint`` is a min-max partition DP and the non-disjoint
oracles read their feasible sets from the same table of connected
subsets.  ``_oracle_refs`` keeps the partition enumerator, the per-probe
bitmask scan and the center-combination search they replaced.  The first
two must give the same value, the same clustering and the same errors;
the center oracle the same value or error, with a witness of its own
that is valid and costs the value (up to the tolerance that merges near
ties among the candidate radii).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle_refs as refs
from conncluster.instances import gen_random
import conncluster.oracle
from conncluster.model import (
    CENTER,
    DIAMETER,
    REL_TOL,
    InfeasibleError,
    clustering_cost,
    dist_leq,
    make_instance,
    validate_clustering,
)
from conncluster.oracle import (
    OracleLimitError,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center_with_witness,
    exact_nondisjoint_diameter_with_witness,
)

# Matrix entries: exact ties, zeros off the diagonal, and values one
# tolerance step or one ulp apart.
ENTRIES = (0.0, 1.0, 1.0 + REL_TOL, math.nextafter(1.0, 2.0), 2.0, 2.5, 3.0, 7.0)


@st.composite
def explicit_instances(draw):
    """n <= 8 points, a random symmetric matrix over ENTRIES, a random
    connectivity graph (possibly with several components) and any k."""
    n = draw(st.integers(1, 8))
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = m.T[iu] = draw(
        st.lists(st.sampled_from(ENTRIES), min_size=len(iu[0]), max_size=len(iu[0]))
    )
    pairs = list(zip(*iu))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_instance(m, edges, draw(st.integers(1, n)))


def outcome(oracle, *args):
    """The oracle's (value, clustering), or the message it was infeasible with."""
    try:
        return oracle(*args)
    except InfeasibleError as exc:
        return "infeasible", str(exc)


def assert_matches_refs(inst):
    for objective in (CENTER, DIAMETER):
        assert outcome(exact_disjoint, inst, objective) == outcome(
            refs.exact_disjoint, inst, objective
        )
    assert outcome(exact_nondisjoint_diameter_with_witness, inst) == outcome(
        refs.exact_nondisjoint_diameter_with_witness, inst
    )
    got = outcome(exact_nondisjoint_center_with_witness, inst)
    want = outcome(refs.exact_nondisjoint_center_with_witness, inst, refs.OracleLimits(max_k_subsets=8))
    assert got[0] == want[0]
    if got[0] != "infeasible":
        assert validate_clustering(inst, got[1]).feasible
        cost = clustering_cost(inst, got[1], CENTER)
        assert dist_leq(cost, got[0]) and dist_leq(got[0], cost)
    else:
        assert got[1] == want[1]


@settings(max_examples=300)
@given(explicit_instances())
def test_explicit_instances_match_refs(inst):
    assert_matches_refs(inst)


@settings(max_examples=100)
@given(
    st.sampled_from(("general", "lp", "line", "tree")),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.data(),
)
def test_generated_instances_match_refs_for_every_k(family, n, seed, data):
    inst = gen_random(family, n, data.draw(st.integers(1, n)), seed)
    assert_matches_refs(inst)


@pytest.mark.parametrize(
    "family, n, k, seed",
    [("general", 9, 3, 0), ("tree", 9, 4, 1), ("lp", 10, 2, 2), ("general", 10, 4, 3)],
)
def test_seeded_larger_instances_match_refs(family, n, k, seed):
    assert_matches_refs(gen_random(family, n, k, seed))


def test_disconnected_beyond_k_is_infeasible():
    m = np.ones((4, 4)) - np.eye(4)
    inst = make_instance(m, [(0, 1)], 2)
    for objective in (CENTER, DIAMETER):
        with pytest.raises(InfeasibleError, match="more components than k"):
            exact_disjoint(inst, objective)


def test_zero_time_budget_stops_the_dp(monkeypatch):
    monkeypatch.setattr(conncluster.oracle, "TIME_BUDGET_S", 0)
    inst = gen_random("general", 6, 2, seed=0)
    with pytest.raises(OracleLimitError, match="exceeded time budget"):
        exact_disjoint(inst, CENTER)


@pytest.mark.parametrize(
    "nodes, seconds, message",
    [(1, 120.0, "assignment search exceeded node budget"),
     (4097, -1.0, "assignment search exceeded time budget")],
    ids=["nodes", "time"],
)
def test_budgets_stop_the_assignment_search(monkeypatch, nodes, seconds, message):
    """The time budget is read every 4096 nodes, first at the first node
    when the node budget is 4097."""
    monkeypatch.setattr(conncluster.oracle, "MAX_ASSIGNMENT_NODES", nodes)
    monkeypatch.setattr(conncluster.oracle, "TIME_BUDGET_S", seconds)
    inst = gen_random("general", 6, 2, seed=0)
    with pytest.raises(OracleLimitError) as err:
        exact_assignment(inst, [0, 1], CENTER)
    assert str(err.value) == message


def test_size_limits_keep_their_messages():
    inst = gen_random("general", 13, 2, seed=0)
    with pytest.raises(OracleLimitError, match=r"n=13 exceeds partition-enumeration limit 12"):
        exact_disjoint(inst, DIAMETER)
    for oracle in (exact_nondisjoint_center_with_witness, exact_nondisjoint_diameter_with_witness):
        with pytest.raises(OracleLimitError, match=r"n=13 exceeds enumeration limit 12"):
            oracle(inst)


def test_oracle_imports_no_algorithm_it_checks():
    tree = ast.parse(Path(conncluster.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & {"greedy", "disjoint", "exact", "wsp"}
