"""Infeasible instances are refused before the radius search.

A connectivity graph with more components than the budget, or with a
component that holds none of the given centers, admits no clustering at
any radius.  Each solver that can meet one refuses it with its own
message before it computes a candidate radius, so the search itself
always answers.  ``Instance.components`` is the fact the refusals read.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conncluster import disjoint, greedy, oracle
from conncluster.model import (
    CENTER,
    DIAMETER,
    InfeasibleError,
    load_instance,
    make_instance,
)

csgraph = pytest.importorskip("scipy.sparse.csgraph")
sparse = pytest.importorskip("scipy.sparse")


def three_components(k):
    """Six points on a line in the plane; edges join 0-1, 2-3 and 4-5."""
    return load_instance({
        "n": 6,
        "k": k,
        "metric": {"type": "lp", "coords": [[float(i)] for i in range(6)], "p": 2},
        "edges": [[0, 1], [2, 3], [4, 5]],
    })


BUDGET = "connectivity graph has more components than the cluster budget"
ORACLE_BUDGET = "more connectivity components than the budget"

REFUSALS = [
    ("lp", disjoint, lambda inst: disjoint.solve_disjoint(inst, CENTER, "lp"), 2, BUDGET),
    ("general", disjoint, lambda inst: disjoint.solve_disjoint(inst, DIAMETER, "general"), 2, BUDGET),
    ("doubling", disjoint, lambda inst: disjoint.solve_disjoint(inst, CENTER, "doubling", dim=1), 2, BUDGET),
    ("greedy-center", greedy, lambda inst: greedy.solve_nondisjoint(inst, CENTER), 2, BUDGET),
    ("greedy-diameter", greedy, lambda inst: greedy.solve_nondisjoint(inst, DIAMETER), 1, BUDGET),
    ("two-center", disjoint, disjoint.solve_two_center_disjoint, 2,
     "connectivity graph has more than two components"),
    ("assign", disjoint, lambda inst: disjoint.solve_assignment_given_centers(inst, [0, 1, 2], CENTER), 3,
     "the given centers cannot reach every point"),
    ("oracle-center", oracle, oracle.exact_nondisjoint_center, 2, ORACLE_BUDGET),
    ("oracle-center-witness", oracle, oracle.exact_nondisjoint_center_with_witness, 2, ORACLE_BUDGET),
    ("oracle-diameter", oracle, oracle.exact_nondisjoint_diameter, 1, ORACLE_BUDGET),
    ("oracle-diameter-witness", oracle, oracle.exact_nondisjoint_diameter_with_witness, 2, ORACLE_BUDGET),
]


@pytest.mark.parametrize(
    "module, solve, k, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_infeasible_instance_is_refused_before_the_search(monkeypatch, module, solve, k, message):
    def never(*args):
        raise AssertionError("a candidate radius was computed")

    monkeypatch.setattr(module, "candidate_radii", never)
    monkeypatch.setattr(module, "binary_search_min_feasible", never)
    with pytest.raises(InfeasibleError) as err:
        solve(three_components(k))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "solve",
    [
        lambda inst: disjoint.solve_disjoint(inst, CENTER, "lp"),
        lambda inst: disjoint.solve_disjoint(inst, DIAMETER, "general"),
        lambda inst: greedy.solve_nondisjoint(inst, CENTER),
        lambda inst: disjoint.solve_assignment_given_centers(inst, [0, 3, 4], CENTER),
        lambda inst: oracle.exact_nondisjoint_diameter_with_witness(inst),
    ],
    ids=["lp", "general", "greedy", "assign", "oracle"],
)
def test_one_cluster_per_component_is_searched(solve):
    """At k equal to the number of components the search runs, and each
    component is one cluster."""
    _, result = solve(three_components(3))
    assert sorted(map(sorted, result.clusters)) == [[0, 1], [2, 3], [4, 5]]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


@settings(max_examples=200)
@given(graphs())
@example((1, []))
@example((5, []))
@example((7, [(0, 1), (1, 2), (3, 4), (5, 6)]))
@example((6, [(0, 5), (1, 4), (3, 2), (4, 0)]))
def test_components_match_scipy(graph):
    n, edges = graph
    inst = make_instance(np.ones((n, n)) - np.eye(n), edges, 1)
    rows = [u for u, _ in edges]
    cols = [v for _, v in edges]
    adjacency = sparse.coo_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    want, _ = csgraph.connected_components(adjacency, directed=False)
    assert inst.components == want
