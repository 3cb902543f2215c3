import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    InfeasibleError,
    InstanceFormatError,
    binary_search_min_feasible,
    candidate_radii,
    check_triangle_inequality,
    clustering,
    clustering_cost,
    exact_disjoint,
    gen_random,
    load_instance,
    make_instance,
    solve_disjoint,
    solve_nondisjoint,
    to_dot,
    tree_dp_solve,
    validate_clustering,
)
from conncluster.model import (
    REL_TOL,
    Clustering,
    clustering_from_doc,
    dist_eq,
    dist_leq,
    dist_leq_arr,
    instance_from_doc,
    instance_to_doc,
)


# ---------------------------------------------------------------------------
# loading


def test_load_line6_doc(line6):
    assert line6.n == 6
    assert line6.k == 2
    assert line6.d(0, 3) == 1.0
    assert line6.d(0, 5) == 2.0
    assert line6.label(3) == "d"


def test_load_single_point():
    inst = load_instance(
        {"n": 1, "k": 1, "metric": {"type": "explicit", "matrix": [[0.0]]}, "edges": []}
    )
    assert inst.n == 1 and inst.adj == ((),)


def test_load_graph_metric_expands(trap5):
    assert trap5.d(1, 2) == 3.0  # u-z goes through x
    assert trap5.d(0, 4) == 3.0  # x-e goes through z


def test_load_rejects_asymmetric():
    doc = {
        "n": 2,
        "k": 1,
        "metric": {"type": "explicit", "matrix": [[0, 1], [2, 0]]},
        "edges": [[0, 1]],
    }
    with pytest.raises(InstanceFormatError, match="symmetric"):
        load_instance(doc)


def test_load_rejects_disconnected_graph_metric():
    doc = {
        "n": 3,
        "k": 1,
        "metric": {"type": "graph", "edges": [[0, 1, 1.0]]},
        "edges": [[0, 1], [1, 2]],
    }
    with pytest.raises(InstanceFormatError, match="disconnected"):
        load_instance(doc)


def test_load_rejects_bad_k():
    doc = {
        "n": 2,
        "k": 3,
        "metric": {"type": "explicit", "matrix": [[0, 1], [1, 0]]},
        "edges": [[0, 1]],
    }
    with pytest.raises(InstanceFormatError, match="k"):
        load_instance(doc)


@pytest.mark.parametrize(
    "source", ["[" * 100000 + "]" * 100000, b'{"n": "\xff"}'], ids=["deep-nesting", "non-utf8"]
)
def test_load_rejects_undecodable_json(source):
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        load_instance(source)


def test_make_instance_rejects_duplicate_edge():
    with pytest.raises(InstanceFormatError, match="duplicate"):
        make_instance(np.zeros((2, 2)), [(0, 1), (1, 0)], 1)


def test_instance_doc_round_trip(line6):
    doc = instance_to_doc(line6)
    again = load_instance(json.dumps(doc))
    assert np.allclose(again.dist, line6.dist)
    assert again.edges == line6.edges


def test_lp_metric_inf_norm():
    doc = {
        "n": 2,
        "k": 1,
        "metric": {"type": "lp", "coords": [[0, 0], [3, 4]], "p": "inf"},
        "edges": [[0, 1]],
    }
    inst = load_instance(doc)
    assert inst.d(0, 1) == 4.0
    assert inst.p == math.inf


# ---------------------------------------------------------------------------
# validation and cost


def test_validate_disconnected_cluster(line6):
    c = clustering([{0, 1, 3}, {2, 4, 5}], None, DISJOINT)
    verdict = validate_clustering(line6, c)
    assert not verdict.feasible
    assert any("not connected" in v for v in verdict.violations)


def test_validate_single_cluster_feasible(line6):
    inst = make_instance(line6.dist, line6.edges, 6)
    assert validate_clustering(inst, clustering([range(6)], None, DISJOINT)).feasible


def test_validate_overlap_modes(line6):
    overlapping = [{0, 1, 2, 3}, {2, 3, 4, 5}]
    assert validate_clustering(
        line6, clustering(overlapping, None, NON_DISJOINT)
    ).feasible
    verdict = validate_clustering(line6, clustering(overlapping, None, DISJOINT))
    assert not verdict.feasible
    assert any("overlap" in v for v in verdict.violations)


def test_validate_rejects_out_of_range(line6):
    with pytest.raises(ValueError, match="out of range"):
        validate_clustering(line6, clustering([{0, 99}], None, DISJOINT))


def test_cost_center_and_diameter(line6):
    c = clustering([{0, 1, 2, 3}, {2, 3, 4, 5}], [3, 2], NON_DISJOINT)
    assert clustering_cost(line6, c, CENTER) == 1.0
    singletons = clustering([{i} for i in range(6)], list(range(6)), DISJOINT)
    assert clustering_cost(line6, singletons, CENTER) == 0.0
    assert clustering_cost(line6, singletons, DIAMETER) == 0.0


def test_cost_requires_centers(line6):
    c = clustering([range(6)], None, DISJOINT)
    with pytest.raises(ValueError, match="centers"):
        clustering_cost(line6, c, CENTER)
    assert clustering_cost(line6, c, DIAMETER) == 2.0


def test_optimal_disjoint_cost_is_two(line6):
    value, best = exact_disjoint(line6, CENTER)
    assert value == 2.0
    assert clustering_cost(line6, best, CENTER) == 2.0


# ---------------------------------------------------------------------------
# candidate radii and the search driver


def test_candidate_radii_line6(line6):
    assert candidate_radii(line6).tolist() == [0.0, 1.0, 2.0]


def test_candidate_radii_single_point():
    inst = make_instance([[0.0]], [], 1)
    assert candidate_radii(inst).tolist() == [0.0]


def test_candidate_radii_collinear():
    doc = {
        "n": 3,
        "k": 1,
        "metric": {"type": "lp", "coords": [[0.0], [1.0], [3.0]], "p": 2},
        "edges": [[0, 1], [1, 2]],
    }
    assert candidate_radii(load_instance(doc)).tolist() == [0.0, 1.0, 2.0, 3.0]


def test_binary_search_boundary():
    calls = []

    def probe(r):
        calls.append(r)
        return "ok" if r >= 1 else None

    assert binary_search_min_feasible([0, 1, 2], probe) == (1, "ok")


def test_binary_search_all_true():
    assert binary_search_min_feasible([0, 1, 2], lambda r: "x")[0] == 0


def test_binary_search_suffix():
    res = binary_search_min_feasible([0, 1, 2, 5], lambda r: "x" if r >= 2 else None)
    assert res[0] == 2


def test_binary_search_infeasible():
    with pytest.raises(InfeasibleError, match="fails at the largest candidate"):
        binary_search_min_feasible([0, 1], lambda r: None)


@pytest.mark.parametrize("empty", [[], np.array([])], ids=["list", "array"])
def test_binary_search_empty_candidates(empty):
    with pytest.raises(ValueError, match="candidate list is empty"):
        binary_search_min_feasible(empty, lambda r: "x")


def test_binary_search_over_an_array_probes_python_floats():
    probes = []

    def probe(r):
        probes.append(r)
        return "x" if r >= 2 else None

    # one candidate, whose truth value is its own, and several, which have none
    with pytest.raises(InfeasibleError):
        binary_search_min_feasible(np.array([0.0]), probe)
    assert binary_search_min_feasible(np.array([0.0, 1.0, 2.0, 5.0]), probe) == (2.0, "x")
    assert type(binary_search_min_feasible(np.array([3.0]), probe)[0]) is float
    assert probes == [0.0, 1.0, 2.0, 3.0]
    assert all(type(r) is float for r in probes)


# ---------------------------------------------------------------------------
# tolerance helpers


def test_distance_tolerance():
    assert dist_eq(1.0, 1.0 + 1e-12)
    assert not dist_eq(1.0, 1.0 + 1e-6)
    assert dist_leq(1.0 + 1e-12, 1.0)
    assert not dist_leq(1.1, 1.0)


@settings(max_examples=300)
@given(
    st.lists(st.floats(0.0, 1e9), min_size=1, max_size=6),
    st.floats(-2.0, 1e9),
    st.sampled_from((-1, 0, 1)),
)
def test_dist_leq_arr_matches_dist_leq(bases, b, ulps):
    # every base, its tolerance edge against b, and one ulp either side
    values = list(bases)
    for x in (b, *bases):
        edge = b + REL_TOL * max(1.0, abs(x), abs(b))
        values += [edge, math.nextafter(edge, ulps * math.inf) if ulps else edge]
    a = np.array(values)
    got = dist_leq_arr(a.reshape(1, -1), b)[0]
    assert got.tolist() == [dist_leq(float(x), b) for x in a]


# ---------------------------------------------------------------------------
# triangle checker


def test_triangle_checker_flags_violations():
    m = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    inst = make_instance(m, [(0, 1), (1, 2)], 1)
    assert check_triangle_inequality(inst)
    lp = gen_random("lp", 9, 3, seed=5)
    assert check_triangle_inequality(lp) == []


# ---------------------------------------------------------------------------
# properties


def test_solver_costs_are_candidate_values():
    for seed in range(8):
        inst = gen_random("general", 7, 2, seed=seed)
        cands = candidate_radii(inst)
        for objective in (CENTER, DIAMETER):
            report, result = solve_nondisjoint(inst, objective)
            assert any(dist_eq(report.objective, c) for c in cands)
            report2, result2 = solve_disjoint(inst, objective, "general")
            assert any(dist_eq(report2.objective, c) for c in cands)


def test_solver_outputs_validate():
    for seed in range(8):
        inst = gen_random("general", 7, 3, seed=seed)
        for objective in (CENTER, DIAMETER):
            _, result = solve_nondisjoint(inst, objective)
            assert validate_clustering(inst, result).feasible
            _, result2 = solve_disjoint(inst, objective, "general")
            assert validate_clustering(inst, result2).feasible
        tree = gen_random("tree", 7, 3, seed=seed)
        _, result3 = tree_dp_solve(tree)
        assert validate_clustering(tree, result3).feasible


def test_to_dot_marks_centers(line6):
    c = clustering([{0, 1, 2, 3}, {2, 3, 4, 5}], [3, 2], NON_DISJOINT)
    dot = to_dot(line6, c)
    assert "peripheries=2" in dot
    assert 'label="a"' in dot
    assert dot.count(" -- ") == 5


@pytest.mark.parametrize(
    "load, message",
    [
        (lambda: make_instance([[0, 1], [1, 0]], [(0, 1)], 1, labels=["a"]),
         "labels length must equal n"),
        (lambda: instance_from_doc({"n": 2, "k": 1, "edges": [[0, 1]],
                                    "metric": {"type": "lp", "coords": [[0], [1]]}}),
         'lp metric needs "coords" and "p"'),
        (lambda: instance_from_doc({"n": 2, "k": 1, "edges": [[0, 1]], "metric": {"type": "graph"}}),
         'graph metric needs weighted "edges"'),
        (lambda: clustering_from_doc({"mode": "overlapping", "clusters": [[0]]}),
         "clustering mode must be one of ('disjoint', 'non_disjoint')"),
    ],
    ids=["labels", "lp-without-p", "graph-without-edges", "clustering-mode"],
)
def test_documents_missing_a_part_are_refused(load, message):
    with pytest.raises(InstanceFormatError) as err:
        load()
    assert str(err.value) == message


def test_a_mode_and_an_objective_outside_their_sets_raise(line6):
    with pytest.raises(ValueError, match="mode must be one of"):
        Clustering((frozenset({0}),), None, "overlapping")
    c = clustering([set(range(6))], [0], DISJOINT)
    with pytest.raises(ValueError, match="objective must be one of"):
        clustering_cost(line6, c, "radius")


def test_a_center_tuple_of_the_wrong_length_raises():
    with pytest.raises(ValueError) as err:
        Clustering((frozenset({0}), frozenset({1})), (0,), DISJOINT)
    assert str(err.value) == "centers and clusters must have equal length"

