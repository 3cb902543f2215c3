import random

import numpy as np
import pytest

from conncluster import (
    CENTER,
    DIAMETER,
    InstanceFormatError,
    OracleLimits,
    check_triangle_inequality,
    clustering_cost,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center,
    exact_nondisjoint_diameter,
    gen_random,
    gen_sat_gadget,
    gen_worstcase_I,
    gen_worstcase_Iprime,
    s_sequence,
    validate_clustering,
)
from conncluster.instances import (
    gen_star_clique_cover,
    gen_star_multicut,
    gen_star_set_cover,
    sat_four_center_clustering,
    sat_two_center_clustering,
    worstcase_I_alt_clustering,
    worstcase_I_given_center_assignment,
)
from conncluster.oracle import disjoint_feasible_at

from _brute import clique_cover_leq, multicut_star_leq, sat_brute, set_cover_leq


def test_s_sequence():
    assert s_sequence(5) == [0, 1, 2, 6, 42]
    for m in range(2, 8):
        s = s_sequence(m)
        # S(m) <= 2^(2^(m-1)) - 2^(2^(m-2)) - 1 for m >= 2
        assert s[m - 1] <= 2 ** (2 ** (m - 1)) - 2 ** (2 ** (m - 2)) - 1


# ---------------------------------------------------------------------------
# adversarial vector families


def test_worstcase_I2_shape():
    meta = gen_worstcase_I(2)
    assert meta.instance.n == 5
    assert len(meta.annotations["centers"]) == 2
    assert meta.instance.k == 2


def test_worstcase_I3_shape():
    meta = gen_worstcase_I(3)
    assert meta.instance.n == 17
    assert len(meta.annotations["centers"]) == 6
    assert meta.instance.is_connected()


@pytest.mark.parametrize("m", [2, 3])
def test_worstcase_I_given_center_optimum(m):
    meta = gen_worstcase_I(m)
    res = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    assert res is not None and res[0] == float(2 * m - 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_worstcase_I_explicit_assignment_feasible(m):
    meta = gen_worstcase_I(m)
    c = worstcase_I_given_center_assignment(meta)
    verdict = validate_clustering(meta.instance, c)
    assert verdict.feasible
    assert clustering_cost(meta.instance, c, CENTER) == (2 * m - 1 if m > 1 else 1)


@pytest.mark.parametrize("m", [2, 3])
def test_worstcase_I_alt_clustering_radius_two(m):
    meta = gen_worstcase_I(m)
    c = worstcase_I_alt_clustering(meta)
    assert validate_clustering(meta.instance, c).feasible
    assert clustering_cost(meta.instance, c, CENTER) == 2.0
    assert c.clusters_used <= len(meta.annotations["centers"])


def test_worstcase_I2_greedy_centers_are_suboptimal():
    # keeping the cover's centers costs 3; free centers achieve 2
    meta = gen_worstcase_I(2)
    given = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    free, _ = exact_disjoint(meta.instance, CENTER)
    assert given[0] == 3.0
    assert free == 2.0
    assert given[0] > free


def test_worstcase_I3_decision_node_counts():
    # the pigeonhole that forces radius 2m-1: at every level and for every
    # fixed prefix there is one fewer decision node than coordinate values,
    # so some coordinate value never reaches a decision node
    import itertools

    meta = gen_worstcase_I(3)
    m = 3
    S = meta.annotations["s_values"]  # S[t-1] = S(t)
    points = [tuple(v) for v in meta.annotations["points"]]
    ranges = [list(range(1, S[m - i - 1] + 2)) for i in range(m)]
    for mprime in range(m - 1):
        values_here = len(ranges[mprime])  # S(m - mprime) + 1
        for prefix in itertools.product(*ranges[:mprime]):
            decision = [
                v
                for v in points
                if v[mprime] < 0 and v[:mprime] == prefix
            ]
            assert len(decision) == S[m - mprime - 1] == values_here - 1


def test_worstcase_Iprime_shape():
    meta = gen_worstcase_Iprime(2)
    inst = meta.instance
    assert inst.n == 11
    assert meta.annotations["k"] == 2
    assert inst.k == 2
    groups = meta.annotations["special_groups"]
    assert len(groups) == 3
    assert all(len(g) == 3 for g in groups.values())


def test_worstcase_Iprime_gap():
    meta = gen_worstcase_Iprime(2)
    inst = meta.instance
    assert exact_nondisjoint_center(inst) == 1.0
    # disjoint optimum at least 2: no center pair serves everything at 1
    assert not disjoint_feasible_at(inst, 1.0)
    assert not disjoint_feasible_at(inst, 0.0)


# ---------------------------------------------------------------------------
# SAT gadgets


def test_sat_gadget_point_count():
    meta = gen_sat_gadget([[1]], "two_center")
    assert meta.instance.n == 6  # T, F, x1, ~x1, a1, b1


def test_sat_gadget_satisfiable_has_radius_one():
    meta = gen_sat_gadget([[1, 2, 3], [-2, -3]], "two_center")
    res = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    assert res[0] == 1.0
    assignment = sat_brute([[1, 2, 3], [-2, -3]])
    explicit = sat_two_center_clustering(meta, assignment)
    assert validate_clustering(meta.instance, explicit).feasible
    assert clustering_cost(meta.instance, explicit, CENTER) == 1.0


def test_sat_gadget_unsatisfiable_has_radius_three():
    meta = gen_sat_gadget([[1], [-1]], "two_center")
    assert meta.instance.n == 7
    res = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    assert res[0] == 3.0


def test_sat_gadget_dichotomy_small_corpus():
    rng = random.Random(4)
    for _ in range(12):
        nv = rng.randint(1, 4)
        clauses = [
            sorted(
                rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))),
                key=abs,
            )
            for _ in range(rng.randint(1, 4))
        ]
        clauses = [
            [v if rng.random() < 0.5 else -v for v in cl] for cl in clauses
        ]
        meta = gen_sat_gadget(clauses, "two_center")
        res = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
        expected = 1.0 if sat_brute(clauses) else 3.0
        assert res[0] == expected


def test_sat_gadget_rejects_bad_formula():
    with pytest.raises(InstanceFormatError):
        gen_sat_gadget([], "two_center")
    with pytest.raises(InstanceFormatError):
        gen_sat_gadget([[1, 2, 3, 4]], "two_center")
    with pytest.raises(InstanceFormatError):
        gen_sat_gadget([[0]], "two_center")


def test_sat_four_center_gadget():
    clauses = [[1, 2], [-1, 2]]
    meta = gen_sat_gadget(clauses, "four_center")
    inst = meta.instance
    assert inst.k == 4
    assert inst.n == 4 + 5 * (3 * 2 + 2)
    assignment = sat_brute(clauses)
    explicit = sat_four_center_clustering(meta, assignment)
    assert validate_clustering(inst, explicit).feasible
    assert clustering_cost(inst, explicit, CENTER) == 1.0


# ---------------------------------------------------------------------------
# star gadgets


def test_star_clique_cover_triangle():
    meta = gen_star_clique_cover(3, [(0, 1), (1, 2), (0, 2)], 1)
    assert exact_nondisjoint_diameter(meta.instance) == 1.0


def test_star_set_cover_single():
    meta = gen_star_set_cover(1, [[0]], 1)
    assert exact_nondisjoint_center(meta.instance) == 1.0


def test_star_multicut_one_pair():
    meta = gen_star_multicut(3, [(0, 1)], 1)
    assert meta.annotations["family"] == "star-multicut"
    assert meta.instance.k == 2
    optimum, _ = exact_disjoint(meta.instance, DIAMETER)
    assert optimum == 1.0


def test_star_gadgets_agree_with_brute_force_small():
    rng = random.Random(12)
    for _ in range(10):
        nv = rng.randint(2, 5)
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < 0.5
        ]
        k = rng.randint(1, nv - 1)
        meta = gen_star_clique_cover(nv, edges, k)
        val = exact_nondisjoint_diameter(meta.instance)
        assert (val == 1.0) == clique_cover_leq(nv, edges, k)

        ne = rng.randint(2, 4)
        sets = []
        for _ in range(rng.randint(2, 4)):
            sets.append(sorted(rng.sample(range(ne), rng.randint(1, ne))))
        if not set().union(*map(set, sets)) == set(range(ne)):
            sets.append(list(range(ne)))
        k2 = rng.randint(1, min(3, len(sets)))
        meta2 = gen_star_set_cover(ne, sets, k2)
        val2 = exact_nondisjoint_center(meta2.instance, OracleLimits(max_k_subsets=6))
        assert (val2 == 1.0) == set_cover_leq(ne, sets, k2)

        nl = rng.randint(2, 5)
        pairs = [
            (u, v)
            for u in range(nl)
            for v in range(u + 1, nl)
            if rng.random() < 0.4
        ] or [(0, 1)]
        k3 = rng.randint(1, nl - 1)
        meta3 = gen_star_multicut(nl, pairs, k3)
        val3, _ = exact_disjoint(meta3.instance, DIAMETER)
        assert (val3 == 1.0) == multicut_star_leq(nl, pairs, k3)


# ---------------------------------------------------------------------------
# random families


def test_gen_random_deterministic():
    a = gen_random("line", 5, 2, seed=7)
    b = gen_random("line", 5, 2, seed=7)
    assert np.array_equal(a.dist, b.dist)
    assert a.edges == b.edges
    c = gen_random("line", 5, 2, seed=8)
    assert not np.array_equal(a.dist, c.dist)


def test_gen_random_tree_structure():
    for seed in range(5):
        inst = gen_random("tree", 9, 3, seed=seed)
        assert len(inst.edges) == 8
        assert inst.is_connected()


def test_gen_random_lp_is_metric():
    inst = gen_random("lp", 9, 3, seed=2)
    assert check_triangle_inequality(inst) == []


def test_gen_random_general_repair_default():
    inst = gen_random("general", 8, 2, seed=3)
    assert check_triangle_inequality(inst) == []
    raw = gen_random("general", 8, 2, seed=3, metric_repair=False)
    assert raw.is_connected()


def test_gen_random_rejects_bad_sizes():
    with pytest.raises(InstanceFormatError):
        gen_random("line", 3, 5, seed=0)
