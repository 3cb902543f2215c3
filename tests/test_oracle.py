import numpy as np
import pytest

from conncluster import (
    CENTER,
    DIAMETER,
    InfeasibleError,
    OracleLimitError,
    clustering_cost,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center,
    exact_nondisjoint_diameter,
    gen_random,
    gen_sat_gadget,
    gen_worstcase_I,
    gen_worstcase_Iprime,
    make_instance,
    validate_clustering,
)
from conncluster.model import dist_leq

from _oracle_refs import exact_disjoint_center_via_centersets
from conftest import line6_with_k


def test_exact_disjoint_line6(line6):
    value, best = exact_disjoint(line6, CENTER)
    assert value == 2.0
    assert validate_clustering(line6, best).feasible


def test_exact_disjoint_all_singletons():
    inst = line6_with_k(6)
    value, best = exact_disjoint(inst, CENTER)
    assert value == 0.0
    assert best.clusters_used <= 6


def test_exact_disjoint_trap(trap5):
    value, best = exact_disjoint(trap5, CENTER)
    assert value == 1.0
    assert sorted(sorted(c) for c in best.clusters) == [[0, 1], [2, 3, 4]]


def test_exact_disjoint_diameter_trap(trap5):
    value, best = exact_disjoint(trap5, DIAMETER)
    assert value == 2.0  # {z,c,e} has pairwise distance 2
    assert validate_clustering(trap5, best).feasible


def test_exact_disjoint_refuses_large():
    inst = gen_random("general", 13, 2, seed=0)
    with pytest.raises(OracleLimitError):
        exact_disjoint(inst, CENTER)


def test_exact_nondisjoint_center_line6(line6):
    assert exact_nondisjoint_center(line6) == 1.0


def test_exact_nondisjoint_center_k_equals_n():
    assert exact_nondisjoint_center(line6_with_k(6)) == 0.0


def test_exact_nondisjoint_center_iprime():
    meta = gen_worstcase_Iprime(2)
    assert exact_nondisjoint_center(meta.instance) == 1.0


def test_exact_nondisjoint_diameter_line6(line6):
    assert exact_nondisjoint_diameter(line6) == 2.0


def test_exact_nondisjoint_diameter_small_path():
    m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    inst = make_instance(m, [(0, 1), (1, 2)], 1)
    assert exact_nondisjoint_diameter(inst) == 1.0


def test_exact_assignment_worstcase_I2():
    meta = gen_worstcase_I(2)
    value, best = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    assert value == 3.0
    assert validate_clustering(meta.instance, best).feasible


def test_exact_assignment_all_centers(line6):
    inst = line6_with_k(6)
    value, best = exact_assignment(inst, list(range(6)), CENTER)
    assert value == 0.0


def test_exact_assignment_sat_gadget():
    meta = gen_sat_gadget([[1, 2, 3], [-2, -3]], "two_center")
    value, best = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    assert value == 1.0


def test_exact_assignment_infeasible_component():
    m = [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]]
    inst = make_instance(m, [(0, 1), (2, 3)], 2)
    with pytest.raises(InfeasibleError, match="no feasible assignment for the given centers"):
        exact_assignment(inst, [0, 1], CENTER)
    # three components: centers in two of them leave the third unserved
    m3 = np.full((6, 6), 5.0)
    np.fill_diagonal(m3, 0.0)
    inst3 = make_instance(m3, [(0, 1), (2, 3), (4, 5)], 3)
    for centers in ([0, 2], [1, 5], [3, 4], [0, 1, 2]):
        with pytest.raises(InfeasibleError):
            exact_assignment(inst3, centers, CENTER)
    value, best = exact_assignment(inst3, [1, 2, 5], CENTER)
    assert value == 5.0
    assert best.clusters == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))


def test_exact_assignment_diameter(trap5):
    value, best = exact_assignment(trap5, [0, 2], DIAMETER)
    assert value == clustering_cost(trap5, best, DIAMETER)
    assert validate_clustering(trap5, best).feasible


def test_nondisjoint_witnesses_match_values():
    from conncluster import (
        exact_nondisjoint_center_with_witness,
        exact_nondisjoint_diameter_with_witness,
    )
    from conncluster import CENTER as C_OBJ, clustering_cost

    for seed in range(15):
        inst = gen_random("general", 7, 3, seed=seed + 60)
        v, w = exact_nondisjoint_center_with_witness(inst)
        assert validate_clustering(inst, w).feasible
        assert clustering_cost(inst, w, C_OBJ) == v
        v2, w2 = exact_nondisjoint_diameter_with_witness(inst)
        assert validate_clustering(inst, w2).feasible
        assert clustering_cost(inst, w2, DIAMETER) == v2


def test_sandwich_nondisjoint_le_disjoint():
    for seed in range(25):
        inst = gen_random("general", 7, 3, seed=seed)
        dis_c, _ = exact_disjoint(inst, CENTER)
        dis_d, _ = exact_disjoint(inst, DIAMETER)
        assert dist_leq(exact_nondisjoint_center(inst), dis_c)
        assert dist_leq(exact_nondisjoint_diameter(inst), dis_d)


def test_cross_check_two_independent_center_oracles():
    for seed in range(20):
        inst = gen_random("general", 8, 3, seed=seed)
        via_partitions, _ = exact_disjoint(inst, CENTER)
        via_center_sets = exact_disjoint_center_via_centersets(inst)
        assert via_partitions == via_center_sets
    for seed in range(10):
        inst = gen_random("tree", 8, 2, seed=seed)
        via_partitions, _ = exact_disjoint(inst, CENTER)
        assert via_partitions == exact_disjoint_center_via_centersets(inst)


def test_limits_respected():
    inst = gen_random("general", 8, 5, seed=1)
    with pytest.raises(OracleLimitError, match="k=5 exceeds subset limit 4"):
        exact_disjoint_center_via_centersets(inst)
