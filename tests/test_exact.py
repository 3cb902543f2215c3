import random

import numpy as np
import pytest

from conncluster import (
    CENTER,
    DIAMETER,
    AlgorithmPreconditionError,
    candidate_radii,
    clustering_cost,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center,
    gen_random,
    line_center_nondisjoint,
    line_diameter,
    make_instance,
    solve_line_center_nondisjoint,
    solve_line_diameter,
    solve_tree_assignment,
    tree_assignment,
    tree_dp_solve,
    validate_clustering,
)
from conncluster.exact import _path_matrix
from conncluster.model import dist_leq

from _tree_refs import path_max_table, path_order, tree_dp_count
from conftest import line6_with_k


# ---------------------------------------------------------------------------
# path recovery


def test_path_order_identity(line6):
    assert line6.tree.path == (0, 1, 2, 3, 4, 5)
    assert path_order(line6) == [0, 1, 2, 3, 4, 5]


def test_path_order_scrambled():
    # path 2-0-3-1 given by edges; starts at the smaller endpoint
    m = np.zeros((4, 4))
    inst = make_instance(m, [(2, 0), (0, 3), (3, 1)], 1)
    assert inst.tree.path == (1, 3, 0, 2)
    assert path_order(inst) == [1, 3, 0, 2]


def test_path_order_rejects_star():
    m = np.zeros((4, 4))
    inst = make_instance(m, [(0, 1), (0, 2), (0, 3)], 1)
    assert inst.tree is not None and inst.tree.path is None
    with pytest.raises(AlgorithmPreconditionError, match="not a path"):
        _path_matrix(inst)
    with pytest.raises(AlgorithmPreconditionError):
        path_order(inst)


# ---------------------------------------------------------------------------
# line center


def test_line_center_line6_example(line6):
    result = line_center_nondisjoint(line6, 1.0)
    assert result is not None
    assert [sorted(c) for c in result.clusters] == [[0, 1, 2, 3], [2, 3, 4, 5]]
    assert result.centers == (3, 2)
    assert clustering_cost(line6, result, CENTER) == 1.0


def test_line_center_big_radius(line6):
    result = line_center_nondisjoint(line6, 2.0)
    assert result is not None and result.clusters_used == 1


def test_line_center_too_small(line6):
    assert line_center_nondisjoint(line6, 0.0) is None


def test_line_center_matches_oracle_small():
    cases = [(s, s) for s in range(60)] + [(s, s + 3000) for s in range(40)]
    for s, seed in cases:
        n = 3 + s % 7
        k = 1 + s % min(4, n)
        inst = gen_random("line", n, k, seed=seed)
        report, result = solve_line_center_nondisjoint(inst)
        assert validate_clustering(inst, result).feasible
        assert report.objective == exact_nondisjoint_center(inst)


def test_line_center_count_monotone():
    for seed in range(10):
        inst = gen_random("line", 8, 8, seed=seed)
        counts = []
        for r in candidate_radii(inst):
            result = line_center_nondisjoint(inst, r)
            counts.append(result.clusters_used)
        assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# line diameter


def test_line_diameter_segments(line6):
    inst = line6_with_k(6)
    result = line_diameter(inst, 1.0)
    assert [sorted(c) for c in result.clusters] == [[0], [1], [2, 3], [4], [5]]


def test_line_diameter_single_segment(line6):
    result = line_diameter(line6_with_k(1), 2.0)
    assert result.clusters_used == 1


def test_line_diameter_too_small(line6):
    assert line_diameter(line6, 1.0) is None  # five segments exceed k=2


def test_line_diameter_matches_oracle_small():
    for seed in range(60):
        n = 3 + seed % 7
        inst = gen_random("line", n, 1 + seed % min(4, n), seed=seed + 1000)
        report, result = solve_line_diameter(inst)
        assert validate_clustering(inst, result).feasible
        optimum, _ = exact_disjoint(inst, DIAMETER)
        assert report.objective == optimum


def test_line_diameter_count_monotone():
    for seed in range(10):
        inst = gen_random("line", 8, 8, seed=seed)
        counts = [
            line_diameter(inst, r).clusters_used for r in candidate_radii(inst)
        ]
        assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# path-max table


def brute_path_max(inst, order_neighbors):
    n = inst.n
    table = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            # unique tree path via DFS
            stack = [(u, [u])]
            path = None
            while stack:
                x, px = stack.pop()
                if x == v:
                    path = px
                    break
                for y in inst.adj[x]:
                    if len(px) < 2 or y != px[-2]:
                        if y not in px:
                            stack.append((y, px + [y]))
            table[u, v] = max(inst.d(u, w) for w in path)
    return table


def test_path_max_table_matches_brute_force():
    for seed in range(12):
        inst = gen_random("tree", 8, 2, seed=seed)
        fast = path_max_table(inst)
        slow = brute_path_max(inst, None)
        assert np.allclose(fast, slow)


def test_path_max_table_basic_properties():
    inst = gen_random("tree", 9, 2, seed=42)
    t = path_max_table(inst)
    assert np.all(np.diag(t) == 0.0)
    assert np.all(t >= inst.dist - 1e-12)


# ---------------------------------------------------------------------------
# tree DP


def test_tree_dp_count_single_node():
    inst = make_instance([[0.0]], [], 1)
    assert tree_dp_count(inst, 0.0) == 1


def test_tree_dp_count_line6(line6):
    # one cluster around d already has radius 2; radius 1 needs three
    assert tree_dp_count(line6, 2.0) == 1
    assert tree_dp_count(line6, 1.0) == 3
    optimum_k1, _ = exact_disjoint(line6_with_k(1), CENTER)
    assert optimum_k1 == 2.0  # confirms the single-cluster count above


def test_tree_dp_solve_line6(line6):
    report, result = tree_dp_solve(line6)
    assert report.objective == 2.0
    assert validate_clustering(line6, result).feasible


def test_tree_dp_solve_k_equals_n():
    report, result = tree_dp_solve(line6_with_k(6))
    assert report.objective == 0.0


def test_tree_dp_matches_oracle_random():
    for seed in range(60):
        n = 3 + seed % 7
        inst = gen_random("tree", n, 1 + seed % min(4, n), seed=seed)
        report, result = tree_dp_solve(inst)
        assert validate_clustering(inst, result).feasible
        optimum, _ = exact_disjoint(inst, CENTER)
        assert report.objective == optimum


def test_tree_dp_count_monotone_in_radius():
    for seed in range(10):
        inst = gen_random("tree", 8, 8, seed=seed)
        counts = [tree_dp_count(inst, r) for r in candidate_radii(inst)]
        assert counts == sorted(counts, reverse=True)


def test_tree_dp_rejects_non_tree():
    m = np.zeros((3, 3))
    inst = make_instance(m, [(0, 1), (1, 2), (0, 2)], 1)
    with pytest.raises(AlgorithmPreconditionError):
        tree_dp_count(inst, 1.0)


# ---------------------------------------------------------------------------
# tree assignment


def test_tree_assignment_all_centers(line6):
    inst = line6_with_k(6)
    result = tree_assignment(inst, range(6), 0.0)
    assert result is not None
    assert all(len(c) == 1 for c in result.clusters)


def test_tree_assignment_small_star():
    # root t(0) with leaves c(1) and l(2); center c serves everything at 1
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    inst = make_instance(m, [(0, 1), (0, 2)], 1)
    result = tree_assignment(inst, [1], 1.0)
    assert result is not None
    assert result.clusters == (frozenset({0, 1, 2}),)
    # at radius 0.5 nothing outside the center is reachable
    assert tree_assignment(inst, [1], 0.5) is None


def test_tree_assignment_line6_smallest_radius(line6):
    report, result = solve_tree_assignment(line6, [2, 3])
    value, _ = exact_assignment(line6, [2, 3], CENTER)
    assert report.objective == value == 2.0


def test_tree_assignment_nonleaf_center_split(trap5):
    # center z(2) has three neighbors and is split into leaf copies
    result = tree_assignment(trap5, [2], 3.0)
    assert result is not None
    assert result.clusters == (frozenset(range(5)),)
    assert validate_clustering(trap5, result).feasible


def test_tree_assignment_consistent_with_oracle():
    rng = random.Random(9)
    for seed in range(40):
        n = 3 + seed % 6
        inst = gen_random("tree", n, 2, seed=seed)
        C = rng.sample(range(n), rng.randint(1, 2))
        for r in candidate_radii(inst)[:: max(1, n // 3)]:
            mine = tree_assignment(inst, C, r)
            if mine is not None:
                verdict = validate_clustering(
                    inst, mine
                )
                assert verdict.feasible or any(
                    "budget" in v for v in verdict.violations
                )
                assert dist_leq(clustering_cost(inst, mine, CENTER), r)
            else:
                value, _ = exact_assignment(inst, C, CENTER)  # a tree is connected
                assert value > r


def test_solve_tree_assignment_matches_oracle():
    rng = random.Random(31)
    for seed in range(30):
        n = 4 + seed % 5
        inst = gen_random("tree", n, 2, seed=seed + 500)
        C = rng.sample(range(n), 2)
        report, result = solve_tree_assignment(inst, C)
        value, _ = exact_assignment(inst, C, CENTER)
        assert report.objective == value
