import math

import numpy as np
import pytest

from conncluster import disjoint
from conncluster import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    AlgorithmPreconditionError,
    Clustering,
    clustering,
    clustering_cost,
    exact_assignment,
    exact_disjoint,
    gen_random,
    gen_sat_gadget,
    greedy_clustering,
    greedy_with_given_centers,
    make_disjoint,
    make_instance,
    pad_to_k,
    partition_bound,
    partition_general_metric,
    partition_two_centers,
    solve_assignment_given_centers,
    solve_disjoint,
    solve_two_center_disjoint,
    validate_clustering,
)
from conncluster.disjoint import DisjointInvariantError
from conncluster.model import dist_leq, make_report
from conncluster.wsp import WellSeparatedPartition

from conftest import line6_with_k


def test_make_disjoint_identity_when_already_disjoint(trap5):
    g = greedy_with_given_centers(trap5, [0, 2], 1.0)
    d = trap5.dist
    p = WellSeparatedPartition(
        1.0, ((frozenset({0}), frozenset({2})),), (0.0,)
    )
    _, out = make_disjoint(trap5, g, p, CENTER, "transform")
    assert sorted(sorted(c) for c in out.clusters) == [[0, 1], [2, 3, 4]]


def test_make_disjoint_merges_one_group(line6):
    g = greedy_with_given_centers(line6, [2, 3], 1.0)
    assert g is not None  # the two grown clusters cover everything
    p = partition_two_centers(line6.dist, [2, 3], 1.0)
    assert p.layers[0] == (frozenset({2, 3}),)
    report, out = make_disjoint(line6, g, p, CENTER, "transform")
    assert out.clusters == (frozenset(range(6)),)
    cost = clustering_cost(line6, out, CENTER)
    assert cost == 2.0
    bound = partition_bound(p, CENTER)
    assert dist_leq(cost, bound)  # (2l-1)r + sum h = 3
    # the report reuses the transform's validation and cost
    assert report == make_report(line6, out, CENTER, "transform", bound=bound)


def test_make_disjoint_splits_tree_between_owners():
    # path 0-1-2-3-4-5-6; layer-1 clusters {0,1} and {5,6} finalize first;
    # the layer-2 cluster {1,2,3,4,5} touches both and must split at its
    # spanning-tree edges, donating {1} and {5} and keeping {2,3,4}
    n = 7
    m = np.full((n, n), 4.0)
    np.fill_diagonal(m, 0.0)
    for u, v, val in [
        (0, 1, 1.0),
        (5, 6, 1.0),
        (2, 3, 1.0),
        (3, 4, 1.0),
        (1, 3, 2.0),
        (3, 5, 2.0),
        (1, 2, 1.5),
        (4, 5, 1.5),
    ]:
        m[u, v] = m[v, u] = val
    m[0, 6] = m[6, 0] = 10.0
    inst = make_instance(m, [(i, i + 1) for i in range(6)], 3)
    g = Clustering(
        clusters=(frozenset({0, 1}), frozenset({5, 6}), frozenset({1, 2, 3, 4, 5})),
        centers=(0, 6, 3),
        mode=NON_DISJOINT,
    )
    p = WellSeparatedPartition(
        r=2.0,
        layers=(
            (frozenset({0}), frozenset({6})),
            (frozenset({3}),),
        ),
        h=(0.0, 0.0),
    )
    _, out = make_disjoint(inst, g, p, CENTER, "transform")
    assert sorted(sorted(c) for c in out.clusters) == [[0, 1], [2, 3, 4], [5, 6]]
    assert validate_clustering(inst, out).feasible


def test_make_disjoint_rejects_center_mismatch(line6):
    g = greedy_with_given_centers(line6, [2, 3], 1.0)
    p = partition_two_centers(line6.dist, [2, 4], 1.0)
    with pytest.raises(AlgorithmPreconditionError, match="center set"):
        make_disjoint(line6, g, p, CENTER, "transform")


def test_make_disjoint_rejects_a_cover_without_centers(line6):
    p = partition_two_centers(line6.dist, [2, 3], 1.0)
    with pytest.raises(AlgorithmPreconditionError) as info:
        cover = clustering([range(6)], None, NON_DISJOINT)
        make_disjoint(line6, cover, p, CENTER, "transform")
    assert str(info.value) == "the transform needs a cover with centers"


def test_make_disjoint_rejects_a_cover_wider_than_the_partition_radius():
    # path 0-1-2 with d(0,1) = d(1,2) = 1 and d(0,2) = 2: the cover grown
    # around 0 at 2.0 holds 2, which lies past the partition's r = 1.0
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    inst = make_instance(m, [(0, 1), (1, 2)], 1)
    g = greedy_clustering(inst, 2.0)
    assert g == Clustering((frozenset({0, 1, 2}),), (0,), NON_DISJOINT)
    p = partition_two_centers(inst.dist, [0], 1.0)
    with pytest.raises(DisjointInvariantError) as info:
        make_disjoint(inst, g, p, CENTER, "transform")
    assert str(info.value) == (
        "after layer 1: cluster of center 0 has radius 2.0 > 1r + h_1..h_1 = 1.0"
    )
    # at the cover's own radius the transform keeps it
    p = partition_two_centers(inst.dist, [0], 2.0)
    _, out = make_disjoint(inst, g, p, CENTER, "transform")
    assert out == clustering([{0, 1, 2}], [0], DISJOINT)


@pytest.mark.parametrize(
    "clusters, centers, r, message",
    [
        # {0, 1, 3}, in the second layer, holds two points the first layer
        # finalized, so it is split along a spanning tree it does not have
        ([{0, 1}, {0, 1, 3}], [0, 1], 1.0,
         "cluster around 1 does not induce a connected subgraph"),
        ([{0, 1}], [0], 3.0, "points not covered: [2, 3]"),
    ],
    ids=["disconnected", "uncovered"],
)
def test_make_disjoint_rejects_a_broken_cover(clusters, centers, r, message):
    # path 0-1-2-3 with d = |i - j|
    m = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    inst = make_instance(m, [(0, 1), (1, 2), (2, 3)], 3)
    cover = clustering(clusters, centers, NON_DISJOINT)
    p = partition_general_metric(inst.dist, centers, r)
    with pytest.raises(DisjointInvariantError) as info:
        make_disjoint(inst, cover, p, CENTER, "transform")
    assert str(info.value) == message


def test_solve_disjoint_k_equals_n():
    inst = line6_with_k(6)
    report, result = solve_disjoint(inst, CENTER, "general")
    assert report.objective == 0.0


def test_solve_disjoint_line6_vs_oracle(line6):
    report, result = solve_disjoint(line6, CENTER, "general")
    assert validate_clustering(line6, result).feasible
    assert dist_leq(report.objective, report.bound)
    optimum, _ = exact_disjoint(line6, CENTER)
    assert optimum == 2.0
    assert report.objective / optimum <= report.bound / optimum


def test_solve_disjoint_lp_bound_arithmetic():
    inst = gen_random("lp", 20, 4, seed=3)
    report, result = solve_disjoint(inst, CENTER, "lp")
    assert validate_clustering(inst, result).feasible
    assert dist_leq(report.objective, report.bound)
    # with d=2 the partition has at most 3 layers of diameter <= 2r*2^1.5
    from conncluster import binary_search_min_feasible, candidate_radii

    found = binary_search_min_feasible(
        candidate_radii(inst),
        lambda r: greedy_clustering(inst, r, max_centers=inst.k),
    )
    r = found[0]
    worst = (2 * 3 - 1) * r + 3 * (2 * r * 2**1.5)
    assert dist_leq(report.bound, worst)


def test_solve_disjoint_doubling_strategy():
    inst = gen_random("lp", 14, 3, seed=8, dim=1)
    report, result = solve_disjoint(inst, CENTER, "doubling", dim=2)
    assert validate_clustering(inst, result).feasible
    assert dist_leq(report.objective, report.bound)


@pytest.mark.parametrize(
    "strategy, message",
    [
        ("lp", "lp strategy needs an lp metric"),
        ("doubling", "doubling strategy needs dim"),
        ("auto", "unknown partition strategy 'auto'"),
    ],
)
def test_solve_disjoint_refuses_a_strategy_before_the_search(
    monkeypatch, line6, strategy, message
):
    covers = []
    monkeypatch.setattr(disjoint, "greedy_clustering", lambda *a, **kw: covers.append(a))
    with pytest.raises(AlgorithmPreconditionError, match=f"^{message}$"):
        solve_disjoint(line6, CENTER, strategy)
    assert covers == []


def test_solve_disjoint_needs_a_strategy(line6):
    with pytest.raises(TypeError):
        solve_disjoint(line6, CENTER)


def test_solve_disjoint_diameter_bound():
    for seed in range(6):
        inst = gen_random("general", 8, 3, seed=seed)
        report, result = solve_disjoint(inst, DIAMETER, "general")
        assert validate_clustering(inst, result).feasible
        assert dist_leq(report.objective, report.bound)


def test_two_center_trap_is_optimal(trap5):
    report, result = solve_two_center_disjoint(trap5)
    assert report.objective == 1.0
    assert sorted(sorted(c) for c in result.clusters) == [[0, 1], [2, 3, 4]]
    assert result.centers == (0, 2)


def test_two_center_separated_cliques():
    m = np.full((6, 6), 10.0)
    np.fill_diagonal(m, 0.0)
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        m[u, v] = m[v, u] = 1.0
    for u, v in [(3, 4), (3, 5), (4, 5)]:
        m[u, v] = m[v, u] = 1.0
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    inst = make_instance(m, edges, 2)
    report, result = solve_two_center_disjoint(inst)
    assert report.objective == 1.0
    assert sorted(sorted(c) for c in result.clusters) == [[0, 1, 2], [3, 4, 5]]


def test_two_center_merges_overlap():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    inst = make_instance(m, [(0, 1), (1, 2)], 2)
    report, result = solve_two_center_disjoint(inst)
    optimum, _ = exact_disjoint(inst, CENTER)
    assert dist_leq(report.objective, 2.0 * optimum)
    assert validate_clustering(inst, result).feasible


def test_two_center_requires_k2(line6):
    inst = line6_with_k(3)
    with pytest.raises(AlgorithmPreconditionError):
        solve_two_center_disjoint(inst)


def test_two_center_factor_on_randoms():
    for seed in range(25):
        inst = gen_random("general", 8, 2, seed=seed)
        report, result = solve_two_center_disjoint(inst)
        assert validate_clustering(inst, result).feasible
        optimum, _ = exact_disjoint(inst, CENTER)
        assert dist_leq(report.objective, 2.0 * optimum)


def test_assignment_given_centers_sat_gadget():
    meta = gen_sat_gadget([[1, 2, 3], [-2, -3]], "two_center")
    inst = meta.instance
    report, result = solve_assignment_given_centers(
        inst, meta.annotations["centers"], CENTER
    )
    assert validate_clustering(inst, result).feasible
    assert dist_leq(report.objective, 3.0)  # 3 * the radius-1 optimum


def test_assignment_given_centers_all_points():
    inst = line6_with_k(6)
    report, result = solve_assignment_given_centers(inst, range(6), CENTER)
    assert report.objective == 0.0


def test_assignment_given_centers_line6(line6):
    report, result = solve_assignment_given_centers(line6, [2, 3], CENTER)
    value, _ = exact_assignment(line6, [2, 3], CENTER)
    assert dist_leq(report.objective, 3.0 * value)


def test_assignment_factor_on_randoms():
    import random

    rng = random.Random(77)
    for seed in range(25):
        inst = gen_random("general", 8, 3, seed=seed)
        C = rng.sample(range(8), 2)
        report, result = solve_assignment_given_centers(inst, C, CENTER)
        assert validate_clustering(inst, result).feasible
        value, _ = exact_assignment(inst, C, CENTER)
        assert dist_leq(report.objective, 3.0 * value)


def test_pad_splits_path_into_singletons():
    m = np.full((3, 3), 1.0)
    np.fill_diagonal(m, 0.0)
    inst = make_instance(m, [(0, 1), (1, 2)], 3)
    c = clustering([{0, 1, 2}], [1], DISJOINT)
    out = pad_to_k(inst, c)
    assert out.clusters_used == 3
    assert validate_clustering(inst, out).feasible


def test_pad_identity_when_k_met(line6):
    c = clustering([{0, 1, 2}, {3, 4, 5}], [1, 4], DISJOINT)
    assert pad_to_k(line6, c) is c


def test_pad_line6_merged_cluster(line6):
    c = clustering([set(range(6))], [3], DISJOINT)
    out = pad_to_k(line6, c)
    assert out.clusters_used == 2
    assert validate_clustering(line6, out).feasible
    assert clustering_cost(line6, out, CENTER) <= clustering_cost(line6, c, CENTER)


def test_pad_never_worsens_objectives():
    for seed in range(10):
        inst = gen_random("tree", 8, 5, seed=seed)
        report, result = solve_disjoint(inst, CENTER, "general")
        padded = pad_to_k(inst, result)
        assert padded.clusters_used == inst.k
        assert validate_clustering(inst, padded).feasible
        assert dist_leq(
            clustering_cost(inst, padded, CENTER),
            clustering_cost(inst, result, CENTER),
        )


def test_make_disjoint_invariants_random_suite():
    # structural postconditions hold on every pipeline run
    for seed in range(30):
        inst = gen_random("general", 9, 3, seed=seed)
        for objective in (CENTER, DIAMETER):
            report, result = solve_disjoint(inst, objective, "general")
            verdict = validate_clustering(inst, result)
            assert verdict.feasible
            assert dist_leq(report.objective, report.bound)


def test_pipeline_never_emits_invalid_clusterings_on_non_metric_input():
    # the transform's guarantees need the triangle inequality; on raw
    # integer matrices it must either produce a valid clustering or raise
    from conncluster import DisjointInvariantError

    raised = completed = 0
    for seed in range(40):
        inst = gen_random("line", 10, 4, seed=seed, metric_repair=False)
        try:
            report, result = solve_disjoint(inst, CENTER, "general")
        except DisjointInvariantError:
            raised += 1
            continue
        assert validate_clustering(inst, result).feasible
        completed += 1
    assert raised + completed == 40


def _assert_ratio_within_partition_factor(inst, strategy, dim=None):
    # cost / disjoint optimum stays within the partition-derived factor:
    # (4l-2) + 2*sum(h_i)/r for the center objective and
    # (4l-2) + h_1/r + 2*sum_{i>=2}(h_i)/r for the diameter objective
    from conncluster import binary_search_min_feasible, candidate_radii
    from conncluster.disjoint import _partitioner

    found = binary_search_min_feasible(
        candidate_radii(inst),
        lambda r: greedy_clustering(inst, r, max_centers=inst.k),
    )
    r, g = found
    if r == 0.0:
        return
    p = _partitioner(inst, strategy, dim)(g.centers, r)
    ell = p.num_layers
    factor_c = (4 * ell - 2) + 2 * sum(p.h) / r
    factor_d = (4 * ell - 2) + p.h[0] / r + 2 * sum(p.h[1:]) / r
    report_c, _ = solve_disjoint(inst, CENTER, strategy, dim=dim)
    opt_c, _ = exact_disjoint(inst, CENTER)
    if opt_c > 0:
        assert report_c.objective / opt_c <= factor_c + 1e-9
    report_d, _ = solve_disjoint(inst, DIAMETER, strategy, dim=dim)
    opt_d, _ = exact_disjoint(inst, DIAMETER)
    if opt_d > 0:
        assert report_d.objective / opt_d <= factor_d + 1e-9


def test_end_to_end_ratio_within_partition_factor():
    for seed in range(40):
        _assert_ratio_within_partition_factor(
            gen_random("general", 8, 3, seed=seed + 400), "general"
        )


@pytest.mark.parametrize(
    "strategy, p, dim",
    [("lp", 2, None), ("lp", math.inf, None), ("doubling", 2, 2)],
    ids=["lp-p2", "lp-pinf", "doubling-dim2"],
)
def test_end_to_end_ratio_within_partition_factor_on_lp_points(strategy, p, dim):
    # the paper's O(1) factor for low-dimensional Lp and doubling metrics,
    # on points in the unit square
    for seed in range(30):
        n = 8 + seed % 3
        inst = gen_random("lp", n, 3, seed=seed + 700, p=p)
        _assert_ratio_within_partition_factor(inst, strategy, dim)


def test_pad_needs_a_disjoint_clustering(line6):
    c = clustering([{0, 1, 2}, {2, 3, 4, 5}], [1, 4], NON_DISJOINT)
    with pytest.raises(AlgorithmPreconditionError, match="padding needs a disjoint clustering"):
        pad_to_k(line6, c)
