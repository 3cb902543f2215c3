import pytest

from conncluster import (
    CENTER,
    DIAMETER,
    InfeasibleError,
    InstanceFormatError,
    candidate_radii,
    compute_cluster,
    exact_nondisjoint_center,
    exact_nondisjoint_diameter,
    gen_random,
    greedy_clustering,
    greedy_with_given_centers,
    make_instance,
    solve_nondisjoint,
    validate_clustering,
)
from conncluster.model import dist_leq

from conftest import line6_with_k


def test_compute_cluster_swallows_cut_vertex(trap5):
    assert compute_cluster(trap5, 2.0, 0) == frozenset({0, 1, 2})


def test_compute_cluster_zero_radius(trap5):
    assert compute_cluster(trap5, 0.0, 3) == frozenset({3})


def test_compute_cluster_line6(line6):
    # growth from d stops at e (distance 2) but walks left to a
    assert compute_cluster(line6, 1.0, 3) == frozenset({0, 1, 2, 3})


def test_greedy_single_center_at_max_radius(line6):
    out = greedy_clustering(line6, 2.0)
    assert out.centers == (0,)
    assert out.clusters[0] == frozenset(range(6))


def test_greedy_trap_two_rounds(trap5):
    out = greedy_clustering(trap5, 2.0)
    assert out.centers == (0, 3)
    assert out.clusters[0] == frozenset({0, 1, 2})
    assert frozenset().union(*out.clusters) == set(range(5))


def test_greedy_max_centers_cutoff(line6):
    assert greedy_clustering(line6, 0.0, max_centers=2) is None


def test_greedy_maximality():
    for seed in range(10):
        inst = gen_random("general", 8, 3, seed=seed)
        for r in candidate_radii(inst):
            out = greedy_clustering(inst, r)
            for c, members in zip(out.centers, out.clusters):
                frontier = {
                    u
                    for v in members
                    for u in inst.adj[v]
                    if u not in members
                }
                for u in frontier:
                    assert not dist_leq(inst.d(u, c), r)


def test_given_centers_cover(trap5):
    out = greedy_with_given_centers(trap5, [0, 2], 1.0)
    assert out is not None
    assert out.centers == (0, 2)
    assert out.clusters == (frozenset({0, 1}), frozenset({2, 3, 4}))


def test_given_centers_all_singletons(trap5):
    out = greedy_with_given_centers(trap5, list(range(5)), 0.0)
    assert out is not None
    assert out.clusters == tuple(frozenset({c}) for c in range(5))


def test_given_centers_failure(trap5):
    assert greedy_with_given_centers(trap5, [0], 1.0) is None


def test_given_centers_rejects_duplicates(trap5):
    with pytest.raises(InstanceFormatError, match=r"center ids \[0\] repeated"):
        greedy_with_given_centers(trap5, [0, 0], 1.0)


def test_solve_nondisjoint_line6(line6):
    report, result = solve_nondisjoint(line6, CENTER)
    assert report.objective <= 2.0  # within twice the overlapping optimum 1
    assert validate_clustering(line6, result).feasible


def test_solve_nondisjoint_k_equals_n():
    inst = line6_with_k(6)
    report, result = solve_nondisjoint(inst, CENTER)
    assert report.objective == 0.0
    assert result.clusters_used == 6


def test_solve_nondisjoint_trap_ratio(trap5):
    report, _ = solve_nondisjoint(trap5, CENTER)
    assert report.objective <= 2.0 * exact_nondisjoint_center(trap5)


def test_factor_two_property_random():
    for seed in range(40):
        inst = gen_random("general", 7, 3, seed=seed)
        report, result = solve_nondisjoint(inst, CENTER)
        assert validate_clustering(inst, result).feasible
        assert dist_leq(report.objective, 2.0 * exact_nondisjoint_center(inst))
        report_d, result_d = solve_nondisjoint(inst, DIAMETER)
        assert validate_clustering(inst, result_d).feasible
        assert dist_leq(report_d.objective, 2.0 * exact_nondisjoint_diameter(inst))


def test_center_count_bounded_beyond_twice_optimum():
    # growth at any candidate at least twice the overlapping optimum
    # opens at most k centers
    for seed in range(15):
        inst = gen_random("general", 7, 3, seed=seed)
        r_star = exact_nondisjoint_center(inst)
        for r in candidate_radii(inst):
            if r >= 2.0 * r_star:
                out = greedy_clustering(inst, r)
                assert len(out.centers) <= inst.k


def test_diameter_count_bounded_beyond_optimum():
    for seed in range(15):
        inst = gen_random("general", 7, 3, seed=seed)
        d_star = exact_nondisjoint_diameter(inst)
        for r in candidate_radii(inst):
            if r >= d_star:
                out = greedy_clustering(inst, r)
                assert len(out.centers) <= inst.k


def test_cluster_radius_within_growth():
    for seed in range(10):
        inst = gen_random("lp", 9, 3, seed=seed)
        for r in candidate_radii(inst)[::5]:
            out = greedy_clustering(inst, r)
            for c, members in zip(out.centers, out.clusters):
                assert all(dist_leq(inst.d(x, c), r) for x in members)


def test_cluster_diameter_at_most_twice_growth():
    # requires the triangle inequality, hence the coordinate metric
    for seed in range(10):
        inst = gen_random("lp", 9, 3, seed=seed + 50)
        for r in candidate_radii(inst)[::5]:
            out = greedy_clustering(inst, r)
            for members in out.clusters:
                for x in members:
                    for y in members:
                        assert dist_leq(inst.d(x, y), 2.0 * r)


def test_disconnected_components_solved_jointly():
    # two 2-point components: feasible for k=2, infeasible for k=1
    m = [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]]
    inst = make_instance(m, [(0, 1), (2, 3)], 2)
    report, result = solve_nondisjoint(inst, CENTER)
    assert validate_clustering(inst, result).feasible
    assert report.objective == 1.0
    inst1 = make_instance(m, [(0, 1), (2, 3)], 1)
    with pytest.raises(InfeasibleError):
        solve_nondisjoint(inst1, CENTER)
