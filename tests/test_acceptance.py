"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated scale and tolerance
and prints a one-line PASS summary (run with ``pytest -v -s`` to see
them).  Exact comparisons use integer-grid distances; approximation
factors allow only the floating tolerance of the distance comparisons.
"""

import math
import random
import time

import numpy as np

from conncluster import (
    CENTER,
    DIAMETER,
    clustering_cost,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center,
    exact_nondisjoint_diameter,
    gen_random,
    gen_sat_gadget,
    gen_worstcase_I,
    gen_worstcase_Iprime,
    partition_doubling,
    partition_general_metric,
    partition_lp,
    solve_assignment_given_centers,
    solve_disjoint,
    solve_line_center_nondisjoint,
    solve_line_diameter,
    solve_nondisjoint,
    solve_two_center_disjoint,
    tree_dp_solve,
    validate_clustering,
    verify_wsp,
)
from conncluster.instances import (
    gen_star_clique_cover,
    gen_star_multicut,
    gen_star_set_cover,
)
from conncluster.model import dist_leq
from conncluster.wsp import (
    doubling_layer_bound,
    general_diameter_bound,
    general_layer_bound,
    lp_diameter_bound,
    lp_layer_bound,
)

from _brute import clique_cover_leq, multicut_star_leq, sat_brute, set_cover_leq
from _gadget_witnesses import worstcase_I_alt_clustering
from _oracle_refs import exact_disjoint_center_via_centersets


def _sizes(seed, max_k):
    n = 3 + seed % 7  # 3..9
    k = 1 + (seed * 7 + 3) % min(max_k, n)
    return n, k


def test_criterion_1_oracle_equivalence_line_and_tree():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(500):
        n, k = _sizes(seed, 4)
        # raw integer-grid matrices are almost never metric, which the
        # line and tree algorithms must tolerate
        inst = gen_random("line", n, k, seed=seed)
        report, result = solve_line_center_nondisjoint(inst)
        assert validate_clustering(inst, result).feasible
        assert report.objective == exact_nondisjoint_center(inst)
        report_d, result_d = solve_line_diameter(inst)
        assert validate_clustering(inst, result_d).feasible
        optimum_d, _ = exact_disjoint(inst, DIAMETER)
        assert report_d.objective == optimum_d
        checked += 1
    for seed in range(500):
        n, k = _sizes(seed, 4)
        inst = gen_random("tree", n, k, seed=seed + 10_000)
        report, result = tree_dp_solve(inst)
        assert validate_clustering(inst, result).feasible
        optimum, _ = exact_disjoint(inst, CENTER)
        assert report.objective == optimum
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 1 oracle equivalence (line center/diameter, tree dp): "
        f"PASS [{checked} instances, {elapsed:.1f}s]"
    )


def test_criterion_2_approximation_factors():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    count = 0
    for seed in range(500):
        n, k = _sizes(seed, 3)
        inst = gen_random("general", n, k, seed=seed + 20_000)

        optimum_nc = exact_nondisjoint_center(inst)
        report, result = solve_nondisjoint(inst, CENTER)
        assert validate_clustering(inst, result).feasible
        assert dist_leq(optimum_nc, report.objective)
        assert dist_leq(report.objective, 2.0 * optimum_nc)

        optimum_nd = exact_nondisjoint_diameter(inst)
        report_d, result_d = solve_nondisjoint(inst, DIAMETER)
        assert validate_clustering(inst, result_d).feasible
        assert dist_leq(optimum_nd, report_d.objective)
        assert dist_leq(report_d.objective, 2.0 * optimum_nd)

        inst2 = gen_random("general", n, 2, seed=seed + 20_000) if k != 2 else inst
        report_2c, result_2c = solve_two_center_disjoint(inst2)
        assert validate_clustering(inst2, result_2c).feasible
        optimum_2c, _ = exact_disjoint(inst2, CENTER)
        assert dist_leq(optimum_2c, report_2c.objective)
        assert dist_leq(report_2c.objective, 2.0 * optimum_2c)

        C = rng.sample(range(n), 2)
        inst_c = inst2  # budget 2 admits the two fixed centers
        report_as, result_as = solve_assignment_given_centers(inst_c, C, CENTER)
        assert validate_clustering(inst_c, result_as).feasible
        value, _ = exact_assignment(inst_c, C, CENTER)
        # merging may drop below the fixed-center optimum, but never below
        # the unconstrained disjoint optimum
        assert dist_leq(optimum_2c, report_as.objective)
        assert dist_leq(report_as.objective, 3.0 * value)

        for objective in (CENTER, DIAMETER):
            report_dj, result_dj = solve_disjoint(inst, objective, "general")
            assert validate_clustering(inst, result_dj).feasible
            assert dist_leq(report_dj.objective, report_dj.bound)
        count += 1
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 2 approximation factors vs oracle: PASS "
        f"[{count} instances, 0 violations, {elapsed:.1f}s]"
    )


def test_criterion_3_well_separated_partitions():
    rng = random.Random(99)
    t0 = time.perf_counter()

    general_runs = 0
    for _ in range(200):
        n = rng.randint(1, 18)
        pts = np.array(
            [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
        )
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        r = rng.choice([0.4, 0.9, 1.7, 3.0])
        p = partition_general_metric(d, range(n), r)
        assert verify_wsp(d, range(n), p).feasible
        assert p.num_layers <= general_layer_bound(n)
        assert all(dist_leq(h, general_diameter_bound(n, r)) for h in p.h)
        general_runs += 1

    lp_runs = 0
    for d_dim in (1, 2, 3):
        for p_norm in (1, 2, math.inf):
            for _ in range(24):
                n = rng.randint(1, 14)
                coords = np.array(
                    [[rng.uniform(0, 8) for _ in range(d_dim)] for _ in range(n)]
                )
                diff = np.abs(coords[:, None, :] - coords[None, :, :])
                if p_norm == math.inf:
                    dmat = diff.max(axis=2)
                else:
                    dmat = (diff**p_norm).sum(axis=2) ** (1.0 / p_norm)
                r = rng.choice([0.3, 0.8, 1.6])
                p = partition_lp(coords, p_norm, range(n), r)
                assert verify_wsp(dmat, range(n), p).feasible
                assert p.num_layers <= lp_layer_bound(d_dim)
                bound = lp_diameter_bound(d_dim, p_norm, r)
                assert all(dist_leq(h, bound) for h in p.h)
                lp_runs += 1

    doubling_runs = 0
    for _ in range(100):
        n = rng.randint(1, 18)
        pts = np.array([rng.uniform(0, 12) for _ in range(n)])
        d = np.abs(pts[:, None] - pts[None, :])
        r = rng.choice([0.4, 1.0, 2.0])
        p = partition_doubling(d, range(n), r, dim=1)
        assert verify_wsp(d, range(n), p).feasible
        assert p.num_layers <= doubling_layer_bound(1)
        assert all(dist_leq(h, 2.0 * r) for h in p.h)
        doubling_runs += 1
    for _ in range(100):
        n = rng.randint(1, 18)
        pts = np.array(
            [[rng.uniform(0, 8), rng.uniform(0, 8)] for _ in range(n)]
        )
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        r = rng.choice([0.4, 1.0])
        p = partition_doubling(d, range(n), r, dim=2)
        assert verify_wsp(d, range(n), p).feasible
        assert p.num_layers <= doubling_layer_bound(2)
        assert all(dist_leq(h, 2.0 * r) for h in p.h)
        doubling_runs += 1

    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 3 well-separated partitions: PASS "
        f"[general={general_runs}, lp={lp_runs}, doubling={doubling_runs}, "
        f"0 violations, {elapsed:.1f}s]"
    )


def test_criterion_4_lower_bound_witnesses():
    t0 = time.perf_counter()
    meta = gen_worstcase_I(2)
    value, _ = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
    assert value == 3.0  # = 2m-1

    alt = worstcase_I_alt_clustering(meta)
    assert validate_clustering(meta.instance, alt).feasible
    assert clustering_cost(meta.instance, alt, CENTER) == 2.0
    assert alt.clusters_used <= len(meta.annotations["centers"])

    meta_p = gen_worstcase_Iprime(2)
    assert exact_nondisjoint_center(meta_p.instance) == 1.0
    assert exact_disjoint_center_via_centersets(meta_p.instance) == 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 4 lower-bound witnesses I(2)/I'(2): PASS [{elapsed:.1f}s]"
    )


def _random_formula(rng):
    nv = rng.randint(1, 6)
    clauses = []
    for _ in range(rng.randint(1, 2 * nv)):
        vs = rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv)))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def test_criterion_5_gadget_dichotomies():
    t0 = time.perf_counter()
    rng = random.Random(7)
    sat_checked = 0
    while sat_checked < 50:
        clauses = _random_formula(rng)
        meta = gen_sat_gadget(clauses, "two_center")
        value, _ = exact_assignment(meta.instance, meta.annotations["centers"], CENTER)
        expected = 1.0 if sat_brute(clauses) else 3.0
        assert value == expected
        sat_checked += 1

    cc_checked = 0
    while cc_checked < 50:
        nv = rng.randint(2, 6)
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < 0.5
        ]
        k = rng.randint(1, min(3, nv - 1))
        meta = gen_star_clique_cover(nv, edges, k)
        value = exact_nondisjoint_diameter(meta.instance)
        assert value in (1.0, 2.0)
        assert (value == 1.0) == clique_cover_leq(nv, edges, k)
        cc_checked += 1

    sc_checked = 0
    while sc_checked < 50:
        ne = rng.randint(2, 5)
        sets = [
            sorted(rng.sample(range(ne), rng.randint(1, ne)))
            for _ in range(rng.randint(2, 4))
        ]
        if set().union(*map(set, sets)) != set(range(ne)):
            sets.append(list(range(ne)))
        k = rng.randint(1, min(3, len(sets)))
        meta = gen_star_set_cover(ne, sets, k)
        value = exact_nondisjoint_center(meta.instance)
        assert value in (1.0, 2.0)
        assert (value == 1.0) == set_cover_leq(ne, sets, k)
        sc_checked += 1

    mc_checked = 0
    while mc_checked < 50:
        nl = rng.randint(2, 6)
        pairs = [
            (u, v)
            for u in range(nl)
            for v in range(u + 1, nl)
            if rng.random() < 0.4
        ] or [(0, 1)]
        k = rng.randint(1, min(3, nl - 1))
        meta = gen_star_multicut(nl, pairs, k)
        value, _ = exact_disjoint(meta.instance, DIAMETER)
        assert value in (1.0, 2.0)
        assert (value == 1.0) == multicut_star_leq(nl, pairs, k)
        mc_checked += 1

    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 5 gadget dichotomies: PASS [sat={sat_checked}, "
        f"clique-cover={cc_checked}, set-cover={sc_checked}, "
        f"multicut={mc_checked}, 0 violations, {elapsed:.1f}s]"
    )


def test_criterion_6_disjointification_invariants():
    # make_disjoint checks the connectivity of each cluster it splits,
    # the per-layer radius induction, the validity of its result and its
    # cost bound internally and raises on any violation; this suite
    # re-validates the outputs externally across strategies and both
    # objectives
    t0 = time.perf_counter()
    runs = 0
    for seed in range(120):
        n, k = _sizes(seed, 3)
        inst = gen_random("general", n, k, seed=seed + 30_000)
        for objective in (CENTER, DIAMETER):
            report, result = solve_disjoint(inst, objective, "general")
            verdict = validate_clustering(inst, result)
            assert verdict.feasible
            assert result.clusters_used <= inst.k
            assert dist_leq(report.objective, report.bound)
            runs += 1
    for seed in range(60):
        inst = gen_random("lp", 10 + seed % 8, 2 + seed % 4, seed=seed)
        for objective in (CENTER, DIAMETER):
            report, result = solve_disjoint(inst, objective, "lp")
            assert validate_clustering(inst, result).feasible
            assert dist_leq(report.objective, report.bound)
            runs += 1
        report, result = solve_disjoint(inst, CENTER, "doubling", dim=2)
        assert validate_clustering(inst, result).feasible
        assert dist_leq(report.objective, report.bound)
        runs += 1
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 6 disjointification invariants: PASS "
        f"[{runs} transform runs, 0 violations, {elapsed:.1f}s]"
    )


def test_criterion_7_scale_sanity():
    t0 = time.perf_counter()
    tree = gen_random("tree", 2000, 10, seed=1, max_distance=1000)
    t_tree = time.perf_counter()
    report, result = tree_dp_solve(tree)
    t_tree = time.perf_counter() - t_tree
    assert t_tree < 30.0
    assert validate_clustering(tree, result).feasible

    big = gen_random("lp", 2000, 50, seed=2)
    t_dj = time.perf_counter()
    report2, result2 = solve_disjoint(big, CENTER, "general")
    t_dj = time.perf_counter() - t_dj
    assert t_dj < 60.0
    assert validate_clustering(big, result2).feasible
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 7 scale sanity: PASS [tree-dp n=2000 in {t_tree:.1f}s, "
        f"disjoint pipeline n=2000 k=50 in {t_dj:.1f}s, total {elapsed:.1f}s]"
    )
