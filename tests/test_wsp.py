import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _wsp_refs
from conncluster import (
    gen_random,
    partition_doubling,
    partition_general_metric,
    partition_lp,
    partition_two_centers,
    verify_wsp,
)
from conncluster.model import AlgorithmPreconditionError, dist_leq, dist_leq_arr
from conncluster.wsp import (
    WellSeparatedPartition,
    _cell_color_block,
    _cycle_color,
    doubling_layer_bound,
    general_diameter_bound,
    general_layer_bound,
    _greedy_ball_cover,
    lp_diameter_bound,
    lp_layer_bound,
)


def spaced_line(n, step):
    """n points on a line with the given spacing."""
    idx = np.arange(n, dtype=float) * step
    return np.abs(idx[:, None] - idx[None, :])


def random_metric(rng, n, scale=10.0):
    """Metric from random plane points (so the triangle inequality holds)."""
    pts = np.array([[rng.uniform(0, scale), rng.uniform(0, scale)] for _ in range(n)])
    diff = pts[:, None, :] - pts[None, :, :]
    return pts, np.sqrt((diff**2).sum(axis=2))


# ---------------------------------------------------------------------------
# verification


def test_verify_accepts_singleton_line_pattern():
    # 7 centers spaced R, r=R: striping into three layers of singleton
    # groups keeps same-layer groups 3R > 2R apart with zero diameters
    d = spaced_line(7, 1.0)
    p = WellSeparatedPartition(
        r=1.0,
        layers=(
            (frozenset({0}), frozenset({3}), frozenset({6})),
            (frozenset({1}), frozenset({4})),
            (frozenset({2}), frozenset({5})),
        ),
        h=(0.0, 0.0, 0.0),
    )
    assert verify_wsp(d, range(7), p).feasible


def test_verify_single_center():
    d = np.zeros((1, 1))
    p = WellSeparatedPartition(1.0, ((frozenset({0}),),), (0.0,))
    assert verify_wsp(d, [0], p).feasible


def test_verify_rejects_boundary_separation():
    # distance exactly 2r in different groups on one layer is a violation
    d = spaced_line(2, 2.0)
    p = WellSeparatedPartition(
        1.0, ((frozenset({0}), frozenset({1})),), (0.0,)
    )
    verdict = verify_wsp(d, [0, 1], p)
    assert not verdict.feasible
    assert any("not > 2r" in v for v in verdict.violations)


def test_verify_rejects_missing_center():
    d = spaced_line(3, 10.0)
    p = WellSeparatedPartition(1.0, ((frozenset({0}), frozenset({1})),), (0.0,))
    assert not verify_wsp(d, [0, 1, 2], p).feasible


@pytest.mark.parametrize(
    "layers, h, violation",
    [
        (
            ((frozenset({0}), frozenset()), (frozenset({1}),)),
            (0.0, 0.0),
            "empty group on layer 0",
        ),
        (
            ((frozenset({0}),), (frozenset({0, 1}),)),
            (0.0, 10.0),
            "points [0] appear in multiple groups",
        ),
        (
            ((frozenset({0, 1}),),),
            (9.5,),
            "layer 0: group [0, 1] diameter 10.0 > h=9.5",
        ),
        (
            ((frozenset({0}),), (frozenset({1}),)),
            (0.0,),
            "h must have one entry per layer",
        ),
        (
            ((frozenset({0}),), (frozenset({1}),)),
            (0.0, 0.0, 0.0),
            "h must have one entry per layer",
        ),
    ],
    ids=["empty-group", "repeated-point", "diameter-above-h", "h-too-short", "h-too-long"],
)
def test_verify_names_each_broken_property(layers, h, violation):
    d = spaced_line(2, 10.0)
    verdict = verify_wsp(d, [0, 1], WellSeparatedPartition(1.0, layers, h))
    assert (verdict.feasible, verdict.violations) == (False, (violation,))


# ---------------------------------------------------------------------------
# general metric construction


def test_general_far_apart_singletons():
    d = spaced_line(5, 10.0)
    p = partition_general_metric(d, range(5), 1.0)
    assert p.num_layers == 1
    assert all(len(g) == 1 for g in p.layers[0])


def test_general_single_center():
    p = partition_general_metric(np.zeros((1, 1)), [0], 2.0)
    assert p.num_layers == 1 and p.layers[0] == (frozenset({0}),)


def test_general_seven_spaced_golden():
    # hand-executed ring growth on 7 centers spaced R with r=R
    d = spaced_line(7, 1.0)
    p = partition_general_metric(d, range(7), 1.0)
    assert p.r == 1.0
    assert p.layers == (
        (frozenset({0, 1, 2}), frozenset({5})),
        (frozenset({3}), frozenset({6})),
        (frozenset({4}),),
    )
    assert p.h == (2.0, 0.0, 0.0)
    assert verify_wsp(d, range(7), p).feasible
    assert p.num_layers <= general_layer_bound(7) == 5
    assert all(h <= general_diameter_bound(7, 1.0) for h in p.h)


def test_general_bounds_and_growth_on_random_metrics():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 16)
        _, d = random_metric(rng, n)
        r = rng.choice([0.5, 1.0, 2.0, 4.0])
        p = partition_general_metric(d, range(n), r)
        assert verify_wsp(d, range(n), p).feasible
        assert p.num_layers <= general_layer_bound(n)
        bound = general_diameter_bound(n, r)
        assert all(dist_leq(h, bound) for h in p.h)
        # each layer takes at least a third of the centers still unassigned
        unassigned = n
        for layer in p.layers:
            placed = sum(map(len, layer))
            assert 3 * placed >= unassigned
            unassigned -= placed
        assert unassigned == 0


# ---------------------------------------------------------------------------
# lp grid construction


def test_lp_one_dimensional_cells():
    coords = np.array([[0.5], [2.5]])
    p = partition_lp(coords, 2, [0, 1], 1.0)
    assert p.num_layers == 2
    assert all(len(layer) == 1 for layer in p.layers)


def test_lp_single_point():
    p = partition_lp(np.array([[3.0, 4.0]]), 2, [0], 1.0)
    assert p.num_layers == 1
    assert p.layers[0] == (frozenset({0}),)


@pytest.mark.parametrize("p_norm", [1, 2, math.inf])
def test_lp_zero_dimensions_give_one_layer_of_one_group(p_norm):
    """With no axes the grid has one cell: one layer, one group, at the
    layer bound for d = 0."""
    p = partition_lp(np.zeros((3, 0)), p_norm, [0, 1, 2], 1.0)
    assert p.layers == ((frozenset({0, 1, 2}),),)
    assert p.h == (0.0,)
    assert p.num_layers == lp_layer_bound(0) == 1
    assert verify_wsp(np.zeros((3, 3)), range(3), p).feasible


def test_cycle_color_is_the_built_cycle_over_whole_periods():
    for level in range(1, 13):
        seq = _wsp_refs._color_cycle(level)
        assert len(seq) == level * (level + 1)
        for t in range(2 * len(seq)):
            assert tuple(_cycle_color(level, t, slot) for slot in range(level)) == seq[t % len(seq)]


@settings(max_examples=300)
@given(st.integers(1, 40), st.one_of(st.integers(0, 3400), st.integers(0, 2**70)), st.data())
def test_cycle_color_is_the_built_cycle(level, t, data):
    """The closed form gives a slot the color that state t of the cycle
    the grid once built in memory (``_wsp_refs._color_cycle``) gives it."""
    seq = _wsp_refs._color_cycle(level)
    slot = data.draw(st.integers(0, level - 1))
    assert _cycle_color(level, t, slot) == seq[t % len(seq)][slot]


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**70)), max_size=40).map(tuple))
def test_cell_color_and_block_match_the_recursion(cell):
    d = len(cell)
    want = (_wsp_refs._cell_color(cell, d), _wsp_refs._cell_block(cell, d))
    assert _cell_color_block(cell) == want


@pytest.mark.parametrize("dim", [100, 300])
def test_lp_grid_past_99_dimensions(dim):
    """The built cycle gave up at level 100; the closed form has no such
    limit, and the grid keeps its layer bound."""
    inst = gen_random("lp", 30, 3, seed=0, dim=dim)
    for r in (0.05, 0.5, 5.0):
        p = partition_lp(inst.coords, inst.p, range(30), r)
        assert p.num_layers <= lp_layer_bound(dim)
        assert verify_wsp(inst.dist, range(30), p).feasible


def test_lp_square_corners():
    r = 1.0
    coords = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    p = partition_lp(coords, 2, range(4), r)
    assert sum(len(layer) for layer in p.layers) == 4  # every point its own group
    assert verify_wsp(d, range(4), p).feasible
    for layer in p.layers:
        for a in range(len(layer)):
            for b in range(a + 1, len(layer)):
                for u in layer[a]:
                    for v in layer[b]:
                        assert d[u, v] >= 8 * r
    assert all(h <= lp_diameter_bound(2, 2, r) for h in p.h)


@pytest.mark.parametrize("d_dim", [1, 2, 3])
@pytest.mark.parametrize("p_norm", [1, 2, math.inf])
def test_lp_bounds_random(d_dim, p_norm):
    rng = random.Random(100 * d_dim + (0 if p_norm == math.inf else int(p_norm)))
    for _ in range(12):
        n = rng.randint(1, 14)
        coords = np.array(
            [[rng.uniform(0, 8) for _ in range(d_dim)] for _ in range(n)]
        )
        diff = np.abs(coords[:, None, :] - coords[None, :, :])
        if p_norm == math.inf:
            dmat = diff.max(axis=2)
        else:
            dmat = (diff**p_norm).sum(axis=2) ** (1.0 / p_norm)
        r = rng.choice([0.3, 0.7, 1.5])
        p = partition_lp(coords, p_norm, range(n), r)
        assert verify_wsp(dmat, range(n), p).feasible
        assert p.num_layers <= lp_layer_bound(d_dim)
        bound = lp_diameter_bound(d_dim, p_norm, r)
        assert all(dist_leq(h, bound) for h in p.h)


def test_lp_requires_positive_radius():
    with pytest.raises(ValueError):
        partition_lp(np.array([[0.0]]), 2, [0], 0.0)


# ---------------------------------------------------------------------------
# doubling construction


def test_doubling_far_apart_singletons():
    d = spaced_line(5, 5.0)
    p = partition_doubling(d, range(5), 1.0, dim=1)
    assert p.num_layers == 1
    assert all(len(g) == 1 for g in p.layers[0])


def test_doubling_one_ball():
    d = spaced_line(3, 0.4)
    p = partition_doubling(d, range(3), 1.0, dim=1)
    assert p.num_layers == 1
    assert p.layers[0] == (frozenset({0, 1, 2}),)


def test_doubling_spaced_line_layers():
    d = spaced_line(9, 2.0)
    p = partition_doubling(d, range(9), 1.0, dim=1)
    assert verify_wsp(d, range(9), p).feasible
    assert p.num_layers <= doubling_layer_bound(1)
    assert all(dist_leq(h, 2.0) for h in p.h)
    assert all(len(g) == 1 for layer in p.layers for g in layer)


def test_doubling_bounds_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 18)
        pts = np.array([rng.uniform(0, 10) for _ in range(n)])
        d = np.abs(pts[:, None] - pts[None, :])
        r = rng.choice([0.4, 1.0, 2.5])
        p = partition_doubling(d, range(n), r, dim=1)
        assert verify_wsp(d, range(n), p).feasible
        assert p.num_layers <= doubling_layer_bound(1)
        assert all(dist_leq(h, 2.0 * r) for h in p.h)
    for _ in range(15):
        n = rng.randint(1, 18)
        _, d = random_metric(rng, n, scale=6.0)
        r = rng.choice([0.4, 1.0])
        p = partition_doubling(d, range(n), r, dim=2)
        assert verify_wsp(d, range(n), p).feasible
        assert p.num_layers <= doubling_layer_bound(2)
        assert all(dist_leq(h, 2.0 * r) for h in p.h)


def test_doubling_local_improvement_triggers():
    # 20 co-located points plus a ring of singletons within 4r: the heap
    # is one ball, and the singletons stay their own groups
    pts = np.concatenate([np.zeros(20), np.array([3.9, 4.0, 4.1])])
    d = np.abs(pts[:, None] - pts[None, :])
    p = partition_doubling(d, range(23), 1.0, dim=1)
    assert verify_wsp(d, range(23), p).feasible
    assert all(dist_leq(h, 2.0) for h in p.h)


# Matrices from every family, the non-metric line and tree ones included:
# the lemma below uses nothing but the order in which seeds are taken.
ball_cover_inputs = st.builds(
    lambda family, n, seed: gen_random(family, n, 1, seed).dist,
    st.sampled_from(("general", "lp", "line", "tree")),
    st.integers(1, 30),
    st.integers(0, 10**6),
)


@settings(max_examples=300)
@given(ball_cover_inputs, st.data())
def test_recovering_cover_balls_gives_them_back(d, data):
    # Each seed is the least point still uncovered, so it is its ball's
    # least member, and a later ball's members were uncovered when every
    # earlier seed was taken.  Re-covering any union of cover balls
    # therefore takes the same seeds and the same balls, in order: the
    # re-cover loop ``partition_doubling`` once had could never accept.
    n = len(d)
    r = data.draw(st.sampled_from(sorted({0.0, *d.ravel().tolist()})))
    cover = _greedy_ball_cover(d, range(n), r)
    picked = data.draw(
        st.lists(st.integers(0, len(cover) - 1), min_size=1, unique=True)
    )
    picked.sort()
    region = sorted(set().union(*(cover[j][1] for j in picked)))
    assert _greedy_ball_cover(d, region, r) == [cover[j] for j in picked]


def crowded_seeds(d, centers, r, dim):
    """How many cover seeds see at least 2^(4 dim) other seeds within
    4r: the groups the old re-cover loop tried to improve."""
    seeds = [s for s, _ in _greedy_ball_cover(d, sorted(centers), r)]
    near = dist_leq_arr(d[np.ix_(seeds, seeds)], 4.0 * r).sum(axis=1) - 1
    return int((near >= doubling_layer_bound(dim)).sum())


@pytest.mark.parametrize("n", [16, 17])
def test_layers_past_the_declared_dimension_raise(n):
    # n points pairwise 2 apart at r = 1: each is its own ball and every
    # two are neighbours, so n layers; dimension 1 allows 2^4 = 16
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    if n <= doubling_layer_bound(1):
        assert partition_doubling(d, range(n), 1.0, 1).num_layers == n
    else:
        with pytest.raises(AlgorithmPreconditionError, match="need 17 layers, more than the 16"):
            partition_doubling(d, range(n), 1.0, 1)


def test_under_declared_dimension_reaches_the_old_recover():
    # points of the plane declared one-dimensional: several seeds are
    # crowded, so the frozen copy runs its re-cover on them
    d = gen_random("lp", 120, 1, 4).dist
    assert crowded_seeds(d, range(120), 0.1, 1) > 0
    assert partition_doubling(d, range(120), 0.1, 1) == _wsp_refs.partition_doubling(
        d, range(120), 0.1, 1
    )


@settings(max_examples=60)
@given(
    st.integers(1, 100),
    st.integers(2, 3),
    st.integers(0, 10**6),
    st.sampled_from((0.05, 0.1, 0.15, 0.2)),
    st.data(),
)
def test_doubling_matches_frozen_copy(n, dim, seed, r, data):
    d = gen_random("lp", n, 1, seed, dim=dim).dist
    centers = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    want = _wsp_refs.partition_doubling(d, centers, r, 1)
    if want.num_layers > doubling_layer_bound(1):
        # more layers than the declared dimension allows: refused
        with pytest.raises(AlgorithmPreconditionError, match="doubling dimension 1 allows"):
            partition_doubling(d, centers, r, 1)
    else:
        assert partition_doubling(d, centers, r, 1) == want


# ---------------------------------------------------------------------------
# one or two centers


def test_two_centers_far():
    d = spaced_line(2, 3.0)
    p = partition_two_centers(d, [0, 1], 1.0)
    assert p.num_layers == 1
    assert len(p.layers[0]) == 2


def test_two_centers_boundary_merges():
    d = spaced_line(2, 2.0)
    p = partition_two_centers(d, [0, 1], 1.0)
    assert p.layers[0] == (frozenset({0, 1}),)
    assert p.h == (2.0,)
    assert verify_wsp(d, [0, 1], p).feasible


def test_two_centers_single():
    p = partition_two_centers(np.zeros((1, 1)), [0], 1.0)
    assert p.layers == ((frozenset({0}),),)


def test_two_centers_rejects_three():
    with pytest.raises(ValueError):
        partition_two_centers(spaced_line(3, 5.0), [0, 1, 2], 1.0)


def test_constructions_work_on_instance_subsets():
    inst = gen_random("lp", 12, 3, seed=9)
    centers = [1, 4, 7, 10]
    p = partition_general_metric(inst.dist, centers, 0.2)
    assert verify_wsp(inst.dist, centers, p).feasible
    p2 = partition_lp(inst.coords, inst.p, centers, 0.2)
    assert verify_wsp(inst.dist, centers, p2).feasible
    assert p2.center_set() == set(centers)
