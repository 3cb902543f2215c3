"""The bulk random draws of ``gen_random`` pinned to the scalar loops they
replaced (``tests/_gen_refs.py``): the same instances from the same seeds,
and the generator left in the same state after each helper.  A change in
how CPython's ``randint`` or ``random`` consume the Mersenne Twister shows
here first."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _gen_refs as refs
from conncluster import instances
from conncluster.instances import gen_random

max_distances = st.one_of(
    st.integers(1, 1000),
    st.sampled_from([1, 2, 3, 9, 2**16, 2**31, 2**31 + 1, 2**32 - 1]),
)
seeds = st.integers(0, 2**40)


@settings(max_examples=150)
@given(
    st.sampled_from(["line", "tree", "general", "lp"]),
    st.integers(1, 40),
    seeds,
    max_distances,
    st.sampled_from([None, False, True]),
    st.integers(0, 3),
    st.sampled_from([1, 2, 3, math.inf]),
    st.data(),
)
def test_gen_random_matches_scalar_draws(family, n, seed, max_distance, repair, dim, p, data):
    k = data.draw(st.integers(1, n))
    kw = dict(dim=dim, p=p, max_distance=max_distance, metric_repair=repair)
    got = gen_random(family, n, k, seed, **kw)
    want = refs.gen_random(family, n, k, seed, **kw)
    assert np.array_equal(got.dist, want.dist)
    assert got.edges == want.edges
    assert got.k == want.k
    if want.coords is None:
        assert got.coords is None
    else:
        assert got.coords.shape == want.coords.shape
        assert np.array_equal(got.coords, want.coords)


def twins(seed):
    return random.Random(seed), random.Random(seed)


@settings(max_examples=60)
@given(st.integers(0, 40), seeds, max_distances)
def test_matrix_draw_leaves_the_stream_where_the_loop_does(n, seed, max_distance):
    bulk, scalar = twins(seed)
    got = instances._random_symmetric_matrix(bulk, n, max_distance)
    assert np.array_equal(got, refs.random_symmetric_matrix(scalar, n, max_distance))
    assert bulk.random() == scalar.random()


@settings(max_examples=60)
@given(st.integers(1, 40), seeds)
def test_general_edges_leave_the_stream_where_the_loop_does(n, seed):
    bulk, scalar = twins(seed)
    assert instances._general_edges(bulk, n) == refs.general_edges(scalar, n)
    assert bulk.random() == scalar.random()


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(0, 3), seeds)
def test_coordinate_draw_leaves_the_stream_where_the_loop_does(n, dim, seed):
    bulk, scalar = twins(seed)
    got = instances._randoms(bulk, n * dim).reshape(n, dim)
    want = refs.random_coords(scalar, n, dim)
    assert got.shape == want.shape == (n, dim)
    assert np.array_equal(got, want)
    assert bulk.random() == scalar.random()


@settings(max_examples=60)
@given(st.integers(1, 30), seeds, max_distances)
def test_closure_in_place_matches_the_copying_loop(n, seed, max_distance):
    m = refs.random_symmetric_matrix(random.Random(seed), n, max_distance)
    want = refs.shortest_path_closure(m)
    instances._shortest_path_closure(m)
    assert np.array_equal(m, want)
