"""Pins for the blocked Lp realization.

``LpMetric.realize`` fills its matrix a block of rows at a time.  The
n x n kernel it replaced is kept in ``_lp_refs`` and gives the same
bytes, or raises the same error.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _lp_refs
from conncluster.model import InstanceFormatError, LpMetric, make_instance

SPECIALS = [math.inf, -math.inf, math.nan, -0.0, 0.0]


def _outcome(realize, coords, p, n):
    try:
        return realize(coords, p, n).tobytes()
    except InstanceFormatError as exc:
        return str(exc)


def _blocked(coords, p, n):
    return LpMetric(coords, p).realize(n)


@st.composite
def lp_cases(draw):
    """n crosses the block edges at 32, 64 and 96 rows; magnitudes run
    from 1e-300 to 1e300, with repeated points, points a hair apart, and
    infinite, NaN and signed-zero coordinates."""
    n = draw(st.integers(1, 100))
    d = draw(st.integers(0, 9))
    p = draw(st.sampled_from([1, 2, 3, math.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # one scale for every coordinate
        c = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-300, 300))
    else:  # each coordinate its own magnitude
        c = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-300, 300, (n, d))
    if n > 1 and draw(st.booleans()):
        src, dst = rng.integers(0, n, (2, n // 2 + 1))
        c[dst] = c[src] + draw(st.sampled_from([0.0, -0.0, 1e-200, 1e-120, 1e-10]))
    for _ in range(draw(st.integers(0, 4)) if c.size else 0):
        c[rng.integers(n), rng.integers(d)] = draw(st.sampled_from(SPECIALS))
    return c, p


@settings(max_examples=400)
@given(lp_cases())
def test_blocked_realize_matches_the_n_by_n_kernel(case):
    c, p = case
    n = len(c)
    assert _outcome(_blocked, c, p, n) == _outcome(_lp_refs.realize, c, p, n)


#: Coordinates the loader's trust in a symmetric realization must hold
#: for: signed zeros, huge values whose differences overflow, and
#: infinities, whose differences are NaN
EXTREMES = st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e300, math.inf, -math.inf])


@st.composite
def lp_coords(draw):
    """n rows of d = 0..12 coordinates, across the block edge at 32 rows
    and the running sum's change to a pairwise one at 8 coordinates."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-5, 5))
    for _ in range(draw(st.integers(0, 6)) if c.size else 0):
        c[rng.integers(n), rng.integers(d)] = draw(EXTREMES)
    return c, draw(st.sampled_from([1, 2, 3, math.inf]))


@settings(max_examples=300)
@given(lp_coords())
def test_realize_is_its_own_transpose_bit_for_bit(case):
    """The loader skips the symmetry test on the matrices it realizes."""
    c, p = case
    m = LpMetric(c, p).realize(len(c))
    assert np.array_equal(m.view(np.uint64), m.T.view(np.uint64))


def test_make_instance_with_coords_still_tests_symmetry():
    """A caller's matrix is tested, even beside coordinates."""
    c = np.array([[0.0], [1.0], [3.0]])
    m = LpMetric(c, 1).realize(3)
    m[0, 1] += 0.5
    with pytest.raises(InstanceFormatError, match="not symmetric"):
        make_instance(m, [(0, 1), (1, 2)], 1, coords=c, p=1)


def test_bad_coordinates_and_exponents_keep_their_messages():
    c = np.zeros((3, 2))
    for coords, p, n in [(c, 2, 4), (c[0], 2, 3), (c, 0, 3), (c, 2.5, 3), (c, -math.inf, 3)]:
        assert _outcome(_blocked, coords, p, n) == _outcome(_lp_refs.realize, coords, p, n)


def test_realize_peak_memory_is_one_matrix():
    """The traced peak stays within 10 % of the n x n float64 result."""
    n = 1000
    coords = np.random.default_rng(0).random((n, 2))
    tracemalloc.start()
    try:
        LpMetric(coords, 2).realize(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n
