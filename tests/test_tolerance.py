"""The tolerant distance test as one float per radius.

``dist_leq(a, r)`` is monotone in a >= 0, so ``leq_bound(r)``, the
largest float that passes it, stands for the whole test:
``dist_leq_arr(a, r)`` is ``a <= leq_bound(r)``.  ``buffer_leq`` is the
formula ``dist_leq_arr`` used to evaluate, its bound built per element
in one buffer; it stays here as the reference.  Radii and distances are
drawn from the edges of the tolerance: ties, ``r * (1 +- k * REL_TOL)``,
one ulp either side of the bound, values around 1.0 (where
``max(1, .)`` switches), signed zeros, subnormals, the radius -1.0 that
``test_exact_probes.probe_radii`` starts from, and radii within REL_TOL
of the largest float, where the bound overflows to inf.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster.model import REL_TOL, dist_leq, dist_leq_arr, leq_bound

MAX = sys.float_info.max
TINY = sys.float_info.min  # smallest normal float; below it are the subnormals


def buffer_leq(a, b):
    """The removed ``dist_leq_arr``: a <= b + REL_TOL * max(1, |a|, |b|),
    elementwise, the bound built in one buffer."""
    bound = np.abs(a, dtype=float)
    np.maximum(bound, max(1.0, abs(b)), out=bound)
    bound *= REL_TOL
    with np.errstate(over="ignore"):  # radii near the largest float
        bound += b
    return a <= bound


def up(x):
    return math.nextafter(x, math.inf)


def down(x):
    return math.nextafter(x, -math.inf)


BASE_RADII = st.one_of(
    st.floats(0.0, 1e12),
    st.integers(0, 10**6).map(float),  # the ties of small integer distances
    st.floats(0.5, 2.0),  # around 1.0
    st.floats(0.0, TINY),  # subnormals
    st.floats(MAX * (1 - REL_TOL), MAX),
    st.sampled_from((0.0, -0.0, -1.0, 1.0, 5e-324, TINY, 2.0**53, MAX / 2, MAX)),
)


@st.composite
def radii(draw):
    r = draw(BASE_RADII)
    shape = draw(st.sampled_from(("tie", "scaled", "ulp")))
    if shape == "scaled":
        r *= 1 + draw(st.integers(-3, 3)) * REL_TOL
    elif shape == "ulp":
        r = draw(st.sampled_from((up, down)))(r)
    return r if math.isfinite(r) else MAX


@st.composite
def cases(draw):
    """A radius and up to 8 finite distances >= 0 around its edges."""
    r = draw(radii())
    b = leq_bound(r)
    edges = [abs(r), b, up(b), down(b), 1.0, up(1.0), down(1.0), 0.0, -0.0, 5e-324, TINY]
    edges += [abs(r) * (1 + k * REL_TOL) for k in (-2, -1, 1, 2)]
    edges += [abs(r) + k * REL_TOL for k in (-1, 1)]
    pool = sorted(x for x in edges if math.isfinite(x) and x >= 0)
    values = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), st.floats(0.0, MAX), st.floats(0.0, 2.0)),
            min_size=1,
            max_size=8,
        )
    )
    return np.array(values), r


@settings(max_examples=500)
@given(cases())
def test_dist_leq_arr_is_the_buffer_formula_and_dist_leq(case):
    a, r = case
    got = dist_leq_arr(a, r)
    assert got.tolist() == buffer_leq(a, r).tolist()
    assert got.tolist() == [dist_leq(float(x), r) for x in a]
    grid = np.stack([a, a[::-1]])  # matrices, as the probes pass them
    assert np.array_equal(dist_leq_arr(grid, r), buffer_leq(grid, r))


@settings(max_examples=500)
@given(radii())
def test_leq_bound_is_the_last_float_that_passes(r):
    b = leq_bound(r)
    assert dist_leq(b, r)
    assert b == math.inf or not dist_leq(up(b), r)


RADII = (
    0.0, -0.0, -1.0, 5e-324, TINY, 1e-9, 0.5, down(1.0), 1.0, up(1.0),
    1.0 - REL_TOL, 1.0 + REL_TOL, 3.0, 7.0, down(2.0**20), 2.0**20, 1e6, 12345.678,
    2.0**53, 1e300, MAX / 2, MAX * (1 - 2 * REL_TOL), MAX * (1 - REL_TOL), MAX,
    # r + REL_TOL * max(1, r) is one ulp below the bound
    1.3048041531248147, 151745.0, 967264.0, 1.373484687989792e260,
)


def test_bound_splits_its_neighbourhood():
    # monotone near the bound: every float up to 64 ulps below passes,
    # every float up to 64 ulps above fails
    for r in RADII:
        b = leq_bound(r)
        x = b
        for _ in range(64):
            x = down(x)
            assert dist_leq(x, r), (r, x)
        x = b
        for _ in range(64):
            if x == math.inf:
                break
            x = up(x)
            assert not dist_leq(x, r), (r, x)


def test_bound_at_the_top_of_the_float_range():
    # the start overflows to inf and stays there; nothing steps from inf
    assert leq_bound(MAX) == math.inf
    assert leq_bound(math.inf) == math.inf
    assert math.isnan(leq_bound(math.nan))
    a = np.array([0.0, 1.0, MAX / 2, MAX])
    assert dist_leq_arr(a, MAX).all()
    assert dist_leq_arr(a, MAX / 2).tolist() == [True, True, True, False]


def test_negative_radius_admits_no_distance():
    # test_exact_probes.probe_radii starts from -1.0, where nothing is feasible
    a = np.array([0.0, -0.0, 5e-324, 1.0])
    assert not dist_leq_arr(a, -1.0).any()
    assert leq_bound(-1.0) < 0.0
