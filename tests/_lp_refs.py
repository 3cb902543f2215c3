"""Reference copy of the Lp realization ``LpMetric.realize`` used to make.

Until Lp metrics were realized in blocks of rows, ``LpMetric.realize``
filled one n x n running sum (or maximum) over one n x n difference
buffer, a coordinate at a time, or summed the whole n x n x d difference
tensor from 8 coordinates on.  The method stays here, verbatim, as the
reference the blocked kernel is checked against: every distance must
come out bit for bit the same.
"""

import math

import numpy as np

from conncluster.model import InstanceFormatError


def realize(coords, p, n: int) -> np.ndarray:
    """``LpMetric(coords, p).realize(n)`` before the blocked kernel."""
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[0] != n:
        raise InstanceFormatError(f"coordinate list must have {n} rows")
    if not (p == math.inf or (p >= 1 and float(p).is_integer())):
        raise InstanceFormatError("norm exponent p must be a positive integer or inf")
    # overflowing or infinite coordinates give non-finite distances,
    # which make_instance rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if c.shape[1] >= 8 and p != math.inf:
            # NumPy sums 8 or more terms pairwise; a running sum would
            # differ from that in the last bits, so keep its order
            diff = np.abs(c[:, None, :] - c[None, :, :])
            diff **= p
            total = diff.sum(axis=2)
        else:
            # one coordinate at a time into one n x n buffer; below 8
            # terms NumPy's sum is this running sum, bit for bit
            total = np.zeros((n, n))
            diff = np.empty((n, n))
            for col in c.T:
                np.subtract(col[:, None], col[None, :], out=diff)
                np.abs(diff, out=diff)
                if p == math.inf:
                    np.maximum(total, diff, out=total)
                else:
                    diff **= p
                    total += diff
        if p in (1, math.inf):
            return total
        if p == 2:
            return np.sqrt(total, out=total)
        total **= 1.0 / p
        return total
