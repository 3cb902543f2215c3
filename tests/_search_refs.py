"""Reference copy of the radius search the package used to run.

Until infeasible instances were refused before the search,
``model.binary_search_min_feasible`` probed the largest candidate first
and returned None when that probe failed.  The test references that
read that None (``_oracle_refs``, ``_two_center_refs`` and
``test_exact_probes.loop_solve_tree_assignment``) keep this copy,
verbatim, so their messages and outcomes stay as they were.
"""

from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def binary_search_min_feasible(
    candidates: Sequence[float] | np.ndarray,
    probe: Callable[[float], Optional[T]],
) -> Optional[tuple[float, T]]:
    """Find the leftmost-true boundary of ``probe`` over sorted candidates.

    The probe's success set must contain a suffix of the candidates
    (exact probes are monotone; the greedy probes are guaranteed to
    succeed from some candidate on).  Each probe receives, and the
    result carries, the Python float ``float(candidates[i])``.  Returns
    None iff the probe fails at the maximum candidate.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    lo, hi = 0, len(candidates) - 1
    best = probe(float(candidates[hi]))
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(float(candidates[mid]))
        if res is not None:
            best = res
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo]), best
