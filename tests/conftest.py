import numpy as np
import pytest
from hypothesis import settings

from conncluster import load_instance, make_instance

# Solver runs vary too much in time for a per-example deadline; print the
# reproduction blob of any failing example.
settings.register_profile("conncluster", deadline=None, print_blob=True)
settings.load_profile("conncluster")


@pytest.fixture
def line6():
    """Six points a..f on a line; the marked pairs are at distance 1 and
    everything else at 2.  The optimal disjoint 2-clustering has radius 2
    while overlapping clusters achieve 1."""
    close_pairs = [(0, 3), (1, 3), (2, 3), (2, 4), (2, 5)]
    m = np.full((6, 6), 2.0)
    np.fill_diagonal(m, 0.0)
    for u, v in close_pairs:
        m[u, v] = m[v, u] = 1.0
    return make_instance(
        m, [(i, i + 1) for i in range(5)], 2, labels=list("abcdef")
    )


def line6_with_k(k):
    close_pairs = [(0, 3), (1, 3), (2, 3), (2, 4), (2, 5)]
    m = np.full((6, 6), 2.0)
    np.fill_diagonal(m, 0.0)
    for u, v in close_pairs:
        m[u, v] = m[v, u] = 1.0
    return make_instance(
        m, [(i, i + 1) for i in range(5)], k, labels=list("abcdef")
    )


@pytest.fixture
def trap5():
    """Five points where a greedily grown first cluster swallows the cut
    vertex of the other optimal cluster (x=0, u=1, z=2, c=3, e=4)."""
    doc = {
        "n": 5,
        "k": 2,
        "metric": {
            "type": "graph",
            "edges": [[0, 1, 1.0], [0, 2, 2.0], [2, 4, 1.0], [2, 3, 1.0]],
        },
        "edges": [[0, 1], [0, 2], [2, 4], [2, 3]],
        "labels": ["x", "u", "z", "c", "e"],
    }
    return load_instance(doc)
