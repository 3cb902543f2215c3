"""Reference copies of the scalar random draws ``gen_random`` used to make.

Until the random families were drawn in bulk, ``gen_random`` filled its
matrices, its extra ``general`` edges and its ``lp`` coordinates one
``randint`` or ``random`` call at a time, and closed matrices under
shortest paths by copying.  These loops stay here as the references the
bulk draws are checked against: the same seed must give the same
instance, and leave the generator in the same state.
"""

import random

import numpy as np

from conncluster.instances import EDGE_PROB, _prim_mst
from conncluster.model import InstanceFormatError, LpMetric, make_instance


def random_symmetric_matrix(rng: random.Random, n: int, max_distance: int) -> np.ndarray:
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = float(rng.randint(1, max_distance))
    return m


def shortest_path_closure(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    n = out.shape[0]
    for t in range(n):
        out = np.minimum(out, out[:, t][:, None] + out[t, :][None, :])
    return out


def general_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < EDGE_PROB:
                edges.add((i, j))
    return sorted(edges)


def random_coords(rng: random.Random, n: int, dim: int) -> np.ndarray:
    return np.array([[rng.random() for _ in range(dim)] for _ in range(n)])


def gen_random(family, n, k, seed, *, dim=2, p=2, max_distance=9, metric_repair=None):
    """``gen_random`` as it was, built from the loops above."""
    if not 1 <= k <= n:
        raise InstanceFormatError("need 1 <= k <= n")
    rng = random.Random(seed)
    if family == "line":
        m = random_symmetric_matrix(rng, n, max_distance)
        if metric_repair:
            m = shortest_path_closure(m)
        return make_instance(m, [(i, i + 1) for i in range(n - 1)], k)
    if family == "tree":
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        m = random_symmetric_matrix(rng, n, max_distance)
        if metric_repair:
            m = shortest_path_closure(m)
        return make_instance(m, edges, k)
    if family == "general":
        edges = general_edges(rng, n)
        m = random_symmetric_matrix(rng, n, max_distance)
        if metric_repair is None or metric_repair:
            m = shortest_path_closure(m)
        return make_instance(m, edges, k)
    if family == "lp":
        coords = random_coords(rng, n, dim)
        dist = LpMetric(coords, p).realize(n)
        return make_instance(dist, _prim_mst(dist), k, coords=coords, p=p)
    raise InstanceFormatError(f"unknown random family {family!r}")
