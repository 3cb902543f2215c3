"""Graph metrics realized by the package's own all-sources Dijkstra.

``GraphMetric.realize`` is pinned, bit for bit, to SciPy's ``dijkstra``
on the same deduplicated edges: float and integer weights, parallel
edges in either orientation, ties, zero weights and weights near the top
of the float range, whose sums overflow to inf.  SciPy is a test
dependency only; a solve on a graph document never imports it.
"""

import ast
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster.model import GraphMetric, InstanceFormatError

csgraph = pytest.importorskip("scipy.sparse.csgraph")
sparse = pytest.importorskip("scipy.sparse")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def scipy_realize(edges, n):
    """The realization as it was made with SciPy: the shortest of parallel
    edges in the first one's place, one component, then ``dijkstra``."""
    shortest = {}
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InstanceFormatError(f"bad metric-graph edge ({u}, {v})")
        if not 0 <= w < math.inf:
            raise InstanceFormatError("metric-graph edge weights must be finite and nonnegative")
        key = frozenset((u, v))
        u, v, w0 = shortest.get(key, (u, v, w))
        shortest[key] = (u, v, min(w, w0))
    if len(shortest) < n - 1:
        raise InstanceFormatError("metric graph is disconnected")
    rows, cols, vals = [], [], []
    for u, v, w in shortest.values():
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    g = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    if csgraph.connected_components(g, directed=False, return_labels=False) > 1:
        raise InstanceFormatError("metric graph is disconnected")
    return csgraph.dijkstra(g, directed=False)


def outcome(realize, edges, n):
    try:
        d = realize(edges, n)
    except InstanceFormatError as exc:
        return str(exc)
    return d.dtype, d.shape, d.tobytes()


HUGE = [1e308, 1.5e308, math.nextafter(math.inf, 0.0)]
weights = st.one_of(
    st.floats(0.0, 10.0),
    st.integers(0, 4),  # many ties, and zero
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 5e-324] + HUGE),
)


@st.composite
def graphs(draw):
    """A spanning tree (most of the time) plus extra edges, parallel ones
    and reversed repeats included, in a shuffled order."""
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = [] if n == 1 else draw(st.lists(pair, max_size=3 * n))
    if draw(st.integers(0, 4)):
        pairs += [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    edges = tuple((u, v, draw(weights)) for u, v in draw(st.permutations(pairs)))
    return n, edges


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_realize_equals_scipy_bit_for_bit(graph):
    n, edges = graph
    assert outcome(lambda e, n: GraphMetric(e).realize(n), edges, n) == outcome(
        scipy_realize, edges, n
    )


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, ((0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3))),  # 0.1 + 0.2 > 0.3 in floats
        (3, ((0, 1, 0), (1, 2, 0.0), (2, 0, 4))),  # zero weights give distance 0
        (4, ((0, 1, 1e308), (1, 2, 1e308), (2, 3, 1.0))),  # d(0, 2) overflows to inf
        (4, ((0, 1, 2), (1, 0, 1), (0, 1, 3), (1, 2, 1), (2, 3, 1), (3, 0, 3))),  # parallel, ties
        (1, ()),
    ],
)
def test_fixed_graphs_equal_scipy(n, edges):
    got = GraphMetric(edges).realize(n)
    assert got.tobytes() == scipy_realize(edges, n).tobytes()


def test_a_graph_solve_never_imports_scipy(tmp_path):
    doc = {
        "n": 4,
        "k": 2,
        "metric": {"type": "graph", "edges": [[0, 1, 1], [1, 2, 2.5], [2, 3, 1], [3, 0, 4]]},
        "edges": [[0, 1], [1, 2], [2, 3]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from conncluster.cli import main\n"
        "from conncluster.instances import gen_sat_gadget\n"
        f"code = main(['solve', '--in', {str(path)!r}])\n"
        "gen_sat_gadget([[1, -2], [2]])\n"
        "print(code, 'scipy' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.stderr.splitlines()[-1] == "0 False", done.stderr
    assert json.loads(done.stdout)["report"]["objective"] >= 0.0


def test_no_module_imports_scipy():
    for name in sorted(os.listdir(os.path.join(SRC, "conncluster"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "conncluster", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.split(".")[0] == "scipy"], (name, node.lineno)
