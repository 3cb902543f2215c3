"""``Instance.tree`` against the shape tests it replaced.

On graphs with n - 1 edges, the only ones where the answer is not
decided by the edge count: trees, paths, stars, a single point, and a
path beside a cycle, which has two degree-1 ends and no point of degree
above 2 but is no path.  ``Instance.tree`` must agree with ``is_tree``
and ``path_order``, and ``exact._tree_context`` built on it with the
context the old DFS built, field for field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster.exact import _path_matrix, _tree_context
from conncluster.model import AlgorithmPreconditionError, make_instance

from _tree_refs import is_tree, path_order, tree_context, tree_parents


@st.composite
def n_minus_one_graphs(draw):
    shape = draw(st.sampled_from(("tree", "path", "star", "path+cycle")))
    n = draw(st.integers(4 if shape == "path+cycle" else 1, 12))
    perm = draw(st.permutations(range(n)))
    if shape == "tree":
        edges = [(perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)]
    elif shape == "path":
        edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    elif shape == "star":
        edges = [(perm[0], perm[i]) for i in range(1, n)]
    else:  # a path on the first p points, a cycle on the rest
        p = draw(st.integers(1, n - 3))
        edges = [(perm[i], perm[i + 1]) for i in range(p - 1)]
        edges += [(perm[i], perm[i + 1]) for i in range(p, n - 1)] + [(perm[n - 1], perm[p])]
    m = np.array(draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n)), float)
    m = m.reshape(n, n)
    m = m + m.T
    np.fill_diagonal(m, 0.0)
    return make_instance(m, edges, 1)


def outcome(fn, inst):
    try:
        return fn(inst)
    except AlgorithmPreconditionError as exc:
        return str(exc)


@settings(max_examples=300)
@given(n_minus_one_graphs())
def test_tree_matches_the_old_shape_tests(inst):
    tree = inst.tree
    assert (tree is not None) == is_tree(inst)
    want_path = outcome(path_order, inst)
    if tree is None:
        assert isinstance(want_path, str)
        return
    ctx = tree_context(inst)
    assert list(tree.order) == ctx.nodes
    assert list(tree.parent) == tree_parents(ctx)
    assert (list(tree.path) if tree.path is not None else None) == (
        want_path if isinstance(want_path, list) else None
    )


@settings(max_examples=300)
@given(n_minus_one_graphs())
def test_tree_context_matches_the_old_dfs(inst):
    got, want = outcome(_tree_context, inst), outcome(tree_context, inst)
    if isinstance(want, str):
        assert got == want == "connectivity graph is not a tree"
        return
    assert (got.nodes, got.children, got.out) == (want.nodes, want.children, want.out)
    assert np.array_equal(got.dprime, want.dprime)


@settings(max_examples=300)
@given(n_minus_one_graphs())
def test_path_matrix_follows_the_old_path_order(inst):
    try:
        order = path_order(inst)
    except AlgorithmPreconditionError:
        with pytest.raises(AlgorithmPreconditionError, match="^connectivity graph is not a path$"):
            _path_matrix(inst)
        return
    got, D = _path_matrix(inst)
    assert list(got) == order
    assert np.array_equal(D, inst.dist[np.ix_(order, order)])


def test_path_beside_a_cycle_is_neither():
    inst = make_instance(np.zeros((5, 5)), [(0, 1), (2, 3), (3, 4), (2, 4)], 2)
    assert inst.tree is None


def test_a_single_point_is_a_path():
    inst = make_instance([[0.0]], [], 1)
    assert (inst.tree.order, inst.tree.parent, inst.tree.path) == ((0,), (-1,), (0,))


def test_graphs_without_n_minus_one_edges_are_no_tree():
    for edges in ([], [(0, 1), (1, 2), (0, 2)]):
        assert make_instance(np.zeros((3, 3)), edges, 1).tree is None


def test_tree_is_computed_once_per_instance():
    inst = make_instance(np.zeros((3, 3)), [(0, 1), (1, 2)], 1)
    assert inst.tree is inst.tree
