"""Reference copies of the shape tests the package used to run.

Before ``Instance.tree`` decided once per instance whether the
connectivity graph is a path, a tree or neither, ``path_order`` and
``is_tree`` decided it at each call, and ``tree_context`` rooted the tree
with a DFS of its own.  They stay here as the references that
``Instance.tree`` and ``exact._tree_context`` are checked against.
``path_max_table`` and ``tree_dp_count`` were package exports that only
tests called.
"""

import numpy as np

from conncluster.exact import _tree_context, _tree_tables, _TreeContext
from conncluster.model import AlgorithmPreconditionError, bfs_parents


def path_order(inst):
    """Vertex order along the path, or raise if the graph is not a path.

    Starts from the smaller-id endpoint for determinism.
    """
    if inst.n == 1:
        if inst.edges:
            raise AlgorithmPreconditionError("single-point path must have no edges")
        return [0]
    degrees = [len(inst.adj[v]) for v in range(inst.n)]
    ends = [v for v in range(inst.n) if degrees[v] == 1]
    if len(inst.edges) != inst.n - 1 or len(ends) != 2 or any(d > 2 for d in degrees):
        raise AlgorithmPreconditionError("connectivity graph is not a path")
    order = [min(ends)]
    prev = -1
    while len(order) < inst.n:
        cur = order[-1]
        nxts = [u for u in inst.adj[cur] if u != prev]
        if len(nxts) != 1:
            raise AlgorithmPreconditionError("connectivity graph is not a path")
        prev = cur
        order.append(nxts[0])
    return order


def is_tree(inst):
    """Whether the connectivity graph is a tree: connected, n-1 edges."""
    return len(inst.edges) == inst.n - 1 and len(bfs_parents(inst, range(inst.n), [0])) == inst.n


def tree_context(inst):
    """The tree rooted at point 0 in DFS pre-order positions, with its
    own DFS, as ``exact._tree_context`` built it."""
    if not is_tree(inst):
        raise AlgorithmPreconditionError("connectivity graph is not a tree")
    n = inst.n
    pos_of = {}
    nodes = []
    parent_orig = {0: -1}
    stack = [0]
    while stack:
        v = stack.pop()
        pos_of[v] = len(nodes)
        nodes.append(v)
        for u in sorted(inst.adj[v], reverse=True):
            if u not in parent_orig:
                parent_orig[u] = v
                stack.append(u)
    parent = [-1] * n
    children = [[] for _ in range(n)]
    for v in nodes[1:]:
        pv, pp = pos_of[v], pos_of[parent_orig[v]]
        parent[pv] = pp
        children[pp].append(pv)
    for ch in children:
        ch.sort()
    out = [0] * n
    for v in range(n - 1, -1, -1):
        end = v + 1
        for c in children[v]:
            end = max(end, out[c])
        out[v] = end

    dp = inst.dist[np.ix_(nodes, nodes)]
    dprime = np.zeros((n, n))
    for v in range(n - 1, -1, -1):
        for c in children[v]:
            cs, ce = c, out[c]
            dprime[cs:ce, v] = np.maximum(dprime[cs:ce, c], dp[cs:ce, v])
    for v in range(1, n):
        p = parent[v]
        s, e = v, out[v]
        dprime[:s, v] = np.maximum(dprime[:s, p], dp[:s, v])
        dprime[e:, v] = np.maximum(dprime[e:, p], dp[e:, v])
    return _TreeContext(nodes, children, out, parent, dprime)


def tree_parents(ctx):
    """Point -> parent point (-1 at the root) of a tree context."""
    parent = [-1] * len(ctx.nodes)
    for p, kids in enumerate(ctx.children):
        for c in kids:
            parent[ctx.nodes[c]] = ctx.nodes[p]
    return parent


def path_max_table(inst):
    """d'(u, v): the largest distance from u to any vertex on the tree
    path from u to v, for all ordered pairs (original ids)."""
    ctx = _tree_context(inst)
    n = inst.n
    out = np.zeros((n, n))
    idx = np.array(ctx.nodes)
    out[np.ix_(idx, idx)] = ctx.dprime
    return out


def tree_dp_count(inst, r):
    """Minimum number of disjoint connected clusters of radius <= r."""
    return int(_tree_tables(_tree_context(inst), r)[2][0])
