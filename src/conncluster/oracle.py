"""Brute-force exact solvers for small instances.

These are the ground truth used by the test suites: a partition
enumerator for the disjoint problem, center-subset enumeration for the
non-disjoint center problem, a maximal-set cover search for the
non-disjoint diameter problem, and a pruned assignment search for fixed
center sets.  Every routine refuses inputs beyond its limits instead of
running unboundedly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .greedy import compute_cluster
from .model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    Clustering,
    InfeasibleError,
    Instance,
    binary_search_min_feasible,
    candidate_radii,
    clustering,
    dedup_radii,
    dist_leq,
)


class OracleLimitError(RuntimeError):
    """Input exceeds the configured brute-force budget."""


@dataclass(frozen=True)
class OracleLimits:
    max_n_partition: int = 10
    max_k_subsets: int = 4
    max_assignment_nodes: int = 2_000_000
    time_budget_s: float = 120.0


DEFAULT_LIMITS = OracleLimits()


def _canonical(clusters: Sequence[frozenset[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(c)) for c in clusters))


# ---------------------------------------------------------------------------
# disjoint optimum via partition enumeration


def _block_completable(inst: Instance, block: set[int], future_from: int) -> bool:
    """Can ``block`` still become connected using only points >= future_from?"""
    allowed = block | set(range(future_from, inst.n))
    start = next(iter(block))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in inst.adj[v]:
            if u in allowed and u not in seen:
                seen.add(u)
                stack.append(u)
    return block <= seen


def _block_cost_lb(inst: Instance, block: set[int], future_from: int, objective: str) -> float:
    idx = np.fromiter(block, dtype=int)
    if objective == DIAMETER:
        if len(idx) < 2:
            return 0.0
        return float(inst.dist[np.ix_(idx, idx)].max())
    cand = list(block) + list(range(future_from, inst.n))
    return min(float(inst.dist[idx, c].max()) for c in cand)


def _block_center_cost(inst: Instance, block: frozenset[int]) -> tuple[float, int]:
    idx = np.fromiter(block, dtype=int)
    best = min((float(inst.dist[idx, c].max()), c) for c in sorted(block))
    return best


def exact_disjoint(
    inst: Instance, objective: str, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[float, Clustering]:
    """Exact disjoint optimum by enumerating connected set partitions.

    Restricted-growth enumeration with two prunes: a partial block is
    abandoned once it cannot be reconnected through unplaced points, or
    once its cost lower bound already exceeds the incumbent.
    """
    if inst.n > limits.max_n_partition:
        raise OracleLimitError(
            f"n={inst.n} exceeds partition-enumeration limit {limits.max_n_partition}"
        )
    deadline = time.monotonic() + limits.time_budget_s
    n, k = inst.n, inst.k
    best_val: float = float("inf")
    best_enc: Optional[tuple] = None
    best_clusters: Optional[list[frozenset[int]]] = None
    blocks: list[set[int]] = []

    def finish() -> None:
        nonlocal best_val, best_enc, best_clusters
        frozen = [frozenset(b) for b in blocks]
        for b in frozen:
            if not _block_completable(inst, set(b), n):
                return
        if objective == DIAMETER:
            val = max(_block_cost_lb(inst, set(b), n, DIAMETER) for b in frozen)
        else:
            val = max(_block_center_cost(inst, b)[0] for b in frozen)
        enc = _canonical(frozen)
        if val < best_val or (val == best_val and (best_enc is None or enc < best_enc)):
            best_val = val
            best_enc = enc
            best_clusters = frozen

    def place(i: int) -> None:
        if time.monotonic() > deadline:
            raise OracleLimitError("partition enumeration exceeded time budget")
        if i == n:
            finish()
            return
        for b in range(min(len(blocks) + 1, k)):
            fresh = b == len(blocks)
            if fresh:
                blocks.append({i})
            else:
                blocks[b].add(i)
            ok = all(_block_completable(inst, blk, i + 1) for blk in blocks)
            if ok and best_clusters is not None:
                lb = max(_block_cost_lb(inst, blk, i + 1, objective) for blk in blocks)
                if lb > best_val:
                    ok = False
            if ok:
                place(i + 1)
            if fresh:
                blocks.pop()
            else:
                blocks[b].remove(i)

    place(0)
    if best_clusters is None:
        raise InfeasibleError("connectivity graph has more components than k")
    if objective == CENTER:
        centers = [(_block_center_cost(inst, b)[1]) for b in best_clusters]
    else:
        centers = None
    order = sorted(range(len(best_clusters)), key=lambda i: min(best_clusters[i]))
    result = clustering(
        [best_clusters[i] for i in order],
        [centers[i] for i in order] if centers else None,
        DISJOINT,
    )
    return best_val, result


# ---------------------------------------------------------------------------
# non-disjoint optima


def exact_nondisjoint_center_with_witness(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[float, Clustering]:
    """Exact non-disjoint k-center optimum plus an optimal clustering.

    Maximal grown clusters dominate any feasible non-disjoint cluster,
    so feasibility at radius r reduces to covering V with the maximal
    clusters of at most k seed centers.
    """
    if inst.k > limits.max_k_subsets:
        raise OracleLimitError(f"k={inst.k} exceeds subset limit {limits.max_k_subsets}")
    if inst.n > 24:
        raise OracleLimitError("n too large for center-subset enumeration")
    full = (1 << inst.n) - 1

    def probe(r: float) -> Optional[tuple[int, ...]]:
        clusters = {c: compute_cluster(inst, r, c) for c in range(inst.n)}
        masks = []
        for c in range(inst.n):
            m = 0
            for x in clusters[c]:
                m |= 1 << x
            masks.append(m)
        for size in range(1, inst.k + 1):
            for combo in itertools.combinations(range(inst.n), size):
                u = 0
                for c in combo:
                    u |= masks[c]
                if u == full:
                    return combo
        return None

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    if found is None:
        raise InfeasibleError("more connectivity components than the budget")
    r, combo = found
    witness = clustering(
        [compute_cluster(inst, r, c) for c in combo], list(combo), NON_DISJOINT
    )
    return r, witness


def exact_nondisjoint_center(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> float:
    """Exact non-disjoint k-center optimum (value only)."""
    return exact_nondisjoint_center_with_witness(inst, limits)[0]


def _connected_mask(inst: Instance, mask: int) -> bool:
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    stack = [start]
    while stack:
        v = stack.pop()
        for u in inst.adj[v]:
            bit = 1 << u
            if mask & bit and not seen & bit:
                seen |= bit
                stack.append(u)
    return seen == mask


def exact_nondisjoint_diameter_with_witness(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[float, Clustering]:
    """Exact non-disjoint k-diameter optimum plus an optimal clustering,
    via exact set cover over the maximal connected low-diameter subsets."""
    if inst.n > limits.max_n_partition:
        raise OracleLimitError(
            f"n={inst.n} exceeds enumeration limit {limits.max_n_partition}"
        )
    n = inst.n
    full = (1 << n) - 1

    def probe(r: float) -> Optional[list[int]]:
        near = []
        for i in range(n):
            bits = 0
            for j in range(n):
                if dist_leq(inst.d(i, j), r):
                    bits |= 1 << j
            near.append(bits)
        feasible_sets = []
        for mask in range(1, full + 1):
            m = mask
            ok = True
            while m:
                i = (m & -m).bit_length() - 1
                if mask & ~near[i]:
                    ok = False
                    break
                m &= m - 1
            if ok and _connected_mask(inst, mask):
                feasible_sets.append(mask)
        maximal = [
            m
            for m in feasible_sets
            if not any(m != o and m & o == m for o in feasible_sets)
        ]
        memo: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}

        def cover(uncovered: int) -> tuple[int, tuple[int, ...]]:
            if uncovered in memo:
                return memo[uncovered]
            low = (uncovered & -uncovered).bit_length() - 1
            best = (n + 1, ())
            for m in maximal:
                if m >> low & 1:
                    sub_count, sub_sets = cover(uncovered & ~m)
                    if 1 + sub_count < best[0]:
                        best = (1 + sub_count, (m,) + sub_sets)
            memo[uncovered] = best
            return best

        count, chosen = cover(full)
        return list(chosen) if count <= inst.k else None

    found = binary_search_min_feasible(candidate_radii(inst), probe)
    if found is None:
        raise InfeasibleError("more connectivity components than the budget")
    r, chosen = found
    witness = clustering(
        [{i for i in range(n) if m >> i & 1} for m in chosen], None, NON_DISJOINT
    )
    return r, witness


def exact_nondisjoint_diameter(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> float:
    """Exact non-disjoint k-diameter optimum (value only)."""
    return exact_nondisjoint_diameter_with_witness(inst, limits)[0]


# ---------------------------------------------------------------------------
# assignment with fixed centers


def _assignment_dfs(
    inst: Instance,
    C: list[int],
    r: float,
    objective: str,
    budget: list[int],
    deadline: float,
) -> Optional[dict[int, int]]:
    """Search a connected disjoint assignment of all points to the fixed
    centers with cost <= r.  Returns point -> center, or None."""
    n = inst.n
    cset = set(C)
    side: dict[int, int] = {c: c for c in C}
    allowed: dict[int, list[int]] = {}
    for v in range(n):
        if v in cset:
            continue
        opts = [c for c in C if dist_leq(inst.d(v, c), r)]
        if not opts:
            return None
        allowed[v] = opts
    order = sorted(allowed, key=lambda v: (len(allowed[v]), v))

    def locally_dead(v: int) -> bool:
        # a placed non-center must keep a same-side or unassigned neighbor
        s = side[v]
        if v == s:
            return False
        return all(u in side and side[u] != s for u in inst.adj[v])

    def feasible_full() -> bool:
        for c in C:
            block = frozenset(v for v, s in side.items() if s == c)
            pts = list(block)
            start = c
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for u in inst.adj[x]:
                    if u in block and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) != len(pts):
                return False
        return True

    def rec(i: int) -> bool:
        budget[0] -= 1
        if budget[0] <= 0:
            raise OracleLimitError("assignment search exceeded node budget")
        if budget[0] % 4096 == 0 and time.monotonic() > deadline:
            raise OracleLimitError("assignment search exceeded time budget")
        if i == len(order):
            return feasible_full()
        v = order[i]
        for c in allowed[v]:
            if objective == DIAMETER:
                if not all(
                    dist_leq(inst.d(v, w), r) for w, s in side.items() if s == c
                ):
                    continue
            side[v] = c
            dead = locally_dead(v) or any(
                u in side and locally_dead(u) for u in inst.adj[v]
            )
            if not dead and rec(i + 1):
                return True
            del side[v]
        return False

    if rec(0):
        return dict(side)
    return None


def exact_assignment(
    inst: Instance,
    C: Sequence[int],
    objective: str,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> Optional[tuple[float, Clustering]]:
    """Exact optimum over connected disjoint assignments to fixed centers.

    Returns None when no feasible assignment exists at any radius (some
    component of the connectivity graph has no center).
    """
    C = sorted(int(c) for c in C)
    if len(set(C)) != len(C):
        raise ValueError("centers must be distinct")
    if not C or not all(0 <= c < inst.n for c in C):
        raise ValueError("center ids out of range")
    for comp in inst.connected_components():
        if not any(c in comp for c in C):
            return None
    if objective == CENTER:
        cands = dedup_radii(inst.dist[:, C], leq=True)
    else:
        cands = candidate_radii(inst)
    deadline = time.monotonic() + limits.time_budget_s

    def probe(r: float) -> Optional[dict[int, int]]:
        budget = [limits.max_assignment_nodes]
        return _assignment_dfs(inst, C, r, objective, budget, deadline)

    found = binary_search_min_feasible(cands, probe)
    if found is None:
        return None
    r, side = found
    blocks = {c: {c} for c in C}
    for v, c in side.items():
        blocks[c].add(v)
    result = clustering([blocks[c] for c in C], C, DISJOINT)
    return r, result


def exact_disjoint_center_via_centersets(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> float:
    """Independent disjoint k-center oracle: minimize the assignment
    optimum over all center sets of size at most k.  Cross-checks the
    partition enumerator."""
    if inst.k > limits.max_k_subsets:
        raise OracleLimitError(f"k={inst.k} exceeds subset limit {limits.max_k_subsets}")
    best = float("inf")
    for size in range(1, inst.k + 1):
        for C in itertools.combinations(range(inst.n), size):
            res = exact_assignment(inst, C, CENTER, limits)
            if res is not None and res[0] < best:
                best = res[0]
    if best == float("inf"):
        raise OracleLimitError("no center set yields a feasible assignment")
    return best


def disjoint_feasible_at(
    inst: Instance, r: float, limits: OracleLimits = DEFAULT_LIMITS
) -> bool:
    """Does some center set of size <= k admit a connected disjoint
    assignment of radius <= r?  (Decision form of the center-set oracle,
    usable past the partition-enumeration size limit.)"""
    if inst.k > limits.max_k_subsets:
        raise OracleLimitError(f"k={inst.k} exceeds subset limit {limits.max_k_subsets}")
    deadline = time.monotonic() + limits.time_budget_s
    for size in range(1, inst.k + 1):
        for C in itertools.combinations(range(inst.n), size):
            ok = True
            for comp in inst.connected_components():
                if not any(c in comp for c in C):
                    ok = False
                    break
            if not ok:
                continue
            budget = [limits.max_assignment_nodes]
            if _assignment_dfs(inst, list(C), r, CENTER, budget, deadline) is not None:
                return True
    return False
