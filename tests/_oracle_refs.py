"""Reference copies of the small-instance oracles the package used to run.

Before ``oracle`` read one table of connected subsets and their costs,
``exact_disjoint`` enumerated set partitions in restricted-growth order
with per-block prunes, the non-disjoint diameter oracle tested every
bitmask against per-point ``near`` rows and a DFS on each probe, and the
non-disjoint center oracle tried every set of at most k centers over the
clusters grown from them.  They stay here as the references the
table-driven oracles are checked against: same value, same errors, and
for the first two the same clustering.

``exact_disjoint_center_via_centersets`` is an independent disjoint
k-center oracle that only tests call: the best fixed-center assignment
(``oracle.exact_assignment``) over every set of at most
``MAX_K_SUBSETS`` centers.
"""

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from conncluster.greedy import compute_cluster
from conncluster.model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    Clustering,
    InfeasibleError,
    Instance,
    candidate_radii,
    clustering,
    dist_leq,
)
from conncluster.oracle import OracleLimitError, exact_assignment

from _search_refs import binary_search_min_feasible


@dataclass(frozen=True)
class OracleLimits:
    """The limits the package's oracles once took as an argument; their
    defaults are the package's ``MAX_N_PARTITION`` and ``TIME_BUDGET_S``,
    and this module's ``MAX_K_SUBSETS``."""

    max_n_partition: int = 12
    max_k_subsets: int = 4
    time_budget_s: float = 120.0


DEFAULT_LIMITS = OracleLimits()

#: Largest k whose center sets ``exact_disjoint_center_via_centersets`` tries.
MAX_K_SUBSETS = 4


def _canonical(clusters: Sequence[frozenset[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(c)) for c in clusters))


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


def exact_disjoint_center_via_centersets(inst: Instance) -> float:
    """Independent disjoint k-center oracle: minimize the assignment
    optimum over all center sets of size at most k.  Cross-checks the
    partition enumerator."""
    if inst.k > MAX_K_SUBSETS:
        raise OracleLimitError(f"k={inst.k} exceeds subset limit {MAX_K_SUBSETS}")
    best = float("inf")
    for size in range(1, inst.k + 1):
        for C in itertools.combinations(range(inst.n), size):
            try:
                value, _ = exact_assignment(inst, C, CENTER)
            except InfeasibleError:
                continue
            best = min(best, value)
    if best == float("inf"):
        raise OracleLimitError("no center set yields a feasible assignment")
    return best
