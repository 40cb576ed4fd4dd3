"""Bipartite perfect-matching counting by one-sided subset DP with a
low-degree skip rule, plus a Ryser permanent baseline.

After peeling forced degree-0/1 vertices, a block B0 of the lowest-degree
B-vertices is chosen and the A side is ordered so that vertices with no
neighbor in B0 come first.  The DP value for X (a subset of B) counts
matchings of the first |X| A-vertices into X; while |X| is small enough
that only B0-free A-vertices have been consumed, any X touching B0 leaves
an isolated vertex and counts zero, so those calls are skipped and never
stored.  The number of memoized states is therefore bounded by an explicit
formula instead of 2^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bitset import bits, mask_of
from .counting import exact_fraction
from .errors import CapacityError
from .graphs import BipartiteGraph

DEFAULT_ALPHA = Fraction("3.55")


def _check_alpha(alpha: Fraction | float) -> Fraction:
    """alpha as an exact Fraction (see exact_fraction), or ValueError unless
    it exceeds 2."""
    alpha = exact_fraction(alpha)
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    return alpha


@dataclass(frozen=True)
class ReducedInstance:
    """Result of peeling: a sub-instance with minimum degree >= 2 (or empty),
    reindexed compactly; original matching count is 0 when infeasible, else
    the reduced graph's count (forced pairs contribute a factor of 1)."""

    graph: BipartiteGraph
    feasible: bool
    forced_pairs: tuple[tuple[int, int], ...]
    a_orig: tuple[int, ...]
    b_orig: tuple[int, ...]


def reduce_degree_one(g: BipartiteGraph) -> ReducedInstance:
    """Peel isolated vertices (infeasible) and forced degree-1 matches."""
    alive_a = set(range(g.k))
    alive_b = set(range(g.k))
    adj_a = {i: set(g.adj_a[i]) for i in range(g.k)}
    adj_b = {j: set(g.adj_b[j]) for j in range(g.k)}
    forced: list[tuple[int, int]] = []

    def remove_pair(i: int, j: int) -> None:
        alive_a.discard(i)
        alive_b.discard(j)
        for jj in adj_a.pop(i):
            if jj != j:
                adj_b[jj].discard(i)
        for ii in adj_b.pop(j):
            if ii != i:
                adj_a[ii].discard(j)

    while True:
        iso_a = next((i for i in sorted(alive_a) if not adj_a[i]), None)
        iso_b = next((j for j in sorted(alive_b) if not adj_b[j]), None)
        if iso_a is not None or iso_b is not None:
            return ReducedInstance(
                BipartiteGraph.from_edges(0, []), False, tuple(forced), (), ()
            )
        deg1_a = next((i for i in sorted(alive_a) if len(adj_a[i]) == 1), None)
        if deg1_a is not None:
            j = next(iter(adj_a[deg1_a]))
            forced.append((deg1_a, j))
            remove_pair(deg1_a, j)
            continue
        deg1_b = next((j for j in sorted(alive_b) if len(adj_b[j]) == 1), None)
        if deg1_b is not None:
            i = next(iter(adj_b[deg1_b]))
            forced.append((i, deg1_b))
            remove_pair(i, deg1_b)
            continue
        break

    a_orig = tuple(sorted(alive_a))
    b_orig = tuple(sorted(alive_b))
    a_new = {v: idx for idx, v in enumerate(a_orig)}
    b_new = {v: idx for idx, v in enumerate(b_orig)}
    edges = [
        (a_new[i], b_new[j]) for i in a_orig for j in adj_a[i]
    ]
    reduced = BipartiteGraph.from_edges(len(a_orig), edges)
    return ReducedInstance(reduced, True, tuple(forced), a_orig, b_orig)


@dataclass(frozen=True)
class TrimPlan:
    """b0: lowest-degree block on side B; order_a puts A-vertices with no
    neighbor in b0 first; low_card_limit = floor((1 - 1/alpha) * k)."""

    k: int
    alpha: Fraction
    d: Fraction
    b0: tuple[int, ...]
    b0_mask: int
    a0: tuple[int, ...]
    order_a: tuple[int, ...]
    low_card_limit: int


def plan_trim(g: BipartiteGraph, alpha: Fraction | float = DEFAULT_ALPHA) -> TrimPlan:
    """Choose the skip block and A-side order for a minimum-degree-2 instance.

    b0 holds the floor(k/(alpha*d)) smallest-degree B-vertices (ties by
    index) where d = m/k exactly; its neighborhood a0 then has at most
    k/alpha vertices, which is what makes the skip rule sound.
    """
    alpha = _check_alpha(alpha)
    k = g.k
    if k == 0:
        return TrimPlan(0, alpha, Fraction(0), (), 0, (), (), 0)
    if any(len(g.adj_a[i]) < 2 for i in range(k)) or any(
        len(g.adj_b[j]) < 2 for j in range(k)
    ):
        raise ValueError("trim planning requires minimum degree 2; reduce first")
    d = Fraction(g.m, k)
    b0_size = math.floor(Fraction(k, alpha * d))
    by_degree = sorted(range(k), key=lambda j: (len(g.adj_b[j]), j))
    b0 = tuple(by_degree[:b0_size])
    a0 = set()
    for j in b0:
        a0.update(g.adj_b[j])
    if len(a0) * alpha > k:
        raise AssertionError("skip block neighborhood exceeds k/alpha")
    order_a = tuple(i for i in range(k) if i not in a0) + tuple(sorted(a0))
    low_card_limit = math.floor((1 - 1 / alpha) * k)
    return TrimPlan(
        k, alpha, d, b0, mask_of(b0), tuple(sorted(a0)), order_a, low_card_limit
    )


@dataclass(frozen=True)
class BipCountResult:
    count: int
    stored_states: int
    pruned_calls: int
    b0_size: int
    reduced_k: int
    reduced_d: Fraction
    alpha: Fraction


def count_pm_bipartite(
    g: BipartiteGraph, alpha: Fraction | float = DEFAULT_ALPHA
) -> BipCountResult:
    """Exact perfect-matching count with skip-rule memoization statistics.

    Top-down evaluation from the full B set; calls hitting the skip rule
    return zero without being memoized, everything else is cached.
    """
    alpha = _check_alpha(alpha)
    red = reduce_degree_one(g)
    if not red.feasible:
        return BipCountResult(0, 0, 0, 0, 0, Fraction(0), alpha)
    h = red.graph
    k = h.k
    if k == 0:
        return BipCountResult(1, 0, 0, 0, 0, Fraction(0), alpha)
    plan = plan_trim(h, alpha)
    nbr_mask = [mask_of(h.adj_a[i]) for i in range(k)]
    order_a = plan.order_a
    b0_mask = plan.b0_mask
    limit = plan.low_card_limit
    memo: dict[int, int] = {}
    pruned = 0

    def value(x_mask: int) -> int:
        nonlocal pruned
        if x_mask == 0:
            memo[0] = 1
            return 1
        size = x_mask.bit_count()
        if size <= limit and x_mask & b0_mask:
            pruned += 1
            return 0
        cached = memo.get(x_mask)
        if cached is not None:
            return cached
        a = order_a[size - 1]
        total = 0
        for j in bits(nbr_mask[a] & x_mask):
            total += value(x_mask & ~(1 << j))
        memo[x_mask] = total
        return total

    count = value((1 << k) - 1)
    return BipCountResult(count, len(memo), pruned, len(plan.b0), k, plan.d, alpha)


def stored_state_bound(k: int, d: Fraction, alpha: Fraction) -> int:
    """Explicit cap on memoized states: 2^(k - floor(k/(alpha d)) + 1)
    + k * C(k, ceil(k/alpha)) + 1."""
    b0_size = math.floor(Fraction(k, alpha * d)) if d else 0
    return (
        2 ** (k - b0_size + 1)
        + k * math.comb(k, math.ceil(Fraction(k, alpha)))
        + 1
    )


def ryser_permanent(g: BipartiteGraph) -> int:
    """Permanent of the biadjacency matrix by subset inclusion-exclusion.

    Iterates column subsets in Gray-code order, updating row sums one
    column at a time; exponential in k, capped at k <= 30.
    """
    k = g.k
    if k > 30:
        raise CapacityError("Ryser evaluation is limited to k <= 30")
    if k == 0:
        return 1
    col_rows = [mask_of(g.adj_b[j]) for j in range(k)]  # rows per column
    row_sums = [0] * k
    total = 0
    prev_gray = 0
    for s in range(1, 1 << k):
        gray = s ^ (s >> 1)
        changed = (gray ^ prev_gray).bit_length() - 1
        delta = 1 if gray & (1 << changed) else -1
        for i in bits(col_rows[changed]):
            row_sums[i] += delta
        prev_gray = gray
        prod = 1
        for v in row_sums:
            if not v:
                prod = 0
                break
            prod *= v
        if prod:
            total += -prod if gray.bit_count() % 2 else prod
    return -total if k % 2 else total
