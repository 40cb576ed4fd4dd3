"""Bipartite perfect-matching counting by a forward one-sided subset DP,
plus a Ryser permanent baseline.

After peeling forced degree-0/1 vertices, a block B0 of the lowest-degree
B-vertices is chosen and the A side is ordered so that vertices with no
neighbor in B0 come first.  Level i maps each subset Y of B with |Y| = i to
the number of matchings of the first i A-vertices into Y, and drops Y when
a B-vertex outside it has no neighbor among the A-vertices still to come.
While only B0-free A-vertices have been matched, every kept set misses B0,
so the kept sets are bounded by an explicit formula instead of 2^k.
count_pm_bipartite pulls the levels by layers.drive and keeps the last.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .bitset import bits, mask_of
from .counting import exact_fraction
from .errors import CapacityError
from .graphs import BipartiteGraph, Record
from .layers import drive

DEFAULT_ALPHA = Fraction("3.55")


def _check_alpha(alpha: Fraction | float) -> Fraction:
    """alpha as an exact Fraction (see exact_fraction), or ValueError unless
    it exceeds 2."""
    alpha = exact_fraction(alpha)
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    return alpha


def _b0_size(k: int, d: Fraction, alpha: Fraction) -> int:
    """floor(k/(alpha*d)), the size of the block B0; 0 when d = 0."""
    return math.floor(Fraction(k, alpha * d)) if d else 0


class ReducedInstance(Record):
    """Result of peeling: a sub-instance with minimum degree >= 2 (or empty),
    reindexed compactly; original matching count is 0 when infeasible, else
    the reduced graph's count (forced pairs contribute a factor of 1)."""

    __slots__ = _fields = ("graph", "feasible", "forced_pairs")
    graph: BipartiteGraph
    feasible: bool
    forced_pairs: tuple[tuple[int, int], ...]


def reduce_degree_one(g: BipartiteGraph) -> ReducedInstance:
    """Peel isolated vertices (infeasible) and forced degree-1 matches.

    One worklist pass over vertex ids 0..2k-1 (A-vertex i is i, B-vertex j
    is k + j), seeded with every vertex of degree <= 1: a popped vertex
    already removed is skipped, one of degree 0 makes g infeasible, and one
    of degree 1 is matched to its neighbour; both are removed, and each
    neighbour of the partner whose degree drops to <= 1 is pushed.  The
    worklist is a heap on (degree, id), so isolation is found before any
    further forcing and the lowest id is forced first.  Survivors are
    reindexed in their original order.

    Peeling is confluent, so the pop order does not change the result.  Of
    two forcings both available: if they share no vertex they commute; if
    they force the same isolated edge they are the same step; if they share
    a partner, each one isolates the other's vertex.  An isolated vertex is
    never removed, so every order ends in the same remainder, or in
    infeasible.
    """
    k = g.k
    nbrs = [{k + j for j in row} for row in g.adj_a] + [set(row) for row in g.adj_b]
    alive = [True] * (2 * k)
    forced: list[tuple[int, int]] = []
    work = [(len(nbrs[x]), x) for x in range(2 * k) if len(nbrs[x]) <= 1]
    heapq.heapify(work)
    while work:
        _, x = heapq.heappop(work)
        if not alive[x]:
            continue
        if not nbrs[x]:
            return ReducedInstance(BipartiteGraph(0, ()), False, tuple(forced))
        (y,) = nbrs[x]
        alive[x] = alive[y] = False
        forced.append((x, y - k) if x < k else (y, x - k))
        for z in nbrs[y]:
            if z != x:
                nbrs[z].discard(y)
                if len(nbrs[z]) <= 1:
                    heapq.heappush(work, (len(nbrs[z]), z))
    keep_a = [i for i in range(k) if alive[i]]
    new_b = {y: t for t, y in enumerate(y for y in range(k, 2 * k) if alive[y])}
    edges = [(s, new_b[y]) for s, i in enumerate(keep_a) for y in nbrs[i]]
    return ReducedInstance(BipartiteGraph(len(keep_a), edges), True, tuple(forced))


class TrimPlan(Record):
    """b0: lowest-degree block on side B; order_a puts A-vertices with no
    neighbor in b0 first; low_card_limit = floor((1 - 1/alpha) * k)."""

    __slots__ = _fields = ("alpha", "d", "b0", "a0", "order_a", "low_card_limit")
    alpha: Fraction
    d: Fraction
    b0: tuple[int, ...]
    a0: tuple[int, ...]
    order_a: tuple[int, ...]
    low_card_limit: int


def plan_trim(g: BipartiteGraph, alpha: Fraction | float = DEFAULT_ALPHA) -> TrimPlan:
    """Choose the block B0 and A-side order for a minimum-degree-2 instance.

    b0 holds the floor(k/(alpha*d)) smallest-degree B-vertices (ties by
    index) where d = m/k exactly; its neighborhood a0 then has at most
    k/alpha vertices, so the first low_card_limit A-vertices of order_a
    have no neighbor in b0: no kept set of at most that size meets it.

    Why |a0| <= k/alpha: the B-degrees average d, so the s smallest of them
    average at most d and sum to at most s*d <= (k/(alpha*d))*d = k/alpha,
    and a0 has at most as many vertices as b0 has edges.
    """
    alpha = _check_alpha(alpha)
    k = g.k
    if k == 0:
        return TrimPlan(alpha, Fraction(0), (), (), (), 0)
    if any(len(g.adj_a[i]) < 2 for i in range(k)) or any(
        len(g.adj_b[j]) < 2 for j in range(k)
    ):
        raise ValueError("trim planning requires minimum degree 2; reduce first")
    d = Fraction(g.m, k)
    by_degree = sorted(range(k), key=lambda j: (len(g.adj_b[j]), j))
    b0 = tuple(by_degree[:_b0_size(k, d, alpha)])
    a0 = set()
    for j in b0:
        a0.update(g.adj_b[j])
    order_a = tuple(i for i in range(k) if i not in a0) + tuple(sorted(a0))
    low_card_limit = math.floor((1 - 1 / alpha) * k)
    return TrimPlan(alpha, d, b0, tuple(sorted(a0)), order_a, low_card_limit)


class BipCountResult(Record):
    __slots__ = _fields = (
        "count", "stored_states", "pruned_calls", "b0_size", "reduced_k", "reduced_d", "alpha"
    )
    count: int
    stored_states: int
    pruned_calls: int
    b0_size: int
    reduced_k: int
    reduced_d: Fraction
    alpha: Fraction


def _levels(h: BipartiteGraph, order_a: tuple[int, ...]):
    """Yield (kept, dropped) per level i = 0..k.  kept maps each set Y with
    |Y| = i to its number of matchings of order_a[:i] into Y.  A new set is
    dropped, and counted once per parent that built it, when some B-vertex
    outside it has no neighbor in order_a[i:].  Two levels are live at once."""
    full = (1 << h.k) - 1
    nbr = [mask_of(h.adj_a[a]) for a in order_a]
    later = [0] * h.k  # later[i]: the B-vertices order_a[i + 1:] reach
    for i in range(h.k - 1, 0, -1):
        later[i - 1] = later[i] | nbr[i]
    level = {0: 1}
    yield level, 0
    for a_mask, reach in zip(nbr, later):
        built: dict[int, int] = {}
        dropped = 0
        for y, ways in level.items():
            free = a_mask & ~y
            while free:
                low = free & -free
                free ^= low
                child = y | low
                if child | reach == full:
                    built[child] = built.get(child, 0) + ways
                else:
                    dropped += 1
        level = built
        yield level, dropped


def count_pm_bipartite(
    g: BipartiteGraph, alpha: Fraction | float = DEFAULT_ALPHA
) -> BipCountResult:
    """Exact perfect-matching count by one forward pass over _levels; stored
    states are the kept sets of all levels, pruned calls the dropped ones."""
    red = reduce_degree_one(g)
    h = red.graph
    k = h.k
    if k == 0:  # peeling left nothing, or found g infeasible
        alpha = _check_alpha(alpha)  # plan_trim checks it on the other path
        return BipCountResult(int(red.feasible), 0, 0, 0, 0, Fraction(0), alpha)
    plan = plan_trim(h, alpha)
    [(level, _)], sizes = drive(_levels(h, plan.order_a), lambda lv: (len(lv[0]), lv[1]))
    stored, pruned = map(sum, zip(*sizes))
    count = level.get((1 << k) - 1, 0)
    return BipCountResult(count, stored, pruned, len(plan.b0), k, plan.d, plan.alpha)


def stored_state_bound(k: int, d: Fraction, alpha: Fraction) -> int:
    """Explicit cap on the kept sets of all levels, the empty set included:
    2^(k - floor(k/(alpha d)) + 1) + k * C(k, ceil(k/alpha)) + 1."""
    return (
        2 ** (k - _b0_size(k, d, alpha) + 1)
        + k * math.comb(k, math.ceil(Fraction(k, alpha)))
        + 1
    )


def ryser_permanent(g: BipartiteGraph) -> int:
    """Permanent of the biadjacency matrix by subset inclusion-exclusion.

    Iterates column subsets in Gray-code order, updating row sums one
    column at a time; exponential in k (about 2x per +1), capped at k <= 24.
    """
    k = g.k
    if k > 24:
        raise CapacityError("Ryser evaluation is limited to k <= 24")
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
