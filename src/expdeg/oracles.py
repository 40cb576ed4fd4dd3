"""Brute-force ground truths for the counting and TSP algorithms.

These share no DP code with the main algorithms; they exist to be
obviously correct and to refuse (rather than hang on) inputs beyond their
work budgets.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from .errors import BudgetExceededError
from .graphs import BipartiteGraph, Graph, Record


class OracleBudget(Record):
    __slots__ = _fields = ("max_n", "max_work")
    max_n: int
    max_work: int


PM_BUDGET = OracleBudget(max_n=20, max_work=10_000_000)
TSP_BUDGET = OracleBudget(max_n=10, max_work=10_000_000)
ALT_COVER_BUDGET = OracleBudget(max_n=12, max_work=10_000_000)
PERMANENT_BUDGET = OracleBudget(max_n=9, max_work=10_000_000)


def oracle_count_pm(g: Graph, budget: OracleBudget = PM_BUDGET) -> int:
    """Count perfect matchings by always matching the lowest unmatched vertex."""
    if g.n > budget.max_n:
        raise BudgetExceededError(f"matching oracle capped at n={budget.max_n}")
    if g.n % 2 != 0:
        return 0
    full = (1 << g.n) - 1
    work = 0

    def count(matched: int) -> int:
        nonlocal work
        work += 1
        if work > budget.max_work:
            raise BudgetExceededError("matching oracle exceeded its work budget")
        if matched == full:
            return 1
        free = (~matched) & full
        u = (free & -free).bit_length() - 1
        total = 0
        for v in g.neighbors(u):
            if not (matched >> v) & 1:
                total += count(matched | (1 << u) | (1 << v))
        return total

    return count(0)


def oracle_tsp(g: Graph, budget: OracleBudget = TSP_BUDGET) -> int | None:
    """Minimum Hamiltonian cycle weight by enumerating (n-1)! vertex orders."""
    if g.n > budget.max_n:
        raise BudgetExceededError(f"TSP oracle capped at n={budget.max_n}")
    if g.n < 3:
        raise ValueError("a Hamiltonian cycle needs at least three vertices")
    weight = {}
    for u, v, w in g.edges:
        weight[(u, v)] = w
        weight[(v, u)] = w
    best: int | None = None
    for order in permutations(range(1, g.n)):
        prev = 0
        total = 0
        for v in order:
            w = weight.get((prev, v))
            if w is None:
                break
            total += w
            prev = v
        else:
            w = weight.get((prev, 0))
            if w is not None:
                total += w
                if best is None or total < best:
                    best = total
    return best


def oracle_alternating_covers(
    g: Graph, budget: OracleBudget = ALT_COVER_BUDGET
) -> int:
    """Count edge subsets that, together with the pairing edges (2i, 2i+1),
    form a cycle cover whose cycles alternate pairing/graph edges.

    Enumerates all subsets of n/2 graph edges (a degree-2 cover over the
    n/2 pairing edges needs exactly that many) and counts those whose edges
    are pairwise disjoint.  No traversal is needed: n/2 disjoint edges form
    a perfect matching M, and the pairing P and M are fixed-point-free
    involutions, so P and M together split into even cycles that alternate
    P and M edges (a 2-cycle where M uses a pairing edge); a walk from any
    vertex returns to it on an M step.  For n = 0 the one empty subset
    counts.
    """
    if g.n > budget.max_n:
        raise BudgetExceededError(f"cover oracle capped at n={budget.max_n}")
    if g.n % 2 != 0:
        return 0
    half = g.n // 2
    if math.comb(g.m, half) > budget.max_work:
        raise BudgetExceededError("cover oracle exceeded its work budget")
    count = 0
    for subset in combinations(g.edges, half):
        matched = [False] * g.n
        for u, v, _ in subset:
            if matched[u] or matched[v]:
                break
            matched[u] = matched[v] = True
        else:
            count += 1
    return count


def oracle_permanent(g: BipartiteGraph, budget: OracleBudget = PERMANENT_BUDGET) -> int:
    """Permanent of the biadjacency matrix by summing over all k! permutations."""
    if g.k > budget.max_n:
        raise BudgetExceededError(f"permanent oracle capped at k={budget.max_n}")
    edges = set(g.edges)
    total = 0
    for perm in permutations(range(g.k)):
        if all((i, j) in edges for i, j in enumerate(perm)):
            total += 1
    return total
