"""Brute-force ground truths, one per question: perfect matchings and
cheapest Hamiltonian cycles.

A bipartite count is checked as the perfect matchings of the general form
of its graph (A-vertex i as i, B-vertex j as k + j), which the matching
oracle counts.  Both share no DP code with the main algorithms; they
exist to be obviously correct and to refuse (rather than hang on) inputs
beyond their work budgets.
"""

from __future__ import annotations

from itertools import permutations

from .errors import BudgetExceededError
from .graphs import Graph, Record


class OracleBudget(Record):
    __slots__ = _fields = ("max_n", "max_work")
    max_n: int
    max_work: int


PM_BUDGET = OracleBudget(max_n=20, max_work=10_000_000)
TSP_BUDGET = OracleBudget(max_n=10, max_work=10_000_000)


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
    weight = {e: w for u, v, w in g.edges for e in ((u, v), (v, u))}
    best: int | None = None
    for work, order in enumerate(permutations(range(1, g.n)), 1):
        if work > budget.max_work:
            raise BudgetExceededError("TSP oracle exceeded its work budget")
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
