"""Brute-force ground truths for the counting and TSP algorithms.

These share no DP code with the main algorithms; they exist to be
obviously correct and to refuse (rather than hang on) inputs beyond their
work budgets.
"""

from __future__ import annotations

from itertools import permutations

from .errors import BudgetExceededError
from .graphs import BipartiteGraph, Graph, Record


class OracleBudget(Record):
    __slots__ = _fields = ("max_n", "max_work")
    max_n: int
    max_work: int


PM_BUDGET = OracleBudget(max_n=20, max_work=10_000_000)
TSP_BUDGET = OracleBudget(max_n=10, max_work=10_000_000)
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
