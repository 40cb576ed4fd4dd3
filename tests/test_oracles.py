"""Brute-force oracles: hand values, cross-identities, budget refusals."""

import pytest

from expdeg import (
    BipartiteGraph,
    BudgetExceededError,
    Graph,
    OracleBudget,
    oracle_alternating_covers,
    oracle_count_pm,
    oracle_permanent,
    oracle_tsp,
)
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    seeded_graph,
    star_graph,
)


def test_count_pm_hand_values():
    assert oracle_count_pm(complete_graph(4)) == 3
    assert oracle_count_pm(cycle_graph(6)) == 2
    assert oracle_count_pm(complete_graph(5)) == 0
    assert oracle_count_pm(star_graph(2)) == 0
    assert oracle_count_pm(Graph.from_edges(0, [])) == 1


def test_tsp_hand_values():
    c4w = Graph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
    assert oracle_tsp(c4w) == 10
    assert oracle_tsp(complete_graph(4)) == 4
    assert oracle_tsp(star_graph(3)) is None


def test_alternating_covers_hand_values():
    assert oracle_alternating_covers(complete_graph(2)) == 1
    assert oracle_alternating_covers(complete_graph(4)) == 3
    assert oracle_alternating_covers(cycle_graph(4)) == 2
    assert oracle_alternating_covers(complete_graph(3)) == 0
    assert oracle_alternating_covers(Graph.from_edges(0, [])) == 1


def test_alternating_covers_equal_matchings():
    for seed in range(60):
        g = seeded_graph(seed + 700, 10)
        assert oracle_alternating_covers(g) == oracle_count_pm(g), seed


def test_permanent_hand_values():
    assert oracle_permanent(complete_bipartite(3)) == 6
    identity4 = BipartiteGraph.from_edges(4, [(i, i) for i in range(4)])
    assert oracle_permanent(identity4) == 1
    near = BipartiteGraph.from_edges(
        3, [(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)]
    )
    assert oracle_permanent(near) == 4


def test_budget_refusals():
    with pytest.raises(BudgetExceededError):
        oracle_count_pm(complete_graph(12), OracleBudget(max_n=10, max_work=100))
    with pytest.raises(BudgetExceededError):
        oracle_count_pm(complete_graph(12), OracleBudget(max_n=20, max_work=50))
    with pytest.raises(BudgetExceededError):
        oracle_tsp(complete_graph(12))
    with pytest.raises(BudgetExceededError, match="capped at n=12"):
        oracle_alternating_covers(complete_graph(14))
    with pytest.raises(BudgetExceededError, match="work budget"):
        oracle_alternating_covers(complete_graph(12))  # C(66, 6) edge subsets
    with pytest.raises(BudgetExceededError):
        oracle_permanent(complete_bipartite(10))
