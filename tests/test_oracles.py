"""Brute-force oracles and the reference alternating-cover count: hand
values and budget refusals."""

import pytest

from expdeg import (
    BipartiteGraph,
    BudgetExceededError,
    Graph,
    OracleBudget,
    oracle_count_pm,
    oracle_tsp,
    random_regular,
)
from expdeg.pm_dp import build_contracted_graph
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    general_form,
    naive_cover_dp,
    star_graph,
    unordered_total,
)


def test_count_pm_hand_values():
    assert oracle_count_pm(complete_graph(2)) == 1
    assert oracle_count_pm(complete_graph(4)) == 3
    assert oracle_count_pm(cycle_graph(4)) == 2
    assert oracle_count_pm(cycle_graph(6)) == 2
    assert oracle_count_pm(complete_graph(5)) == 0
    assert oracle_count_pm(star_graph(2)) == 0
    assert oracle_count_pm(Graph.from_edges(0, [])) == 1


def test_tsp_hand_values():
    c4w = Graph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
    assert oracle_tsp(c4w) == 10
    assert oracle_tsp(complete_graph(4)) == 4
    assert oracle_tsp(star_graph(3)) is None


def alternating_covers(g: Graph) -> int:
    """Label-disjoint cycle covers of the pair contraction of g, counted by
    the ordered reference cover DP and divided by q! per cycle count q."""
    run = naive_cover_dp(build_contracted_graph(g.n, g.edges))
    return unordered_total(run.full_covers.items())


def test_alternating_covers_hand_values():
    assert alternating_covers(complete_graph(2)) == 1
    assert alternating_covers(complete_graph(4)) == 3
    assert alternating_covers(cycle_graph(4)) == 2
    assert alternating_covers(Graph.from_edges(0, [])) == 1
    with pytest.raises(ValueError, match="even"):
        alternating_covers(complete_graph(3))  # odd n: no matching, no contraction


def test_permanent_hand_values():
    """Permanents, counted as the perfect matchings of the general form."""
    assert oracle_count_pm(general_form(complete_bipartite(3))) == 6
    identity4 = BipartiteGraph.from_edges(4, [(i, i) for i in range(4)])
    assert oracle_count_pm(general_form(identity4)) == 1
    near = BipartiteGraph.from_edges(
        3, [(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)]
    )
    assert oracle_count_pm(general_form(near)) == 4


def test_budget_refusals():
    with pytest.raises(BudgetExceededError):
        oracle_count_pm(complete_graph(12), OracleBudget(max_n=10, max_work=100))
    with pytest.raises(BudgetExceededError):
        oracle_count_pm(complete_graph(12), OracleBudget(max_n=20, max_work=50))
    with pytest.raises(BudgetExceededError):
        oracle_tsp(complete_graph(12))
    # under max_n, the TSP oracle counts the orders it tries
    with pytest.raises(BudgetExceededError, match="work budget"):
        oracle_tsp(random_regular(10, 3, 1), OracleBudget(max_n=10, max_work=5))
