"""Bipartite counter: peeling, trim plan, skip rule, state bound, baselines."""

from fractions import Fraction

import pytest

from expdeg import (
    BipartiteGraph,
    count_pm_bipartite,
    oracle_permanent,
    plan_trim,
    reduce_degree_one,
    random_bipartite_min2,
    ryser_permanent,
    stored_state_bound,
)
from expdeg.bitset import bits
from expdeg.pm_bipartite import DEFAULT_ALPHA
from conftest import complete_bipartite, seeded_bipartite

ALPHAS = (Fraction(5, 2), Fraction("3.55"), Fraction(5))


def hexagon_bipartite() -> BipartiteGraph:
    # C6 with sides {0,1,2} alternating: two perfect matchings
    return BipartiteGraph.from_edges(3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])


# --- degree-1 peeling ---------------------------------------------------------


def test_reduce_forced_chain():
    g = BipartiteGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
    red = reduce_degree_one(g)
    assert red.feasible
    assert red.graph.k == 0
    assert set(red.forced_pairs) == {(0, 0), (1, 1)}
    assert count_pm_bipartite(g).count == 1 == oracle_permanent(g)


def test_reduce_isolated_infeasible():
    g = BipartiteGraph.from_edges(2, [(0, 0), (1, 0)])  # B-vertex 1 isolated
    red = reduce_degree_one(g)
    assert not red.feasible
    assert count_pm_bipartite(g).count == 0


def test_reduce_k22_fixed_point():
    g = complete_bipartite(2)
    red = reduce_degree_one(g)
    assert red.feasible
    assert red.graph == g


def test_reduce_preserves_count():
    for seed in range(40):
        g = seeded_bipartite(seed, 7)
        red = reduce_degree_one(g)
        want = oracle_permanent(g)
        if not red.feasible:
            assert want == 0
        else:
            assert oracle_permanent(red.graph) == want


# --- trim plan ------------------------------------------------------------------


def test_plan_block_sizes():
    g8 = random_bipartite_min2(8, 16, 1)  # k=8, d=2
    assert len(plan_trim(g8).b0) == 1  # floor(8 / 7.1)
    g4 = random_bipartite_min2(4, 8, 1)  # k=4, d=2
    assert len(plan_trim(g4).b0) == 0
    assert len(plan_trim(complete_bipartite(3)).b0) == 0  # floor(3/10.65)


def test_plan_rejects_small_alpha():
    with pytest.raises(ValueError):
        plan_trim(complete_bipartite(3), Fraction(2))


def test_count_rejects_small_alpha_before_peeling():
    # peeling empties a perfect matching, so plan_trim never sees alpha
    matching2 = BipartiteGraph.from_edges(2, [(0, 0), (1, 1)])
    for alpha in (Fraction(2), 2.0, 1):
        with pytest.raises(ValueError):
            count_pm_bipartite(matching2, alpha)
        with pytest.raises(ValueError):
            count_pm_bipartite(BipartiteGraph.from_edges(0, []), alpha)


def test_float_alpha_reads_decimal():
    g = random_bipartite_min2(8, 16, 1)
    assert plan_trim(g, 3.55).alpha == DEFAULT_ALPHA == Fraction(71, 20)
    assert count_pm_bipartite(g, 3.55).alpha == DEFAULT_ALPHA
    assert count_pm_bipartite(g, 2.5).alpha == Fraction(5, 2)


def test_plan_rejects_degree_one():
    g = BipartiteGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        plan_trim(g)


def test_plan_prefix_avoids_block_neighborhood():
    import math

    for seed in range(20):
        k = 6 + (seed % 6)
        g = random_bipartite_min2(k, 2 * k + seed % 5, seed)
        plan = plan_trim(g)
        assert len(plan.a0) * plan.alpha <= k
        b0 = set(plan.b0)
        limit = math.floor((1 - 1 / plan.alpha) * k)
        for pos in range(limit):
            a = plan.order_a[pos]
            assert not (set(g.adj_a[a]) & b0)


# --- counting -------------------------------------------------------------------


def test_count_named():
    assert count_pm_bipartite(complete_bipartite(3)).count == 6
    assert count_pm_bipartite(hexagon_bipartite()).count == 2
    matching5 = BipartiteGraph.from_edges(5, [(i, i) for i in range(5)])
    assert count_pm_bipartite(matching5).count == 1
    assert count_pm_bipartite(BipartiteGraph.from_edges(0, [])).count == 1


def test_count_agreement_seeded():
    for seed in range(120):
        g = seeded_bipartite(seed, 8)
        want = oracle_permanent(g)
        assert ryser_permanent(g) == want, seed
        for alpha in ALPHAS:
            assert count_pm_bipartite(g, alpha).count == want, (seed, alpha)


def test_ryser_examples():
    assert ryser_permanent(complete_bipartite(2)) == 2
    identity3 = BipartiteGraph.from_edges(3, [(i, i) for i in range(3)])
    assert ryser_permanent(identity3) == 1
    near = BipartiteGraph.from_edges(
        3, [(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)]
    )
    assert ryser_permanent(near) == 4  # 3! minus the two terms through (2,2)
    assert ryser_permanent(BipartiteGraph.from_edges(0, [])) == 1


# --- skip rule and state accounting ----------------------------------------------


def test_pruned_sets_are_provably_zero():
    """Exhaustive check of the skip rule: every subset X of B it could fire
    on (|X| <= low_card_limit and X meets the block b0), whether or not the
    DP reaches it, holds a block vertex with no neighbour among the first
    |X| A-vertices of order_a, so X counts zero."""
    fired = 0
    cases = [random_bipartite_min2(8, 16, seed) for seed in range(6)]
    cases += [random_bipartite_min2(10, 21, seed) for seed in range(6)]
    cases += [seeded_bipartite(seed + 400, 8, k_min=4) for seed in range(30)]
    for idx, g in enumerate(cases):
        fired += count_pm_bipartite(g).pruned_calls
        red = reduce_degree_one(g)
        if not red.feasible or red.graph.k == 0:
            continue
        h = red.graph
        plan = plan_trim(h)
        for x_mask in range(1, 1 << h.k):
            if x_mask.bit_count() > plan.low_card_limit or not x_mask & plan.b0_mask:
                continue
            prefix = set(plan.order_a[: x_mask.bit_count()])
            hit = [j for j in bits(x_mask & plan.b0_mask) if not set(h.adj_b[j]) & prefix]
            assert hit, (idx, bin(x_mask))
    assert fired > 0  # the rule must actually fire somewhere


def test_stored_state_bound_holds():
    for seed in range(30):
        g = seeded_bipartite(seed + 800, 10, k_min=2)
        for alpha in ALPHAS:
            res = count_pm_bipartite(g, alpha)
            if res.reduced_k == 0:
                assert res.stored_states == 0
                continue
            bound = stored_state_bound(res.reduced_k, res.reduced_d, alpha)
            assert res.stored_states <= bound, (seed, alpha)


def test_swap_sides_preserves_count():
    for seed in range(30):
        g = seeded_bipartite(seed + 1200, 7)
        assert (
            count_pm_bipartite(g).count == count_pm_bipartite(g.transpose()).count
        ), seed
