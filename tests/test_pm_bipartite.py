"""Bipartite counter: peeling, trim plan, forward levels, state bound,
baselines."""

import functools
import random
from fractions import Fraction

import pytest

from expdeg import (
    BipartiteGraph,
    count_pm_bipartite,
    oracle_count_pm,
    plan_trim,
    reduce_degree_one,
    random_bipartite_min2,
    ryser_permanent,
    stored_state_bound,
)
from expdeg import pm_bipartite
from expdeg.bitset import bits
from expdeg.pm_bipartite import DEFAULT_ALPHA, _levels
from conftest import complete_bipartite, general_form, seeded_bipartite

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
    assert count_pm_bipartite(g).count == 1 == oracle_count_pm(general_form(g))


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
        want = oracle_count_pm(general_form(g))
        if not red.feasible:
            assert want == 0
        else:
            assert oracle_count_pm(general_form(red.graph)) == want


def test_reduce_replays_as_degree_one_forcings():
    """On random bipartite graphs, infeasible ones included: forced_pairs,
    replayed in order on g, is a sequence of forcings of a degree-1 vertex
    with no isolated vertex before any of them; feasible is false exactly
    when the replay ends with an isolated vertex; otherwise the remainder is
    g induced on the survivors, reindexed in order, with minimum degree 2."""
    infeasible = feasible_peeled = 0
    for seed in range(400):
        g = seeded_bipartite(seed + 5100, 9)
        red = reduce_degree_one(g)
        alive_a, alive_b = set(range(g.k)), set(range(g.k))

        def degrees():
            return [len(alive_b.intersection(g.adj_a[i])) for i in sorted(alive_a)] + [
                len(alive_a.intersection(g.adj_b[j])) for j in sorted(alive_b)
            ]

        for i, j in red.forced_pairs:
            assert 0 not in degrees(), seed
            assert i in alive_a and j in alive_b and j in g.adj_a[i], seed
            assert 1 in (len(alive_b.intersection(g.adj_a[i])),
                         len(alive_a.intersection(g.adj_b[j]))), seed
            alive_a.remove(i)
            alive_b.remove(j)
        assert red.feasible == (0 not in degrees()), seed
        if not red.feasible:
            assert red.graph.k == 0
            infeasible += 1
            continue
        assert min(degrees(), default=2) >= 2, seed
        keep_a, keep_b = sorted(alive_a), sorted(alive_b)
        assert red.graph == BipartiteGraph.from_edges(len(keep_a), [
            (keep_a.index(i), keep_b.index(j))
            for i, j in g.edges
            if i in alive_a and j in alive_b
        ]), seed
        feasible_peeled += bool(red.forced_pairs)
    assert infeasible > 50 and feasible_peeled > 20


# --- trim plan ------------------------------------------------------------------


def test_plan_block_sizes():
    g8 = random_bipartite_min2(8, 16, 1)  # k=8, d=2
    assert len(plan_trim(g8).b0) == 1  # floor(8 / 7.1)
    g4 = random_bipartite_min2(4, 8, 1)  # k=4, d=2
    assert len(plan_trim(g4).b0) == 0
    assert len(plan_trim(complete_bipartite(3)).b0) == 0  # floor(3/10.65)
    empty = plan_trim(BipartiteGraph(0, ()))
    assert (empty.b0, empty.a0, empty.order_a, empty.low_card_limit) == ((), (), (), 0)


def test_plan_rejects_small_alpha():
    with pytest.raises(ValueError):
        plan_trim(complete_bipartite(3), Fraction(2))


def test_count_rejects_small_alpha_before_peeling():
    # peeling empties a perfect matching and the empty graph before any
    # level is built; count still plans the empty remainder, and plan_trim
    # refuses alpha there
    matching2 = BipartiteGraph.from_edges(2, [(0, 0), (1, 1)])
    for alpha in (Fraction(2), 2.0, 1):
        with pytest.raises(ValueError):
            count_pm_bipartite(matching2, alpha)
        with pytest.raises(ValueError):
            count_pm_bipartite(BipartiteGraph.from_edges(0, []), alpha)


PLAN_ONCE_GRAPHS = {
    "matching": BipartiteGraph.from_edges(2, [(0, 0), (1, 1)]),  # peels empty
    "isolated": BipartiteGraph.from_edges(2, [(0, 0), (1, 0)]),  # infeasible
    "K33": complete_bipartite(3),
    "min2": random_bipartite_min2(8, 16, 1),
}


@pytest.mark.parametrize("name", PLAN_ONCE_GRAPHS)
def test_count_plans_once_and_reads_the_default_there(name, monkeypatch):
    g = PLAN_ONCE_GRAPHS[name]
    plan_trim_of = pm_bipartite.plan_trim
    calls = []

    def recording_plan_trim(h, alpha=None):
        calls.append(alpha)
        return plan_trim_of(h, alpha)

    monkeypatch.setattr(pm_bipartite, "plan_trim", recording_plan_trim)
    results = []
    for args in ((), (None,), (3.55,), (DEFAULT_ALPHA,)):
        calls.clear()
        results.append(count_pm_bipartite(g, *args))
        assert len(calls) == 1, args
    assert results == [results[0]] * 4
    assert results[0].alpha == DEFAULT_ALPHA


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
    for seed in range(20):
        k = 6 + (seed % 6)
        g = random_bipartite_min2(k, 2 * k + seed % 5, seed)
        plan = plan_trim(g)
        assert len(plan.a0) * plan.alpha <= k
        b0 = set(plan.b0)
        for pos in range(plan.low_card_limit):
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
        want = oracle_count_pm(general_form(g))
        assert ryser_permanent(g) == want, seed
        for alpha in ALPHAS:
            assert count_pm_bipartite(g, alpha).count == want, (seed, alpha)


@pytest.mark.parametrize("m", [30, 40, 50])
def test_count_agreement_at_k10(m):
    """The level DP and Ryser against the matching oracle on the general
    form (n = 20) at k = 10, past the 9! sum of a permutation brute force."""
    for seed in (1, 2, 3):
        g = random_bipartite_min2(10, m, seed)
        want = oracle_count_pm(general_form(g))
        assert ryser_permanent(g) == want, (m, seed)
        assert count_pm_bipartite(g).count == want, (m, seed)


def test_ryser_examples():
    assert ryser_permanent(complete_bipartite(2)) == 2
    identity3 = BipartiteGraph.from_edges(3, [(i, i) for i in range(3)])
    assert ryser_permanent(identity3) == 1
    near = BipartiteGraph.from_edges(
        3, [(i, j) for i in range(3) for j in range(3) if (i, j) != (2, 2)]
    )
    assert ryser_permanent(near) == 4  # 3! minus the two terms through (2,2)
    assert ryser_permanent(BipartiteGraph.from_edges(0, [])) == 1


# --- forward levels and state accounting ----------------------------------------


def test_levels_keep_exactly_the_completable_matchable_sets():
    """Brute force over every subset Y of B, level by level: the kept sets
    at level i are exactly the Y with |Y| = i that order_a[:i] can match
    perfectly and whose outside B-vertices all have a neighbour in
    order_a[i:], each with its matching count; the dropped count is the
    (kept parent, new vertex) pairs whose set fails that test; every level
    still accounts for every perfect matching; and no kept set of at most
    low_card_limit vertices meets b0."""
    pruned = 0
    cases = [random_bipartite_min2(8, 16, seed) for seed in range(6)]
    cases += [random_bipartite_min2(10, 21, seed) for seed in range(6)]
    cases += [seeded_bipartite(seed + 400, 8, k_min=4) for seed in range(30)]
    for idx, g in enumerate(cases):
        res = count_pm_bipartite(g)
        pruned += res.pruned_calls
        red = reduce_degree_one(g)
        if not red.feasible or red.graph.k == 0:
            continue
        h = red.graph
        k = h.k
        plan = plan_trim(h)
        order = plan.order_a
        full = (1 << k) - 1

        @functools.lru_cache(maxsize=None)
        def matchings(lo: int, hi: int, y: int) -> int:
            # perfect matchings of order[lo:hi] onto the B-vertices of y
            if lo == hi:
                return int(y == 0)
            return sum(
                matchings(lo + 1, hi, y & ~(1 << j))
                for j in h.adj_a[order[lo]]
                if y >> j & 1
            )

        def completable(i: int, y: int) -> bool:
            return all(set(h.adj_b[j]) & set(order[i:]) for j in bits(full & ~y))

        levels = list(_levels(h, order))
        assert len(levels) == k + 1
        total = matchings(0, k, full)
        assert res.count == total == ryser_permanent(h), idx
        assert res.stored_states == sum(len(kept) for kept, _ in levels)
        assert res.pruned_calls == sum(dropped for _, dropped in levels)
        for i, (kept, dropped) in enumerate(levels):
            want = {}
            for y in range(full + 1):
                if y.bit_count() == i and completable(i, y):
                    ways = matchings(0, i, y)
                    if ways:
                        want[y] = ways
            assert kept == want, (idx, i)
            assert total == sum(
                ways * matchings(i, k, full & ~y) for y, ways in kept.items()
            ), (idx, i)
            if i <= plan.low_card_limit:
                assert not any(j in plan.b0 for y in kept for j in bits(y)), (idx, i)
            if i:
                a = order[i - 1]
                assert dropped == sum(
                    not completable(i, y | 1 << j)
                    for y in levels[i - 1][0]
                    for j in h.adj_a[a]
                    if not y >> j & 1
                ), (idx, i)
            else:
                assert dropped == 0
    assert pruned > 0  # the prune must actually drop sets somewhere


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


def test_permanent_invariant_under_transpose_and_permutations():
    rng = random.Random(17)
    for seed in range(30):
        k = rng.randint(2, 10)
        g = random_bipartite_min2(k, rng.randint(2 * k, k * k), seed)
        want = ryser_permanent(g)
        if k <= 9:
            assert oracle_count_pm(general_form(g)) == want, seed
        rows = list(range(k))
        cols = list(range(k))
        rng.shuffle(rows)
        rng.shuffle(cols)
        variants = [
            g,
            g.transpose(),
            BipartiteGraph.from_edges(k, [(rows[i], j) for i, j in g.edges]),
            BipartiteGraph.from_edges(k, [(i, cols[j]) for i, j in g.edges]),
            BipartiteGraph.from_edges(k, [(cols[j], rows[i]) for i, j in g.edges]),
        ]
        for h in variants:
            assert count_pm_bipartite(h).count == ryser_permanent(h) == want, seed
            if k <= 8:
                assert oracle_count_pm(general_form(h)) == want, seed
