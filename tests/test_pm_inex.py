"""Inclusion-exclusion matching counter: arc graph, walk DP, knapsack, counts."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdeg import (
    Graph,
    count_pm_dp,
    count_pm_inex,
    inex_accumulators,
    oracle_alternating_covers,
    oracle_count_pm,
)
from expdeg.pm_inex import (
    ArcGraph,
    build_arc_graph,
    count_anchored_walks,
    count_walk_tuples,
)
from conftest import (
    complete_graph,
    cycle_distribution_cases,
    cycle_graph,
    k33_graph,
    matching_graph,
    petersen_graph,
    seeded_graph,
)

# --- arc graph construction -------------------------------------------------


def arcs_of(ag: ArcGraph) -> list[tuple[int, int, int]]:
    """Every arc as (src, dst, label)."""
    return [(v, w, v // 2) for v in range(ag.n) for w in ag.out[v]]


def test_arc_graph_single_edge():
    ag = build_arc_graph(Graph.from_edges(2, [(0, 1)]))
    assert sorted(arcs_of(ag)) == [(0, 0, 0), (1, 1, 0)]


def test_arc_graph_cross_pair_edge():
    ag = build_arc_graph(Graph.from_edges(4, [(0, 2)]))
    assert sorted(arcs_of(ag)) == [(1, 2, 0), (3, 0, 1)]


def test_arc_graph_k4_label_tally():
    ag = build_arc_graph(complete_graph(4))
    assert len(arcs_of(ag)) == 12
    tally = {0: 0, 1: 0}
    for _, _, label in arcs_of(ag):
        tally[label] += 1
    assert tally == {0: 6, 1: 6}


def test_arc_graph_rejects_odd():
    with pytest.raises(ValueError):
        build_arc_graph(complete_graph(3))


# --- anchored walk counts -----------------------------------------------------


def brute_walk_count(ag: ArcGraph, banned, a: int, length: int) -> int:
    """Independent enumeration of closed walks anchored at a: arc sequences
    that start and end at a, never revisit a in between, and stay above a."""
    arcs = [(u, v, l) for (u, v, l) in arcs_of(ag) if l not in banned]

    def extend(v: int, steps: int) -> int:
        if steps == length:
            return 1 if v == a else 0
        total = 0
        for src, dst, _ in arcs:
            if src != v:
                continue
            if dst == a:
                if steps + 1 == length:
                    total += 1
                continue
            if dst > a:
                total += extend(dst, steps + 1)
        return total

    # walks of positive length leave a exactly once
    total = 0
    for src, dst, _ in arcs:
        if src != a:
            continue
        if dst == a:
            total += 1 if length == 1 else 0
        elif dst > a and length > 1:
            total += extend(dst, 1)
    return total


def allowed_mask(n: int, banned) -> int:
    """Vertex mask of every label not in banned."""
    return sum(1 << v for v in range(n) if v // 2 not in banned)


def test_walks_single_edge():
    ag = build_arc_graph(Graph.from_edges(2, [(0, 1)]))
    assert count_anchored_walks(ag, 0, 0b11) == [0, 1]
    # anchored at 1, vertex 0 is never visited
    assert count_anchored_walks(ag, 1, 0b11) == [0, 1]


def test_walks_c4_length_two():
    ag = build_arc_graph(cycle_graph(4))
    walks = count_anchored_walks(ag, 0, 0b1111)
    assert walks[2] == brute_walk_count(ag, frozenset(), 0, 2) == 1
    # banning label 1 removes the only length-2 walk 0 -> 2 -> 0
    assert count_anchored_walks(ag, 0, allowed_mask(4, {1}))[2] == 0


def test_walks_match_brute_force():
    for seed in range(12):
        g = seeded_graph(seed + 40, 8)
        if g.n % 2:
            g = Graph.from_edges(g.n + 1, g.edges)
        ag = build_arc_graph(g)
        half = g.n // 2
        for banned in (frozenset(), frozenset({0}), frozenset({half - 1}), frozenset({1, 2})):
            allowed = allowed_mask(g.n, banned)
            for a in range(g.n):
                if a // 2 in banned:
                    continue  # the enumeration never anchors at a banned label
                walks = count_anchored_walks(ag, a, allowed)
                assert len(walks) == half + 1 and walks[0] == 0
                for j in range(1, half + 1):
                    assert walks[j] == brute_walk_count(ag, banned, a, j), (
                        seed,
                        sorted(banned),
                        a,
                        j,
                    )


# --- ordered tuples of walks --------------------------------------------------


def naive_walk_tuples(per_len: list[int]) -> list[int]:
    """Reference knapsack: t[q][i] ordered q-tuples of total length i."""
    total = len(per_len) - 1
    t = [[0] * (total + 1) for _ in range(total + 1)]
    t[0][0] = 1
    for q in range(1, total + 1):
        for i in range(total + 1):
            t[q][i] = sum(per_len[j] * t[q - 1][i - j] for j in range(1, i + 1))
    return [row[total] for row in t]


def test_tuples_ordered_pairs():
    assert count_walk_tuples([0, 2, 0])[2] == 4


def test_tuples_empty():
    t = count_walk_tuples([0, 0, 0, 0])
    assert t == [0, 0, 0, 0]


def test_tuples_hand_recurrence():
    assert count_walk_tuples([0, 1, 3, 0])[2] == 6  # 1*3 + 3*1


def test_tuples_match_naive_knapsack():
    rng = random.Random(5)
    for _ in range(300):
        total = rng.randint(0, 12)
        per_len = [0] + [
            rng.choice([0, 0, 1, 2, rng.randint(0, 10**6)]) for _ in range(total)
        ]
        assert count_walk_tuples(per_len) == naive_walk_tuples(per_len), per_len


# --- full counter ---------------------------------------------------------------


def test_count_named_graphs():
    assert count_pm_inex(complete_graph(2)) == 1
    assert count_pm_inex(complete_graph(3)) == 0  # odd order
    assert count_pm_inex(complete_graph(4)) == 3
    assert count_pm_inex(cycle_graph(4)) == 2
    assert count_pm_inex(cycle_graph(6)) == 2
    assert count_pm_inex(k33_graph()) == 6
    assert count_pm_inex(petersen_graph()) == 6


def test_count_empty_graph_is_one():
    assert count_pm_inex(Graph.from_edges(0, [])) == 1


def test_perfect_matching_graph_counts_one():
    for pairs in (1, 2, 3, 4):
        assert count_pm_inex(matching_graph(pairs)) == 1


def test_oracle_agreement_seeded():
    for seed in range(80):
        g = seeded_graph(seed, 10)
        assert count_pm_inex(g) == oracle_count_pm(g), seed


def test_alternating_cover_crosscheck():
    for seed in range(30):
        g = seeded_graph(seed + 300, 10)
        assert count_pm_inex(g) == oracle_alternating_covers(g), seed


def test_accumulators_divisible_and_nonnegative():
    for seed in range(25):
        g = seeded_graph(seed, 10)
        if g.n % 2:
            continue
        acc = inex_accumulators(g)
        for r in range(1, len(acc)):
            assert acc[r] >= 0
            assert acc[r] % factorial(r) == 0


def overlay_cycle_distribution(g: Graph) -> dict[int, int]:
    """For each perfect matching, count the cycles of its union with the
    (2i, 2i+1) pairing; returns cycle count -> number of matchings."""
    full = (1 << g.n) - 1
    dist: dict[int, int] = {}

    def rec(matched: int, black: list[int]) -> None:
        if matched == full:
            seen = 0
            cycles = 0
            for start in range(g.n):
                if (seen >> start) & 1:
                    continue
                cycles += 1
                v = start
                while True:
                    seen |= (1 << v) | (1 << (v ^ 1))
                    v = black[v ^ 1]
                    if v == start:
                        break
            dist[cycles] = dist.get(cycles, 0) + 1
            return
        free = (~matched) & full
        u = (free & -free).bit_length() - 1
        for w in g.neighbors(u):
            if not (matched >> w) & 1:
                black[u], black[w] = w, u
                rec(matched | (1 << u) | (1 << w), black)

    if g.n % 2 == 0 and g.n > 0:
        rec(0, [-1] * g.n)
    return dist


def test_accumulators_match_cycle_distribution():
    """acc[r] must equal r! times the number of matchings whose pairing
    overlay splits into exactly r cycles: validates the per-r decomposition,
    not just the final sum."""
    for seed in range(40):
        g = seeded_graph(seed + 2000, 10)
        if g.n % 2:
            continue
        acc = inex_accumulators(g)
        dist = overlay_cycle_distribution(g)
        for r in range(1, len(acc)):
            assert acc[r] == factorial(r) * dist.get(r, 0), (seed, r)


def test_accumulators_match_cycle_distribution_more_families():
    for g in cycle_distribution_cases():
        acc = inex_accumulators(g)
        dist = overlay_cycle_distribution(g)
        for r in range(1, len(acc)):
            assert acc[r] == factorial(r) * dist.get(r, 0), (g, r)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_relabeling_invariance(seed):
    """Permutations mapping pairs onto pairs leave the count unchanged."""
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    g = seeded_graph(seed, n, n_min=n)
    if g.n % 2:
        return
    pairs = list(range(g.n // 2))
    rng.shuffle(pairs)
    perm = {}
    for i, p in enumerate(pairs):
        flip = rng.random() < 0.5
        perm[2 * i] = 2 * p + (1 if flip else 0)
        perm[2 * i + 1] = 2 * p + (0 if flip else 1)
    relabeled = Graph.from_edges(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    assert count_pm_inex(relabeled) == count_pm_inex(g)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_arbitrary_relabeling_invariance(seed):
    """Any vertex permutation, including ones that break the (2i, 2i+1)
    pairing, leaves the count unchanged."""
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8, 10])
    g = seeded_graph(seed, n, n_min=n)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    want = count_pm_inex(g)
    assert count_pm_inex(relabeled) == want
    assert count_pm_dp(relabeled).count == count_pm_dp(g).count == want
