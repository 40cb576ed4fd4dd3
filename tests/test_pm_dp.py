"""Contracted cycle-cover DP: construction, recurrences, sparse-state audit."""

import random
from itertools import combinations
from math import factorial

import pytest

from expdeg import (
    Graph,
    LabeledMultigraph,
    build_contracted_graph,
    count_label_disjoint_covers,
    count_pm_dp,
    count_pm_inex,
    deg2_witness_multigraph,
    oracle_count_pm,
    run_cover_dp,
)
from expdeg.counting import unordered_total
from expdeg.pm_dp import CoverDpRun
from conftest import (
    complete_graph,
    cycle_distribution_cases,
    cycle_graph,
    matching_graph,
    petersen_graph,
    seeded_graph,
)

# --- construction -----------------------------------------------------------


def test_contract_single_edge_to_loop():
    mg = build_contracted_graph(Graph.from_edges(2, [(0, 1)]))
    assert mg.k == 1
    assert mg.edges == ((0, 0, 0, 1),)


def test_contract_parallel_edges():
    mg = build_contracted_graph(Graph.from_edges(4, [(0, 2), (1, 3)]))
    assert mg.k == 2
    assert mg.edges == ((0, 1, 0, 2), (0, 1, 1, 3))


def test_contract_k4():
    mg = build_contracted_graph(complete_graph(4))
    loops = [e for e in mg.edges if e[0] == e[1]]
    links = [e for e in mg.edges if e[0] != e[1]]
    assert len(loops) == 2 and len(links) == 4
    # the four parallel edges realize all four label-end combinations
    assert sorted((x & 1, y & 1) for _, _, x, y in links) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_contract_rejects_odd():
    with pytest.raises(ValueError):
        build_contracted_graph(complete_graph(3))


def test_contract_average_degree_doubles():
    g = seeded_graph(3, 10)
    if g.n % 2:
        g = Graph.from_edges(g.n + 1, g.edges)
    mg = build_contracted_graph(g)
    if g.n:
        assert len(mg.edges) == g.m  # one contracted edge per input edge


# --- cover counting ----------------------------------------------------------


def test_covers_named():
    assert count_label_disjoint_covers(
        build_contracted_graph(Graph.from_edges(2, [(0, 1)]))
    ) == 1
    assert count_label_disjoint_covers(build_contracted_graph(cycle_graph(4))) == 2
    assert count_label_disjoint_covers(build_contracted_graph(complete_graph(4))) == 3


def test_count_pm_dp_named():
    assert count_pm_dp(complete_graph(2)).count == 1
    assert count_pm_dp(petersen_graph()).count == 6
    assert count_pm_dp(matching_graph(3)).count == 1
    assert count_pm_dp(complete_graph(5)).count == 0  # odd order
    assert count_pm_dp(Graph.from_edges(0, [])).count == 1


def test_agreement_seeded():
    for seed in range(80):
        g = seeded_graph(seed, 12)
        res = count_pm_dp(g)
        assert res.count == count_pm_inex(g) == oracle_count_pm(g), seed


# --- brute-force audit of the ordered-cover tables ----------------------------


def brute_ordered_full_covers(mg: LabeledMultigraph) -> dict[int, int]:
    """Enumerate label-disjoint cycle covers directly and group by cycle
    count; a cover with q cycles contributes q! ordered covers."""
    k = mg.k
    out: dict[int, int] = {}
    for chosen in combinations(range(len(mg.edges)), k):
        deg = [0] * k
        labels: set[int] = set()
        ok = True
        for idx in chosen:
            p, q, x, y = mg.edges[idx]
            if x in labels or y in labels:
                ok = False
                break
            labels.update((x, y))
            deg[p] += 2 if p == q else 1
            if p != q:
                deg[q] += 1
        if not ok or any(d != 2 for d in deg):
            continue
        # count cycles = connected components of the chosen sub-multigraph
        parent = list(range(k))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for idx in chosen:
            p, q, _, _ = mg.edges[idx]
            parent[find(p)] = find(q)
        comps = len({find(v) for v in range(k)})
        out[comps] = out.get(comps, 0) + factorial(comps)
    return out


def test_ordered_cover_tables_match_enumeration():
    cases = [complete_graph(4), cycle_graph(4), cycle_graph(6), matching_graph(3)]
    for seed in range(20):
        g = seeded_graph(seed + 60, 8)
        if g.n % 2 == 0 and g.n > 0:
            cases.append(g)
    for g in cases:
        mg = build_contracted_graph(g)
        run = run_cover_dp(mg)
        assert run.full_covers == brute_ordered_full_covers(mg), g


def test_full_cover_values_divisible():
    for seed in range(20):
        g = seeded_graph(seed, 12)
        if g.n % 2:
            continue
        run = run_cover_dp(build_contracted_graph(g))
        for q, val in run.full_covers.items():
            assert val % factorial(q) == 0


def test_unordered_total_divides_and_checks():
    assert unordered_total([(0, 0), (1, 5), (2, 6), (3, 12)]) == 5 + 3 + 2
    for bad in ([(2, 3)], [(1, -1)], [(3, -6)]):
        with pytest.raises(AssertionError, match=f"r={bad[0][0]} is {bad[0][1]}"):
            unordered_total(bad)


# --- reference scan ------------------------------------------------------------


def naive_cover_dp(mg: LabeledMultigraph) -> CoverDpRun:
    """Reference cover DP: seeds a path by scanning every free pair (a, b) and
    extends it by scanning every e > a, two label bits each, through an
    edge-multiplicity lookup."""
    k = mg.k
    full = (1 << k) - 1
    loops = [0] * k
    emult: dict[tuple[int, int, int, int], int] = {}
    for p, q, x, y in mg.edges:
        if p == q:
            loops[p] += 1
        else:
            key = (p, q, x & 1, y & 1)
            emult[key] = emult.get(key, 0) + 1

    def edge_count(p, bp, q, bq):
        if p < q:
            return emult.get((p, q, bp, bq), 0)
        return emult.get((q, p, bq, bp), 0)

    cover_strata = {(0, 0): {0: 1}}
    path_strata = {}
    full_covers = {}
    states = 0
    cover_keys = []
    path_keys = []
    for q in range(k + 1):
        for i in range(k + 1):
            cur = cover_strata.pop((q, i), None)
            if cur:
                states += len(cur)
                cover_keys.extend((q, x) for x in cur)
                if full in cur:
                    full_covers[q] = cur[full]
                for x_mask, val in cur.items():
                    free = [a for a in range(k) if not (x_mask >> a) & 1]
                    for a in free:
                        if loops[a]:
                            tgt = cover_strata.setdefault((q + 1, i + 1), {})
                            nk = x_mask | (1 << a)
                            tgt[nk] = tgt.get(nk, 0) + val * loops[a]
                    for ai, a in enumerate(free):
                        for b in free[ai + 1:]:
                            for xb in (0, 1):
                                mult = edge_count(a, 0, b, xb)
                                if mult:
                                    tgt = path_strata.setdefault((q, i + 2), {})
                                    pk = (x_mask | (1 << a) | (1 << b), a, b, xb)
                                    tgt[pk] = tgt.get(pk, 0) + val * mult
            cur = path_strata.pop((q, i), None)
            if cur:
                states += len(cur)
                path_keys.extend((q, x, a, b, xb) for (x, a, b, xb) in cur)
                for (x_mask, a, c, z), val in cur.items():
                    mult = edge_count(a, 1, c, z ^ 1)
                    if mult:
                        tgt = cover_strata.setdefault((q + 1, i), {})
                        tgt[x_mask] = tgt.get(x_mask, 0) + val * mult
                    for e in range(a + 1, k):
                        if (x_mask >> e) & 1:
                            continue
                        for xe in (0, 1):
                            mult = edge_count(c, z ^ 1, e, xe)
                            if mult:
                                tgt = path_strata.setdefault((q, i + 1), {})
                                pk = (x_mask | (1 << e), a, e, xe)
                                tgt[pk] = tgt.get(pk, 0) + val * mult
    return CoverDpRun(full_covers, states, tuple(cover_keys), tuple(path_keys))


def cover_dp_cases():
    """Pair-internal edges, disconnected and cubic n = 14/16 graphs, seeded
    graphs up to n = 16, and pairs joined by two to four edges (parallel
    contracted edges with every label-bit combination)."""
    cases = cycle_distribution_cases()
    for seed in range(30):
        g = seeded_graph(seed + 5000, 16)
        n = g.n - g.n % 2
        cases.append(Graph.from_edges(n, [(u, v) for u, v, _ in g.edges if v < n]))
    rng = random.Random(23)
    for n in (8, 12, 16):
        for _ in range(3):
            edges = set()
            for p, q in combinations(range(n // 2), 2):
                if rng.random() < 0.4:
                    links = [(2 * p + x, 2 * q + y) for x in (0, 1) for y in (0, 1)]
                    edges.update(rng.sample(links, rng.randint(2, 4)))
            cases.append(Graph.from_edges(n, edges))
    return cases


def test_cover_dp_matches_naive_scan():
    saw_loop = saw_parallel = False
    for g in cover_dp_cases():
        mg = build_contracted_graph(g)
        links = [(p, q) for p, q, _, _ in mg.edges if p != q]
        saw_loop |= len(links) < len(mg.edges)
        saw_parallel |= len(set(links)) < len(links)
        got = run_cover_dp(mg, keep_keys=True)
        want = naive_cover_dp(mg)
        assert got.full_covers == want.full_covers, g
        assert got.states_visited == want.states_visited, g
        assert len(got.cover_keys) == len(set(got.cover_keys))
        assert len(got.path_keys) == len(set(got.path_keys))
        assert set(got.cover_keys) == set(want.cover_keys), g
        assert set(got.path_keys) == set(want.path_keys), g
    assert saw_loop and saw_parallel


# --- sparse-state soundness ----------------------------------------------------


def test_nonzero_states_are_degree2_subsets():
    """Every stored path-table key has its interior inside a degree-2 subset
    for its endpoints; cover keys (when two nodes are free to act as
    terminals) are degree-2 subsets as well."""
    for seed in range(25):
        g = seeded_graph(seed + 200, 12)
        if g.n % 2 or g.n == 0:
            continue
        mg = build_contracted_graph(g)
        if mg.k < 2:
            continue
        run = run_cover_dp(mg, keep_keys=True)
        edge_list = [(p, q) for p, q, _, _ in mg.edges]
        for _, x_mask, a, b, _ in run.path_keys:
            interior = x_mask & ~(1 << a) & ~(1 << b)
            assert (
                deg2_witness_multigraph(mg.k, edge_list, a, b, interior) is not None
            ), (seed, bin(x_mask), a, b)
        for _, x_mask in run.cover_keys:
            free = [v for v in range(mg.k) if not (x_mask >> v) & 1]
            if len(free) < 2:
                continue  # no two distinct terminals available outside X
            s, t = free[0], free[1]
            assert deg2_witness_multigraph(mg.k, edge_list, s, t, x_mask) is not None


def test_states_visited_counts_nonzero_keys():
    g = cycle_graph(6)
    run = run_cover_dp(build_contracted_graph(g), keep_keys=True)
    assert run.states_visited == len(run.cover_keys) + len(run.path_keys)
    assert count_pm_dp(g).states_visited == run.states_visited
