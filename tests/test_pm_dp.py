"""Contracted cycle-cover DP: construction, recurrences, sparse-state audit."""

import random
from itertools import combinations
from math import factorial

import pytest

from expdeg import (
    Graph,
    count_pm_dp,
    count_pm_inex,
    deg2_witness_multigraph,
    oracle_count_pm,
    random_gnm,
)
from expdeg.counting import unordered_total
from expdeg.pm_dp import LabeledMultigraph, build_contracted_graph, run_cover_dp
from conftest import (
    complete_graph,
    cycle_distribution_cases,
    cycle_graph,
    matching_graph,
    naive_cover_dp,
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
    assert run_cover_dp(build_contracted_graph(Graph.from_edges(2, [(0, 1)]))).count == 1
    assert run_cover_dp(build_contracted_graph(cycle_graph(4))).count == 2
    assert run_cover_dp(build_contracted_graph(complete_graph(4))).count == 3


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


# --- brute-force audit of the ordered reference tables --------------------------


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
        run = naive_cover_dp(mg)
        assert run.full_covers == brute_ordered_full_covers(mg), g


def test_full_cover_values_divisible():
    for seed in range(20):
        g = seeded_graph(seed, 12)
        if g.n % 2:
            continue
        run = naive_cover_dp(build_contracted_graph(g))
        for q, val in run.full_covers.items():
            assert val % factorial(q) == 0


def test_unordered_total_divides_and_checks():
    assert unordered_total([(0, 0), (1, 5), (2, 6), (3, 12)]) == 5 + 3 + 2
    for bad in ([(2, 3)], [(1, -1)], [(3, -6)]):
        with pytest.raises(AssertionError, match=f"r={bad[0][0]} is {bad[0][1]}"):
            unordered_total(bad)


# --- canonical state sets -------------------------------------------------------


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


def label_disjoint_covers(mg: LabeledMultigraph, x_mask: int):
    """Every label-disjoint cycle cover of the sub-multigraph on X, as a list
    of (p, q) edges, found by giving the lowest unused original vertex of X
    each edge inside X whose label holds it."""
    inside = [
        (p, q, x, y)
        for p, q, x, y in mg.edges
        if (x_mask >> p) & 1 and (x_mask >> q) & 1
    ]
    vertices = [v for p in range(mg.k) if (x_mask >> p) & 1 for v in (2 * p, 2 * p + 1)]

    def extend(used: set[int], chosen: list[tuple[int, int]]):
        free = [v for v in vertices if v not in used]
        if not free:
            yield list(chosen)
            return
        v = free[0]
        for p, q, x, y in inside:
            if v in (x, y) and x not in used and y not in used:
                chosen.append((p, q))
                yield from extend(used | {x, y}, chosen)
                chosen.pop()

    yield from extend(set(), [])


def brute_canonical_cover_keys(mg: LabeledMultigraph) -> set[int]:
    """The X for which the sub-multigraph on X has a label-disjoint cycle
    cover in which every cycle holds a node below the lowest node outside X
    (k when X is everything)."""
    keys = set()
    for x_mask in range(1 << mg.k):
        low = (~x_mask & (x_mask + 1)).bit_length() - 1
        for cover in label_disjoint_covers(mg, x_mask):
            parent = {p: p for p in range(mg.k) if (x_mask >> p) & 1}

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for p, q in cover:
                parent[find(p)] = find(q)
            cycles: dict[int, list[int]] = {}
            for p in parent:
                cycles.setdefault(find(p), []).append(p)
            if all(min(nodes) < low for nodes in cycles.values()):
                keys.add(x_mask)
                break
    return keys


def test_canonical_cover_states_exact():
    """The canonical DP counts what the ordered reference counts, divided
    out, and what the oracle counts; its path keys are reference path keys
    with the cycle count dropped; and, on small graphs, its cover keys are
    exactly the brute-force canonical sets."""
    saw_loop = saw_parallel = False
    brute_checked = 0
    # denser small graphs, some with pair-internal edges, so that the
    # brute-force key sets are large
    rng = random.Random(31)
    small = [complete_graph(n) for n in (4, 6, 8, 10)]
    for seed in range(10):
        n = rng.choice((8, 10))
        g = random_gnm(n, rng.randint(2 * n, 3 * n), seed + 900)
        pairs = [(2 * p, 2 * p + 1) for p in range(n // 2) if rng.random() < 0.5]
        small.append(Graph.from_edges(n, {(u, v) for u, v, _ in g.edges} | set(pairs)))
    for g in cover_dp_cases() + small:
        mg = build_contracted_graph(g)
        got = run_cover_dp(mg, keep_keys=True)
        want = naive_cover_dp(mg)
        assert (
            count_pm_dp(g).count
            == got.count
            == unordered_total(want.full_covers.items())
            == oracle_count_pm(g)
        ), g
        assert got.states_visited <= want.states_visited, g
        assert len(got.cover_keys) == len(set(got.cover_keys))
        assert len(got.path_keys) == len(set(got.path_keys))
        assert set(got.path_keys) <= {key[1:] for key in want.path_keys}, g
        if mg.k <= 5:
            links = [(p, q) for p, q, _, _ in mg.edges if p != q]
            saw_loop |= len(links) < len(mg.edges)
            saw_parallel |= len(set(links)) < len(links)
            assert set(got.cover_keys) == brute_canonical_cover_keys(mg), g
            brute_checked += 1
    assert saw_loop and saw_parallel and brute_checked >= 50


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
        for x_mask, a, b, _ in run.path_keys:
            interior = x_mask & ~(1 << a) & ~(1 << b)
            assert (
                deg2_witness_multigraph(mg.k, edge_list, a, b, interior) is not None
            ), (seed, bin(x_mask), a, b)
        for x_mask in run.cover_keys:
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
