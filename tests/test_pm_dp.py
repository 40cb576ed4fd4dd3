"""Contracted cycle-cover DP: construction, recurrences, sparse-state audit."""

import hashlib
import json
import random
from itertools import combinations
from math import factorial

import pytest

from expdeg import (
    Graph,
    count_pm_bipartite,
    count_pm_dp,
    count_pm_inex,
    deg2_witness,
    oracle_count_pm,
    random_bipartite_min2,
    random_gnm,
    random_regular,
    serialize_graph,
)
from expdeg import cli
from expdeg.bitset import bits, mask_of
from expdeg.pm_dp import (
    LabeledMultigraph,
    PmDpResult,
    _matching_labels,
    _strata,
    build_contracted_graph,
    run_cover_dp,
)
from conftest import (
    complete_graph,
    cycle_distribution_cases,
    cycle_graph,
    general_form,
    matching_graph,
    naive_cover_dp,
    petersen_graph,
    seeded_graph,
    unordered_total,
)

# --- construction -----------------------------------------------------------


def test_contract_single_edge_to_loop():
    mg = build_contracted_graph(2, [(0, 1)])
    assert mg.k == 1
    assert mg.edges == ((0, 0, 0, 1),)


def test_contract_parallel_edges():
    mg = build_contracted_graph(4, [(0, 2), (1, 3)])
    assert mg.k == 2
    assert mg.edges == ((0, 1, 0, 2), (0, 1, 1, 3))


def test_contract_k4():
    mg = build_contracted_graph(4, complete_graph(4).edges)
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
        build_contracted_graph(3, complete_graph(3).edges)


def test_contract_reads_any_edge_tuple():
    """An edge is read from its first two entries in either orientation:
    reversed pairs, (u, v) pairs and a Graph's (u, v, w) triples give the
    same contraction, and an odd vertex count is still refused."""
    for g in [complete_graph(4), cycle_graph(6), petersen_graph(), seeded_graph(7, 12)]:
        if g.n % 2:
            continue
        want = build_contracted_graph(g.n, g.edges)
        assert len(want.edges) == g.m
        assert build_contracted_graph(g.n, [(u, v) for u, v, _ in g.edges]) == want
        assert build_contracted_graph(g.n, [(v, u) for u, v, _ in g.edges]) == want
        assert build_contracted_graph(g.n, [(v, u, w) for u, v, w in reversed(g.edges)]) == want
    with pytest.raises(ValueError):
        build_contracted_graph(5, [(1, 0), (2, 4)])


def test_contract_average_degree_doubles():
    g = seeded_graph(3, 10)
    if g.n % 2:
        g = Graph.from_edges(g.n + 1, g.edges)
    mg = build_contracted_graph(g.n, g.edges)
    if g.n:
        assert len(mg.edges) == g.m  # one contracted edge per input edge


# --- cover counting ----------------------------------------------------------


def test_covers_named():
    assert run_cover_dp(build_contracted_graph(2, [(0, 1)])).count == 1
    assert run_cover_dp(build_contracted_graph(4, cycle_graph(4).edges)).count == 2
    assert run_cover_dp(build_contracted_graph(4, complete_graph(4).edges)).count == 3


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
        mg = build_contracted_graph(g.n, g.edges)
        run = naive_cover_dp(mg)
        assert run.full_covers == brute_ordered_full_covers(mg), g


def test_full_cover_values_divisible():
    for seed in range(20):
        g = seeded_graph(seed, 12)
        if g.n % 2:
            continue
        run = naive_cover_dp(build_contracted_graph(g.n, g.edges))
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


def brute_canonical_path_keys(mg: LabeledMultigraph, cover_keys: set[int]):
    """Every (X, a, b, x) the unpruned DP reaches: a canonical cover key Y
    below its lowest free node a, plus a simple path from a over free nodes
    to b, whose first label holds 2a and whose last holds 2b+x."""
    links: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p, q, x, y in mg.edges:
        if p != q:
            links.setdefault((p, x & 1), []).append((q, y & 1))
            links.setdefault((q, y & 1), []).append((p, x & 1))
    keys = set()

    def walk(x_mask, a, c, bit_in):
        for e, xe in links.get((c, bit_in ^ 1), []):
            if not (x_mask >> e) & 1:
                keys.add((x_mask | (1 << e), a, e, xe))
                walk(x_mask | (1 << e), a, e, xe)

    for y_mask in cover_keys:
        if y_mask != (1 << mg.k) - 1:
            a = (~y_mask & (y_mask + 1)).bit_length() - 1
            walk(y_mask | (1 << a), a, a, 1)  # the first label holds 2a
    return keys


def unmatched_vertices(k: int, key) -> set[int]:
    """The original vertices a cover key X or a path key (X, a, b, x) leaves
    unmatched: both vertices of every node outside X, plus 2a+1 and
    2b+(x^1) for a path."""
    x_mask, ends = (key, ()) if isinstance(key, int) else (key[0], key[1:])
    free = {v for v in range(2 * k) if not (x_mask >> (v // 2)) & 1}
    if ends:
        a, b, x = ends
        free |= {2 * a + 1, 2 * b + (x ^ 1)}
    return free


def neighbour_sets(g: Graph) -> dict[int, set[int]]:
    nb = {v: set() for v in range(g.n)}
    for u, v, _ in g.edges:
        nb[u].add(v)
        nb[v].add(u)
    return nb


def obeys_neighbour_rule(nb, unmatched: set[int]) -> bool:
    return all(nb[v] & unmatched for v in unmatched)


def perfectly_matchable(nb, unmatched: set[int]) -> bool:
    if not unmatched:
        return True
    v = min(unmatched)
    return any(
        perfectly_matchable(nb, unmatched - {v, w}) for w in nb[v] & unmatched
    )


def node_key(k: int, key):
    """The node-level form of a key _strata stores: a cover key M, the mask
    of the original vertices its labels consumed, is the covered node set X
    (the nodes whose two vertices are both in M); a path key (M, y) is
    (X, a, b, x), where a is the start node, whose 2a alone is in M, the
    open end y is 2b+x, and X holds every node with a vertex in M."""
    m, y = (key, None) if isinstance(key, int) else key
    x_mask = mask_of(p for p in range(k) if (m >> 2 * p) & 3)
    if y is None:
        return x_mask
    a = ((~m & (m + 1)).bit_length() - 1) >> 1
    return x_mask, a, y >> 1, y & 1


def strata_keys(mg):
    """Every cover key and every path key that _strata yields, in order, in
    node-level form; each stored mask consumed exactly the vertices the node
    key leaves matched."""
    cover_keys, path_keys = [], []
    for paths, covers in _strata(mg):
        for key in list(covers) + list(paths):
            x_key = node_key(mg.k, key)
            m = key if isinstance(key, int) else key[0]
            assert m == ((1 << 2 * mg.k) - 1) ^ mask_of(unmatched_vertices(mg.k, x_key))
            (cover_keys if isinstance(key, int) else path_keys).append(x_key)
    return cover_keys, path_keys


def small_dense_graphs():
    """Complete graphs and denser random graphs on up to 10 vertices, some
    with pair-internal edges, so that the brute-force key sets are large."""
    rng = random.Random(31)
    small = [complete_graph(n) for n in (4, 6, 8, 10)]
    for seed in range(10):
        n = rng.choice((8, 10))
        g = random_gnm(n, rng.randint(2 * n, 3 * n), seed + 900)
        pairs = [(2 * p, 2 * p + 1) for p in range(n // 2) if rng.random() < 0.5]
        small.append(Graph.from_edges(n, {(u, v) for u, v, _ in g.edges} | set(pairs)))
    return small


def test_canonical_cover_states_exact():
    """The canonical DP counts what the ordered reference counts, divided
    out, and what the oracle counts; its path keys are reference path keys
    with the cycle count dropped; and, on small graphs, its cover and path
    keys are exactly the brute-force canonical keys that pass the neighbour
    rule, and every brute-force key whose unmatched vertices have a perfect
    matching is kept."""
    saw_loop = saw_parallel = saw_dropped = False
    brute_checked = 0
    for g in cover_dp_cases() + small_dense_graphs():
        mg = build_contracted_graph(g.n, g.edges)
        got = run_cover_dp(mg)
        cover_keys, path_keys = strata_keys(mg)
        want = naive_cover_dp(mg)
        assert (
            count_pm_dp(g).count
            == got.count
            == unordered_total(want.full_covers.items())
            == oracle_count_pm(g)
        ), g
        assert got.states_visited <= want.states_visited, g
        assert got.states_visited == len(cover_keys) + len(path_keys), g
        assert len(cover_keys) == len(set(cover_keys))
        assert len(path_keys) == len(set(path_keys))
        assert set(path_keys) <= {key[1:] for key in want.path_keys}, g
        if mg.k <= 5:
            links = [(p, q) for p, q, _, _ in mg.edges if p != q]
            saw_loop |= len(links) < len(mg.edges)
            saw_parallel |= len(set(links)) < len(links)
            nb = neighbour_sets(g)
            brute_covers = brute_canonical_cover_keys(mg)
            for got_keys, brute_keys in (
                (cover_keys, brute_covers),
                (path_keys, brute_canonical_path_keys(mg, brute_covers)),
            ):
                unmatched = {key: unmatched_vertices(mg.k, key) for key in brute_keys}
                kept = {key for key in brute_keys if obeys_neighbour_rule(nb, unmatched[key])}
                assert set(got_keys) == kept, g
                assert all(
                    key in kept for key in brute_keys if perfectly_matchable(nb, unmatched[key])
                ), g
                saw_dropped |= kept != brute_keys
            brute_checked += 1
    assert saw_loop and saw_parallel and saw_dropped and brute_checked >= 50


def test_stored_keys_obey_neighbour_rule():
    """Every key _strata stores leaves each unmatched vertex a neighbour
    among the unmatched ones; the pinned cubic graph keeps its count, also
    under relabelling, and its pruned state count, both on its own labels
    and on the greedy matching's."""
    for g in cover_dp_cases() + small_dense_graphs():
        mg = build_contracted_graph(g.n, g.edges)
        nb = neighbour_sets(g)
        cover_keys, path_keys = strata_keys(mg)
        for key in cover_keys + path_keys:
            assert obeys_neighbour_rule(nb, unmatched_vertices(mg.k, key)), (g, key)
    g = random_regular(36, 3, 1)
    assert run_cover_dp(build_contracted_graph(g.n, g.edges)) == PmDpResult(445, 7907)
    assert count_pm_dp(g) == PmDpResult(445, 1609)
    perm = random.Random(36).sample(range(g.n), g.n)
    relabelled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v, _ in g.edges])
    assert count_pm_dp(relabelled).count == 445


def test_matching_labels_pair_a_maximal_matching():
    """On the cover DP's cases, dense small graphs and seeded cubic and gnm
    graphs up to n = 24: the label map is a permutation; its leading pairs
    are edges, the vertices after them are in index order and pairwise
    non-adjacent; the map is the same however the graph was built; and the
    count is the oracle's (pm_inex's past the oracle's cap)."""
    cases = cover_dp_cases() + small_dense_graphs()
    for seed in range(4):
        cases += [random_regular(n, 3, seed) for n in range(4, 25, 2)]
        cases += [random_gnm(n, 3 * n // 2, seed) for n in range(4, 25, 2)]
    for g in cases:
        label = _matching_labels(g)
        assert sorted(label) == list(range(g.n)), g
        inverse = sorted(range(g.n), key=label.__getitem__)
        matched = 0
        while 2 * matched + 1 < g.n and g.has_edge(*inverse[2 * matched : 2 * matched + 2]):
            matched += 1
        rest = inverse[2 * matched :]
        assert rest == sorted(rest), g
        assert not any(g.has_edge(u, v) for u, v in combinations(rest, 2)), g
        shuffled = list(g.edges)
        random.Random(g.n).shuffle(shuffled)
        assert _matching_labels(Graph(g.n, [(v, u, w) for u, v, w in shuffled])) == label
        want = oracle_count_pm(g) if g.n <= 20 else count_pm_inex(g)
        assert count_pm_dp(g).count == want, g


@pytest.mark.parametrize(
    "n, edges, label",
    [
        # path 0-2-1-3: 0 has the fewest neighbours, then 1 and 3 tie
        (4, [(0, 2), (2, 1), (1, 3)], [0, 2, 1, 3]),
        # star at 0: leaf 1 takes the centre, leaves 2 and 3 are left over
        (4, [(0, 1), (0, 2), (0, 3)], [1, 0, 2, 3]),
        # 5 is left over before 4 but is labelled after it
        (6, [(0, 1), (1, 5), (2, 3), (3, 4)], [0, 1, 2, 3, 4, 5]),
        # 0 takes 2, its neighbour with fewer live neighbours than 1
        (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)], [0, 2, 1, 3, 4, 5]),
    ],
)
def test_matching_labels_follow_the_greedy_rule(n, edges, label):
    assert _matching_labels(Graph.from_edges(n, edges)) == label


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(4, [(0, 1)]),
        Graph.from_edges(6, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    ],
)
def test_isolated_vertex_stores_nothing(g, tmp_path, capsys):
    """A vertex with no neighbour fails the rule at the root, so the DP
    stores no entry, in the library and through the CLI."""
    assert count_pm_dp(g) == PmDpResult(0, 0)
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    assert cli.main(["count-pm", "--algo", "dp", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == "0" and payload["states_visited"] == 0


# --- sparse-state soundness ----------------------------------------------------


def brute_multigraph_deg2_sets(n, edges, s, t):
    """Every X that some sub-multiset F of the edges makes a degree-2 subset
    for (s, t), a self-loop adding 2 to its vertex; exponential in m."""
    rest = [v for v in range(n) if v not in (s, t)]
    found = set()
    for chosen in range(1 << len(edges)):
        deg = [0] * n
        for i in bits(chosen):
            u, v = edges[i]
            deg[u] += 1
            deg[v] += 1
        if deg[s] <= 1 and deg[t] <= 1 and all(deg[v] in (0, 2) for v in rest):
            found.add(mask_of(v for v in rest if deg[v] == 2))
    return found


def test_multigraph_witness_matches_all_edge_subsets():
    """deg2_witness, which the next test relies on for contracted
    multigraphs, finds exactly the sets an enumeration of every edge subset
    finds, on random multigraphs with self-loops and parallel edges, and
    every witness it returns is a sub-multiset of the edges with the right
    degrees."""
    rng = random.Random(15)
    saw_loop = saw_parallel = found = missed = 0
    for _ in range(150):
        n = rng.randint(3, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
        edges += rng.sample(edges, min(len(edges), 2))  # parallel copies
        s, t = rng.sample(range(n), 2)
        want = brute_multigraph_deg2_sets(n, edges, s, t)
        rest = [v for v in range(n) if v not in (s, t)]
        for sub in range(1 << len(rest)):
            x_mask = mask_of(rest[i] for i in bits(sub))
            f = deg2_witness(n, edges, s, t, x_mask)
            assert (f is not None) == (x_mask in want), (n, edges, s, t, x_mask)
            if f is None:
                missed += 1
                continue
            found += 1
            pool = sorted((min(u, v), max(u, v)) for u, v in edges)
            deg = [0] * n
            for u, v in f:
                pool.remove((u, v))  # raises unless f is a sub-multiset
                deg[u] += 1
                deg[v] += 1
            assert all(deg[v] == 2 * ((x_mask >> v) & 1) for v in rest)
            assert deg[s] <= 1 and deg[t] <= 1
            saw_loop += any(u == v for u, v in f)
            saw_parallel += len(set(f)) < len(f)
    assert saw_loop >= 20 and saw_parallel >= 20 and found >= 300 and missed >= 300


def test_nonzero_states_are_degree2_subsets():
    """Every stored path-table key has its interior inside a degree-2 subset
    for its endpoints; cover keys (when two nodes are free to act as
    terminals) are degree-2 subsets as well."""
    for seed in range(25):
        g = seeded_graph(seed + 200, 12)
        if g.n % 2 or g.n == 0:
            continue
        mg = build_contracted_graph(g.n, g.edges)
        if mg.k < 2:
            continue
        cover_keys, path_keys = strata_keys(mg)
        for x_mask, a, b, _ in path_keys:
            interior = x_mask & ~(1 << a) & ~(1 << b)
            assert (
                deg2_witness(mg.k, mg.edges, a, b, interior) is not None
            ), (seed, bin(x_mask), a, b)
        for x_mask in cover_keys:
            free = [v for v in range(mg.k) if not (x_mask >> v) & 1]
            if len(free) < 2:
                continue  # no two distinct terminals available outside X
            s, t = free[0], free[1]
            assert deg2_witness(mg.k, mg.edges, s, t, x_mask) is not None


def test_states_visited_counts_nonzero_keys():
    g = cycle_graph(6)
    mg = build_contracted_graph(g.n, g.edges)
    cover_keys, path_keys = strata_keys(mg)
    run = run_cover_dp(mg)
    assert run.states_visited == len(cover_keys) + len(path_keys)
    assert count_pm_dp(g) == run
    for j, (paths, covers) in enumerate(_strata(mg)):
        assert all(m.bit_count() == 2 * j for m in covers)
        assert all(m.bit_count() == 2 * j for m, _ in paths)
    assert j == mg.k and covers == {(1 << 2 * mg.k) - 1: run.count}


def bench_scale_cover_graphs():
    """Graphs of even n = 24..32 for seeds 1-3: random_regular(n, 3) and, as
    irregular families of mean degree 3 and 3.5, random_gnm(n, 3n/2) and
    random_gnm(n, 7n/4), which often have no perfect matching."""
    for seed in (1, 2, 3):
        for n in range(24, 33, 2):
            yield random_regular(n, 3, seed)
            yield random_gnm(n, 3 * n // 2, seed)
            yield random_gnm(n, 7 * n // 4, seed)


STATES_AT_BENCH_SCALE = 9736
COVER_LAYERS_AT_BENCH_SCALE_SHA256 = (
    "e519d5b09e603b997d21c7c3a44a57930c88baa20b6dffd2fbf61dacc44668f3"
)


def test_cover_layers_at_bench_scale_are_pinned():
    """Every _strata layer's sorted path and cover entries, values included,
    on the graphs relabelled by _matching_labels as count_pm_dp relabels
    them, hash to the value the cover DP gave before its push was inlined:
    a faster DP must store the same keys with the same values in every
    layer."""
    layers = []
    for g in bench_scale_cover_graphs():
        label = _matching_labels(g)
        mg = build_contracted_graph(g.n, [(label[u], label[v]) for u, v, _ in g.edges])
        for paths, covers in _strata(mg):
            layers.append((sorted(paths.items()), sorted(covers.items())))
    assert sum(len(p) + len(c) for p, c in layers) == STATES_AT_BENCH_SCALE
    digest = hashlib.sha256(repr(layers).encode()).hexdigest()
    assert digest == COVER_LAYERS_AT_BENCH_SCALE_SHA256


@pytest.mark.parametrize(
    "n, edges, count",
    [(n, [(v, (v + 1) % n) for v in range(n)], 2) for n in (66, 70, 80)]
    + [
        (
            70,
            [(2 * i, 2 * i + 1) for i in range(35)]
            + [(2 * i + s, 2 * i + 2 + s) for i in range(34) for s in (0, 1)],
            14_930_352,
        )
    ],
    ids=["C66", "C70", "C80", "ladder70"],
)
def test_cover_dp_past_32_nodes(n, edges, count):
    """Contractions of more than 32 nodes, built without a Graph so that n
    may pass its vertex cap, count exactly: a cycle has 2 perfect matchings
    and the ladder P_35 x K2, paired along its rungs, has Fib(36)."""
    assert run_cover_dp(build_contracted_graph(n, edges)).count == count


# --- differential checks past the oracle caps -------------------------------


@pytest.mark.parametrize("k", [20, 22, 24])
def test_a_bipartite_graph_counts_as_a_general_graph(k):
    """count_pm_bipartite against count_pm_dp, two different algorithms and
    neither an oracle (oracle_count_pm stops at n = 20): the bipartite graph
    with A-vertex i as i and B-vertex j as k + j has the same perfect
    matchings."""
    for m in (3 * k, 7 * k // 2):
        for seed in (1, 2):
            b = random_bipartite_min2(k, m, seed)
            want = count_pm_bipartite(b).count
            assert want > 0 and count_pm_dp(general_form(b)).count == want, (k, m, seed)


@pytest.mark.parametrize("n", [32, 40, 48])
def test_a_relabelled_graph_keeps_its_matching_count(n):
    """count_pm_dp against itself on a random vertex permutation, which
    changes its greedy pairing and the entries it stores, so the two runs
    are close to independent; neither is an oracle (oracle_count_pm stops at
    n = 20, and count_pm_inex is out of reach at these n)."""
    rng = random.Random(n)
    for seed in (1, 2):
        g = random_regular(n, 3, seed)
        perm = rng.sample(range(n), n)
        moved = Graph(n, [(perm[u], perm[v], w) for u, v, w in g.edges])
        base, other = count_pm_dp(g), count_pm_dp(moved)
        assert base.count > 0 and other.count == base.count, (n, seed)
        assert other.states_visited != base.states_visited, (n, seed)
