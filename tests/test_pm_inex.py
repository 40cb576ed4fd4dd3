"""Inclusion-exclusion matching counter: arc graph, walk table, walk-tuple
product, field width, counts."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdeg import (
    Graph,
    random_gnm,
    random_regular,
    count_pm_dp,
    count_pm_inex,
    oracle_count_pm,
)
from expdeg import pm_inex
from expdeg.pm_inex import (
    _inex_labels,
    build_arc_graph,
    count_anchored_walks,
    count_leaf_term,
    count_walk_tuples,
    field_width,
    inex_accumulators,
)
from conftest import (
    complete_graph,
    cycle_distribution_cases,
    cycle_graph,
    degree_field_width,
    eliminate_vertex,
    k33_graph,
    matching_graph,
    naive_anchored_walks,
    naive_inex_accumulators,
    petersen_graph,
    seeded_graph,
    unordered_total,
)

# --- arc graph construction -------------------------------------------------


def arcs_of(ag: tuple) -> list[tuple[int, int, int]]:
    """Every arc of build_arc_graph's heads tuple as (src, dst, label)."""
    return [(v, w, v // 2) for v, heads in enumerate(ag) for w in heads]


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


def brute_walk_count(ag: tuple, banned, a: int, length: int) -> int:
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
    assert naive_anchored_walks(ag, 0, 0b11) == [0, 1]
    # anchored at 1, vertex 0 is never visited
    assert naive_anchored_walks(ag, 1, 0b11) == [0, 1]


def test_walks_c4_length_two():
    ag = build_arc_graph(cycle_graph(4))
    walks = naive_anchored_walks(ag, 0, 0b1111)
    assert walks[2] == brute_walk_count(ag, frozenset(), 0, 2) == 1
    # banning label 1 removes the only length-2 walk 0 -> 2 -> 0
    assert naive_anchored_walks(ag, 0, allowed_mask(4, {1}))[2] == 0


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
                walks = naive_anchored_walks(ag, a, allowed)
                assert len(walks) == half + 1 and walks[0] == 0
                for j in range(1, half + 1):
                    assert walks[j] == brute_walk_count(ag, banned, a, j), (
                        seed,
                        sorted(banned),
                        a,
                        j,
                    )


# --- the walk table ----------------------------------------------------------------

WIDTH = 64  # wide enough for every coefficient the tuple tests below hold


def pack(coeffs: list[int], width: int = WIDTH) -> int:
    """Coefficient list -> packed series, one width-bit field per term."""
    return sum(c << width * j for j, c in enumerate(coeffs))


def unpack(packed: int, terms: int, width: int = WIDTH) -> list[int]:
    return [packed >> width * j & ((1 << width) - 1) for j in range(terms)]


def stuck(ag: tuple, v: int, banned) -> bool:
    """Whether v has no arc out to, or no arc in from, a vertex of a label
    outside banned: no closed walk avoiding banned can pass through it."""
    live = [
        (src, dst)
        for src, dst, _ in arcs_of(ag)
        if src // 2 not in banned and dst // 2 not in banned
    ]
    return all(src != v for src, _ in live) or all(dst != v for _, dst in live)


def dead_label(ag: tuple, label: int, banned) -> bool:
    """Whether both vertices of label are stuck."""
    return stuck(ag, 2 * label, banned) and stuck(ag, 2 * label + 1, banned)


def test_pair_vertices_are_stuck_together():
    """One vertex of a label is stuck exactly when the other is, on graphs
    with and without pair edges, whatever the banned set: so a counter may
    test either vertex, or one mask of each, for a dead label."""
    rng = random.Random(3)
    graphs = [even_seeded_graph(seed + 8000, 12) for seed in range(30)]
    graphs += [with_pair_edges(g, i) for i, g in enumerate(graphs)]
    for g in graphs:
        ag = build_arc_graph(g)
        for _ in range(8):
            banned = {k for k in range(g.n // 2) if rng.random() < 0.4}
            for label in set(range(g.n // 2)) - banned:
                a, b = 2 * label, 2 * label + 1
                assert stuck(ag, a, banned) == stuck(ag, b, banned), (g, banned, a)


def allowing_nodes(ag: tuple) -> list[tuple[int, int]]:
    """(anchor, allowed vertex mask) at each node that allows a label, in
    the order the enumeration reaches them: label half-1 first, and each
    label banned before it is allowed.  A node with a dead undecided label
    (see dead_label) is skipped with its subtree: the subsets with and
    without that label cancel."""

    def rec(label: int, banned: frozenset, allowed: int):
        if label < 0 or any(dead_label(ag, k, banned) for k in range(label + 1)):
            return
        yield from rec(label - 1, banned | {label}, allowed)
        allowed |= 3 << 2 * label
        yield 2 * label, allowed
        yield from rec(label - 1, banned, allowed)

    return list(rec(len(ag) // 2 - 1, frozenset(), 0))


def counted_arc_graph(g: Graph) -> tuple:
    """The arc graph inex_accumulators runs on: g's, under _inex_labels."""
    label = _inex_labels(g)
    return build_arc_graph(Graph(g.n, [(label[u], label[v], w) for u, v, w in g.edges]))


def with_pair_edges(g: Graph, seed: int) -> Graph:
    """g plus random edges (2p, 2p+1), which become arc self-loops."""
    rng = random.Random(seed)
    pairs = [(2 * p, 2 * p + 1) for p in range(g.n // 2) if rng.random() < 0.5]
    return Graph.from_edges(g.n, {(u, v) for u, v, _ in g.edges} | set(pairs))


def test_table_walks_match_naive_dp(monkeypatch):
    """On the arc graph the counter runs on, the folds run at exactly the
    allowing nodes that no dead label prunes, in order, and at each the
    closed walks the folded table yields equal a fresh walk DP at that
    anchor and allowed mask."""
    calls = []

    def recording(table, anchor, trunc):
        walks, folded = count_anchored_walks(table, anchor, trunc)
        calls.append((anchor, walks))
        return walks, folded

    monkeypatch.setattr(pm_inex, "count_anchored_walks", recording)
    graphs = [even_seeded_graph(seed + 7000, 12) for seed in range(40)]
    graphs += [with_pair_edges(g, i) for i, g in enumerate(graphs[:20])]
    graphs += [complete_graph(12), Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])]
    for g in graphs:
        calls.clear()
        inex_accumulators(g)
        ag = counted_arc_graph(g)
        half, width = g.n // 2, field_width(ag)
        nodes = allowing_nodes(ag)
        assert [anchor for anchor, _ in calls] == [anchor for anchor, _ in nodes]
        for (anchor, walks), (_, allowed) in zip(calls, nodes):
            assert walks >> width * (half + 1) == 0, (g, anchor)
            assert unpack(walks, half + 1, width) == naive_anchored_walks(
                ag, anchor, allowed
            ), (g, anchor, allowed)


@pytest.mark.parametrize("anchor", [0, 2, 4, 6, 8, 10, 12, 14])
def test_fused_fold_matches_two_reference_folds(anchor):
    """Folding anchor+1 and anchor in one pass gives W = T'[anchor][anchor]
    and the table of two single-vertex reference folds, on random packed
    tables with self-loops, all-zero rows and columns, and rows and columns
    past anchor+1 that must not be read; the input is left as it was."""
    rng = random.Random(anchor)
    half = 5
    trunc = (1 << WIDTH * (half + 1)) - 1  # counts stay far below 2^WIDTH

    def series(density: float) -> int:
        terms = [rng.randint(1, 3) if rng.random() < density else 0 for _ in range(half)]
        return pack([0] + terms)

    for case in range(40):
        size = anchor + 2 + rng.choice([0, 0, 1, 3])
        density = rng.choice([0.15, 0.5, 1.0])
        table = [[series(density) for _ in range(size)] for _ in range(size)]
        for v in (anchor, anchor + 1):
            # a self-loop at v, or none
            table[v][v] = series(1.0) if case % 2 else 0
        for line in rng.sample(range(anchor + 2), rng.randint(0, 2)):
            if rng.random() < 0.5:
                table[line] = [0] * size
            else:
                for row in table:
                    row[line] = 0
        before = [row[:] for row in table]
        walks, folded = count_anchored_walks(table, anchor, trunc)
        once = eliminate_vertex(table, anchor + 1, trunc)
        assert walks == once[anchor][anchor], (anchor, case)
        assert folded == eliminate_vertex(once, anchor, trunc), (anchor, case)
        assert table == before


def hub_graph(n: int) -> Graph:
    """Vertex 0 joined to every other vertex, which also form a cycle."""
    spokes = [(0, v) for v in range(1, n)]
    rim = [(v, v % (n - 1) + 1) for v in range(1, n)]
    return Graph.from_edges(n, set(spokes) | {(min(e), max(e)) for e in rim})


def capped_graph(n: int, m: int, cap: int, seed: int) -> Graph:
    """Up to m random edges, each taken only while both ends have degree
    below cap: irregular, with maximum degree cap."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) < m and degree[u] < cap and degree[v] < cap:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph.from_edges(n, edges)


def test_field_width_holds_every_coefficient(monkeypatch):
    """Rerun with fields three times as wide, where nothing can overflow,
    and check that every coefficient the counter holds stays below 2^F for
    the F that field_width gives on the arc graph the counter runs on: the
    walk tables in and out of each fold, the closed-walk series, the
    products, and the two leaf sums, each of which adds at most 2^(n/2)
    products or leaf terms prod * W_0."""
    graphs = [complete_graph(n) for n in (12, 14, 16)]
    graphs += [random_gnm(16, 100, 1), random_gnm(16, 110, 2), hub_graph(14)]
    graphs += [capped_graph(n, 2 * n, 5, seed) for n, seed in ((14, 1), (16, 2))]
    graphs += [with_pair_edges(g, i) for i, g in enumerate(graphs[5:])]
    for g in graphs:
        half, width = g.n // 2, field_width(counted_arc_graph(g))
        wide = 3 * width
        largest = {"walks": 0, "products": 0, "leaves": 0}

        def record(kind, series):
            field = max(unpack(series, half + 1, wide))
            largest[kind] = max(largest[kind], field)

        def walks_recorded(table, anchor, trunc):
            walks, folded = count_anchored_walks(table, anchor, trunc)
            for row in table + folded:
                for series in row:
                    record("walks", series)
            record("walks", walks)
            return walks, folded

        def tuples_recorded(prod, walks, trunc):
            out = count_walk_tuples(prod, walks, trunc)
            record("products", out)
            return out

        def leaves_recorded(prod, walks, trunc):
            out = count_leaf_term(prod, walks, trunc)
            record("leaves", out)
            return out

        with monkeypatch.context() as m:
            m.setattr(pm_inex, "field_width", lambda _: wide)
            m.setattr(pm_inex, "count_anchored_walks", walks_recorded)
            m.setattr(pm_inex, "count_walk_tuples", tuples_recorded)
            m.setattr(pm_inex, "count_leaf_term", leaves_recorded)
            acc = inex_accumulators(g)
        assert acc == inex_accumulators(g), g
        assert largest["walks"] < 1 << width, (g, largest, width)
        assert largest["products"] << half < 1 << width, (g, largest, width)
        assert largest["leaves"] << half < 1 << width, (g, largest, width)


def test_field_width_never_exceeds_the_degree_bound():
    """The walk-count width is never wider than the maximum-degree one."""
    graphs = [even_seeded_graph(seed + 9000, 16) for seed in range(60)]
    graphs += [complete_graph(n) for n in (12, 14, 16)]
    graphs += [hub_graph(n) for n in (10, 14, 16)]
    for g in graphs:
        assert field_width(build_arc_graph(g)) <= degree_field_width(g), g


def test_narrow_width_gives_a_wrong_count_unflagged(monkeypatch):
    """At F = 13 on K12 the fields overflow and the count is wrong, yet
    every signed sum below n/2 still vanishes: only the comparison with an
    oracle shows it, which is why field_width must be proved, not tuned."""
    g = complete_graph(12)
    assert field_width(build_arc_graph(g)) > 13
    monkeypatch.setattr(pm_inex, "field_width", lambda _: 13)
    assert count_pm_inex(g) != oracle_count_pm(g) == 10395


# --- anchor-ordered walk tuples ------------------------------------------------


def naive_truncated_product(prod: list[int], walks: list[int]) -> list[int]:
    """Reference: coefficients 0..len(prod)-1 of prod * (1 + sum_j walks[j] x^j)."""
    factor = [1] + list(walks[1:])
    return [
        sum(prod[i] * factor[k - i] for i in range(k + 1) if k - i < len(factor))
        for k in range(len(prod))
    ]


def tuples(prod: list[int], walks: list[int], width: int = WIDTH) -> list[int]:
    """count_walk_tuples on coefficient lists: walks[0] is left out of the
    packed series, since a walk series has no constant term, and nothing
    may be left past the truncation."""
    trunc = (1 << width * len(prod)) - 1
    out = count_walk_tuples(pack(prod, width), pack([0] + walks[1:], width), trunc)
    assert out >> width * len(prod) == 0
    return unpack(out, len(prod), width)


def test_tuples_empty():
    # no walks at the new anchor leaves prod as it is
    assert tuples([1, 5, 0, 2], [0, 0, 0, 0]) == [1, 5, 0, 2]
    assert tuples([1, 5, 0, 2], [0]) == [1, 5, 0, 2]
    assert tuples([], [0, 1]) == []


def test_tuples_anchor_ordered_pairs():
    # one anchor with two length-1 walks, then a second such anchor: the
    # 2 * 2 pairs of length 2 arise in one order only, not in 2! orders
    assert tuples([1, 0, 0], [0, 2, 0]) == [1, 2, 0]
    assert tuples([1, 2, 0], [0, 2, 0]) == [1, 4, 4]


def test_tuples_hand_recurrence():
    # (1 + x + 3x^2)^2 = 1 + 2x + 7x^2 + 6x^3, truncated to four terms
    assert tuples([1, 1, 3, 0], [0, 1, 3, 0]) == [1, 2, 7, 6]
    # terms past len(prod) are dropped, and short walk lists read as padded
    assert tuples([1, 1], [0, 1, 5]) == [1, 2]
    assert tuples([1, 0, 0, 0], [0, 3]) == [1, 3, 0, 0]
    # the constant term of prod is kept
    assert tuples([2, 0, 1], [0, 0, 1]) == [2, 0, 3]
    # the same product in fields of 3 bits, the fewest that hold 7: the
    # terms past the truncation overflow their fields, but carries only
    # move upward, so the mask drops them
    assert tuples([1, 1, 3, 0], [0, 1, 3, 0], width=3) == [1, 2, 7, 6]


def test_tuples_match_naive_product():
    rng = random.Random(5)
    for _ in range(300):
        size = rng.randint(0, 13)
        prod = [rng.choice([0, 0, 1, 2, rng.randint(0, 10**6)]) for _ in range(size)]
        walks = [rng.randint(0, 10**6)] + [
            rng.choice([0, 0, 1, 2, rng.randint(0, 10**6)])
            for _ in range(rng.randint(0, 14))
        ]
        want = naive_truncated_product(prod, walks)
        assert tuples(prod, walks) == want, (prod, walks)
        # and in the narrowest fields that hold every input and output term
        tight = max(prod + walks[1:] + want + [1]).bit_length()
        assert tuples(prod, walks, tight) == want, (prod, walks, tight)


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
    """Three independent counts agree on a second seed range: the
    inclusion-exclusion sum over walk tuples, the cover DP over alternating
    covers of the pair contraction, and the brute-force oracle."""
    matched = 0
    for seed in range(30):
        g = seeded_graph(seed + 300, 10)
        inex = count_pm_inex(g)
        assert inex == count_pm_dp(g).count == oracle_count_pm(g), seed
        matched += inex > 0
    assert matched >= 10


def folds_and_accumulators(monkeypatch, g: Graph) -> tuple[int, list[int]]:
    """inex_accumulators(g) and the number of folds it ran."""
    calls = []

    def counting(table, anchor, trunc):
        calls.append(anchor)
        return count_anchored_walks(table, anchor, trunc)

    with monkeypatch.context() as m:
        m.setattr(pm_inex, "count_anchored_walks", counting)
        acc = inex_accumulators(g)
    return len(calls), acc


def test_isolated_vertex_prunes_the_root(monkeypatch):
    """An isolated vertex has no arc in, and its partner no arc out, so its
    label is dead at the root: acc is all zero and no fold runs."""
    for g in (
        Graph.from_edges(2, []),
        Graph.from_edges(6, [(0, 1), (2, 3)]),
        Graph.from_edges(8, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
        Graph.from_edges(12, [(u, v, w) for u, v, w in petersen_graph().edges]),
    ):
        assert folds_and_accumulators(monkeypatch, g) == (0, [0] * (g.n // 2 + 1)), g
        assert count_pm_inex(g) == 0


def sparse_graphs() -> list[Graph]:
    """Graphs with few edges per vertex, some in several components, where
    labels die soonest once their neighbours' labels are banned."""
    rng = random.Random(11)
    graphs = []
    for n in range(4, 17, 2):
        for _ in range(10):
            m = rng.randint(n // 2, 3 * n // 2)
            graphs.append(random_gnm(n, m, rng.randrange(2**32)))
        # two components, of odd or of even order
        left = rng.randrange(2, n - 1, 2) + rng.randint(0, 1)
        edges = []
        for start, k in ((0, left), (left, n - left)):
            part = random_gnm(k, min(k * (k - 1) // 2, k + 1), rng.randrange(2**32))
            edges += [(u + start, v + start) for u, v, _ in part.edges]
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def test_dead_labels_leave_the_sums_exact(monkeypatch):
    """On sparse and disconnected graphs, where the rule prunes most, every
    signed sum is still exact, and fewer than the 2^(n/2) - 1 folds of the
    full enumeration run."""
    graphs = sparse_graphs()
    pruned = 0
    for g in graphs:
        half = g.n // 2
        folds, acc = folds_and_accumulators(monkeypatch, g)
        assert acc == [0] * half + [count_pm_dp(g).count], g
        if g.n <= 12:
            assert acc[half] == oracle_count_pm(g), g
        assert folds <= (1 << half) - 1
        pruned += folds < (1 << half) - 1
    assert pruned > len(graphs) // 2


def shuffled_graph(g: Graph, seed: int) -> Graph:
    """g under a seeded random vertex permutation."""
    perm = random.Random(seed).sample(range(g.n), g.n)
    return Graph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def test_inex_labels_cut_the_folds(monkeypatch):
    """On shuffled cubic n = 18 graphs the folds run at exactly the allowing
    nodes of the arc graph under _inex_labels, and they total at most 0.75x
    those of the arc graph on the input's own labels.  The total is pinned,
    so any change to the label rule shows here."""
    anchors = []

    def recording(table, anchor, trunc):
        anchors.append(anchor)
        return count_anchored_walks(table, anchor, trunc)

    monkeypatch.setattr(pm_inex, "count_anchored_walks", recording)
    folds = unlabelled = 0
    for seed in range(1, 11):
        g = shuffled_graph(random_regular(18, 3, seed), seed)
        anchors.clear()
        inex_accumulators(g)
        nodes = allowing_nodes(counted_arc_graph(g))
        assert anchors == [anchor for anchor, _ in nodes], seed
        folds += len(anchors)
        unlabelled += len(allowing_nodes(build_arc_graph(g)))
    assert folds <= 0.75 * unlabelled, (folds, unlabelled)
    assert (folds, unlabelled) == (2225, 3395)


def test_accumulators_divisible_and_nonnegative():
    for seed in range(25):
        g = seeded_graph(seed, 10)
        if g.n % 2:
            continue
        acc = naive_inex_accumulators(g)
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
        acc = naive_inex_accumulators(g)
        dist = overlay_cycle_distribution(g)
        for r in range(1, len(acc)):
            assert acc[r] == factorial(r) * dist.get(r, 0), (seed, r)


def test_accumulators_match_cycle_distribution_more_families():
    for g in cycle_distribution_cases():
        acc = naive_inex_accumulators(g)
        dist = overlay_cycle_distribution(g)
        for r in range(1, len(acc)):
            assert acc[r] == factorial(r) * dist.get(r, 0), (g, r)


def even_seeded_graph(seed: int, n_max: int) -> Graph:
    """seeded_graph with its last vertex dropped when the order is odd."""
    g = seeded_graph(seed, n_max)
    n = g.n - g.n % 2
    return Graph.from_edges(n, [(u, v) for u, v, _ in g.edges if v < n])


def test_canonical_inex_exact():
    """Every signed per-length sum below n/2 is zero, and the one at n/2 is
    the matching count of the ordered reference and of the oracle."""
    graphs = [even_seeded_graph(seed + 5000, 12) for seed in range(80)]
    for g in graphs + cycle_distribution_cases():
        half = g.n // 2
        acc = inex_accumulators(g)
        assert len(acc) == half + 1
        assert acc[:half] == [0] * half, g
        assert (
            acc[half]
            == count_pm_inex(g)
            == unordered_total(enumerate(naive_inex_accumulators(g)))
            == oracle_count_pm(g)
        ), g


def odd_components_graph(n: int, seed: int) -> Graph:
    """A gnm graph on 5 vertices beside one on the other n - 5, both odd:
    no perfect matching."""
    left = random_gnm(5, 7, seed)
    right = random_gnm(n - 5, round(1.75 * (n - 5)), seed)
    edges = [(u, v) for u, v, _ in left.edges]
    edges += [(u + 5, v + 5) for u, v, _ in right.edges]
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("n", [18, 20])
def test_inex_matches_cover_dp_at_benchmark_sizes(n):
    """The field width depends on the graph, so check the count against the
    cover DP at the sizes the benchmark solves, not only at n <= 16."""
    for seed in (1, 2):
        for g in (
            random_regular(n, 3, seed),
            random_gnm(n, round(1.75 * n), seed),
            odd_components_graph(n, seed),
        ):
            assert count_pm_inex(g) == count_pm_dp(g).count, (n, seed, g.edges)


def plus_one_at_x0(prod, walks, trunc):
    return count_walk_tuples(prod, walks, trunc) + 1


def without_the_one(prod, walks, trunc):
    # prod * W(x): the choice of no walk at the new anchor is missing
    return prod * walks & trunc


@pytest.mark.parametrize("wrong", [plus_one_at_x0, without_the_one])
def test_wrong_tuple_product_is_caught(monkeypatch, wrong):
    monkeypatch.setattr(pm_inex, "count_walk_tuples", wrong)
    with pytest.raises(AssertionError, match="signed per-length sums .* nonzero"):
        count_pm_inex(complete_graph(6))


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


@pytest.mark.parametrize("n", [20, 22, 24])
def test_relabelled_cubic_counts_agree_with_the_cover_dp(n):
    """Past the n <= 10 relabelling tests: under three random vertex
    permutations of a cubic graph, count_pm_inex equals count_pm_dp.  Neither
    solver is an oracle, so this checks that the two agree, and that
    neither's own label choice changes its count."""
    g = random_regular(n, 3, n)
    want = count_pm_dp(g).count
    assert want > 0
    for seed in range(3):
        relabelled = shuffled_graph(g, 100 * n + seed)
        assert count_pm_inex(relabelled) == count_pm_dp(relabelled).count == want, seed


def test_inex_labels_are_a_permutation():
    """_inex_labels maps the vertices onto range(n) one to one on edge
    cases: no vertex, one edge, an isolated vertex, a complete graph, and
    graphs with pair edges; on the path 0-1-2-3 the ends take the low
    labels and the middle vertices the high ones, last end's neighbour
    first."""
    cases = [Graph.from_edges(0, []), Graph.from_edges(2, [(0, 1)])]
    cases += [Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), complete_graph(8)]
    cases += [with_pair_edges(even_seeded_graph(seed + 600, 12), seed) for seed in range(10)]
    for g in cases:
        assert sorted(_inex_labels(g)) == list(range(g.n)), g
    assert _inex_labels(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == [0, 3, 2, 1]
