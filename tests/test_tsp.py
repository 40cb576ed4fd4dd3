"""Hamiltonian path/cycle solvers: examples, baselines, state accounting."""

import random
from itertools import permutations

import pytest

from expdeg import (
    CapacityError,
    Graph,
    ham_path,
    held_karp_cycle,
    oracle_tsp,
    path_dp_states,
    tsp_cycle,
)
from expdeg import tsp
from expdeg.tsp import _is_biconnected, _PathDP, anchor_vertex
from conftest import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    seeded_graph,
    seeded_weighted_graph,
    star_graph,
    tour_weight,
)


def weighted_c4():
    return Graph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])


def k4_spiked():
    # cheap chain 0-1-2-3, expensive everything else
    return Graph.from_edges(
        4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 10), (0, 3, 10), (1, 3, 10)]
    )


# --- ham_path --------------------------------------------------------------


def test_ham_path_k3():
    res = ham_path(complete_graph(3), 0, 2)
    assert res.weight == 2
    assert res.order == (0, 1, 2)


def test_ham_path_absent():
    assert ham_path(path_graph(3, [3, 4]), 0, 1) is None


def test_ham_path_k4_spiked():
    res = ham_path(k4_spiked(), 0, 3)
    assert res.weight == 6
    assert res.order == (0, 1, 2, 3)


def test_ham_path_argument_errors():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        ham_path(g, 0, 0)
    with pytest.raises(ValueError):
        ham_path(g, 0, 5)


def test_ham_path_two_vertices():
    assert ham_path(Graph.from_edges(2, [(0, 1, 9)]), 0, 1).weight == 9
    assert ham_path(Graph.from_edges(2, []), 0, 1) is None


# --- tsp_cycle -------------------------------------------------------------


def test_tsp_cycle_weighted_c4():
    res = tsp_cycle(weighted_c4())
    assert res.weight == 10
    assert tour_weight(weighted_c4(), res.order, cycle=True) == 10


def test_tsp_cycle_k4_unit():
    assert tsp_cycle(complete_graph(4)).weight == 4


def test_tsp_cycle_bowtie_absent():
    assert tsp_cycle(bowtie_graph()) is None


def test_tsp_cycle_star_absent():
    assert tsp_cycle(star_graph(3)) is None


def test_tsp_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        tsp_cycle(complete_graph(2))


# --- held_karp baseline ----------------------------------------------------


def test_held_karp_matches_examples():
    for g in (weighted_c4(), complete_graph(4), bowtie_graph()):
        trimmed = tsp_cycle(g)
        dense = held_karp_cycle(g)
        if trimmed is None:
            assert dense is None
        else:
            assert dense.weight == trimmed.weight


def test_held_karp_c5():
    assert held_karp_cycle(cycle_graph(5)).weight == 5


def test_held_karp_capacity():
    with pytest.raises(CapacityError):
        held_karp_cycle(Graph.from_edges(25, [(i, i + 1) for i in range(24)]))


# --- agreement and state properties ----------------------------------------


def test_solver_agreement_seeded():
    refused = 0
    for seed in range(60):
        g = seeded_weighted_graph(seed, n_max=10, n_min=3)
        refused += not _is_biconnected(g)
        trimmed = tsp_cycle(g)
        dense = held_karp_cycle(g)
        brute = oracle_tsp(g)
        tw = None if trimmed is None else trimmed.weight
        dw = None if dense is None else dense.weight
        assert tw == dw == brute, (seed, tw, dw, brute)
        if trimmed is not None:
            assert tour_weight(g, trimmed.order, cycle=True) == trimmed.weight
            assert tour_weight(g, dense.order, cycle=True) == dense.weight
    # the mix holds graphs refused by the 2-connectivity check and others
    assert 0 < refused < 60


def brute_ham_path(g: Graph, a: int, b: int) -> int | None:
    """Cheapest Hamiltonian a-b path weight by trying every order."""
    best = None
    middle = [v for v in range(g.n) if v not in (a, b)]
    for perm in permutations(middle):
        order = (a, *perm, b)
        total = 0
        for u, v in zip(order, order[1:]):
            if not g.has_edge(u, v):
                break
            total += g.weight(u, v)
        else:
            best = total if best is None else min(best, total)
    return best


def test_ham_path_against_permutation_brute_force():
    refused = 0
    for seed in range(25):
        g = seeded_weighted_graph(seed + 500, n_max=7, n_min=2)
        for a, b in ((0, g.n - 1), (g.n // 2, g.n - 1)):
            if a == b:
                continue
            refused += not _is_biconnected(g, (a, b))
            best = brute_ham_path(g, a, b)
            res = ham_path(g, a, b)
            got = None if res is None else res.weight
            assert got == best, (seed, a, b, got, best)
    assert 0 < refused < 25


def enumerate_path_states(g: Graph, a: int) -> set[tuple[int, int]]:
    """All (visited set, endpoint) pairs realizable by simple paths from a."""
    found = set()

    def walk(mask: int, v: int):
        state = (mask, v)
        if state in found:
            return
        found.add(state)
        for u in g.neighbors(v):
            if not (mask >> u) & 1:
                walk(mask | (1 << u), u)

    walk(1 << a, a)
    return found


def test_states_equal_path_reachable_pairs():
    for seed in range(20):
        g = seeded_weighted_graph(seed + 900, n_max=9, n_min=2)
        states = path_dp_states(g, 0)
        assert len(states) == len(set(states))
        assert set(states) == enumerate_path_states(g, 0)
        assert len(states) <= g.n * 2 ** (g.n - 1)


def test_deterministic_reconstruction():
    g = complete_graph(6)  # all tours tie at weight 6
    first = tsp_cycle(g)
    for _ in range(3):
        again = tsp_cycle(g)
        assert again.order == first.order
        assert again.weight == first.weight


# --- differential check against the sorted-key reference DP ----------------


class SortedKeyPathDP:
    """The layered path DP as it was before per-endpoint layers: one dict
    per layer keyed on mask << 6 | endpoint, relaxed in ascending key order
    with strict improvement, every layer run and every layer's costs kept.
    Test-only reference for ties, orders and the half-way joins."""

    def __init__(self, g: Graph, a: int):
        self.g = g
        layer = {(1 << a) << 6 | a: 0}
        self.layers = [layer]
        self.parents = [{(1 << a) << 6 | a: -1}]
        self.states_visited = 1
        for _ in range(g.n - 1):
            nxt, nxt_parent = {}, {}
            for key in sorted(layer):
                cost = layer[key]
                mask, u = key >> 6, key & 63
                for v, w in g.adjacency[u]:
                    if (mask >> v) & 1:
                        continue
                    nk = (mask | (1 << v)) << 6 | v
                    cand = cost + w
                    if nk not in nxt or cand < nxt[nk]:
                        nxt[nk] = cand
                        nxt_parent[nk] = u
            layer = nxt
            self.layers.append(nxt)
            self.parents.append(nxt_parent)
            self.states_visited += len(nxt)
        self.final_layer = layer

    def trace(self, mask: int, b: int) -> tuple[int, ...]:
        order, v = [b], b
        for i in range(bin(mask).count("1") - 1, 0, -1):
            u = self.parents[i][mask << 6 | v]
            mask ^= 1 << v
            order.append(u)
            v = u
        return tuple(reversed(order))

    def path(self, b: int) -> tuple[int, tuple[int, ...]] | None:
        full = (1 << self.g.n) - 1
        if full << 6 | b not in self.final_layer:
            return None
        return self.final_layer[full << 6 | b], self.trace(full, b)

    def cycle(self, a: int) -> tuple[int, tuple[int, ...]] | None:
        best = None
        for b, w in self.g.adjacency[a]:
            found = self.path(b)
            if found is not None and (best is None or found[0] + w < best[0]):
                best = (found[0] + w, found[1])
        return best

    def state_set(self, last: int | None = None) -> set[tuple[int, int]]:
        """States of the first `last` layers (default: all)."""
        return {(k >> 6, k & 63) for lay in self.parents[:last] for k in lay}

    def state_count(self, last: int) -> int:
        return sum(map(len, self.parents[:last]))


def reference_join(left, h_left, right, h_right, keep):
    """The stated tie rule on the reference's own tables: of every state
    (S, v) in left's layer h_left whose partner ((V - S) | keep | {v}, v) is
    in right's layer h_right, the minimum (weight, v, S); returned as
    (weight, left's path over S, right's path over the partner)."""
    full = (1 << left.g.n) - 1
    joins = []
    for key, cost in left.layers[h_left - 1].items():
        mask, v = key >> 6, key & 63
        rest = (full ^ mask) | keep | (1 << v)
        other = right.layers[h_right - 1].get(rest << 6 | v)
        if other is not None:
            joins.append((cost + other, v, mask, rest))
    if not joins:
        return None
    weight, v, mask, rest = min(joins)
    return weight, left.trace(mask, v), right.trace(rest, v)


def tie_heavy_graph(seed: int, n_max: int, n_min: int = 3) -> Graph:
    """Seeded random graph with weights in {1, 2}, so optimal tours tie."""
    rng = random.Random(seed)
    g = seeded_graph(seed, n_max, n_min)
    return Graph.from_edges(g.n, [(u, v, rng.randint(1, 2)) for u, v, _ in g.edges])


def as_tuple(res):
    return None if res is None else (res.weight, res.order, res.states_visited)


def test_path_dp_matches_sorted_key_reference():
    """Per-endpoint layers give the reference's costs, parents, orders and
    state counts on every anchor, ties included; the bounded DPs hold exactly
    the reference's first layers; ham_path and tsp_cycle give the full
    reference's weight, and the order and state count of the stated tie rule
    applied to the reference's own tables."""
    for seed in range(40):
        g = tie_heavy_graph(seed + 7000, n_max=11, n_min=4)
        n = g.n
        h_path, h_cycle = (n + 2) // 2, (n + 3) // 2
        refs = [SortedKeyPathDP(g, a) for a in range(n)]
        for a in range(n):
            ref = refs[a]
            dp = _PathDP(g, a)
            assert dp.states_visited == ref.states_visited, (seed, a)
            assert set(path_dp_states(g, a)) == ref.state_set(), (seed, a)
            for last in {h_path, n + 1 - h_path, h_cycle}:
                bounded = _PathDP(g, a, last)
                keys = bounded.all_state_keys()
                assert len(keys) == len(set(keys)) == bounded.states_visited
                assert set(keys) == ref.state_set(last), (seed, a, last)
            for b in range(n):
                if b == a:
                    continue
                found = ref.path(b)
                assert dp.full_cost(b) == (None if found is None else found[0]), (seed, a, b)
                res = ham_path(g, a, b)
                if found is not None:
                    assert dp.reconstruct(b) == found[1], (seed, a, b)
                    weight, first, second = reference_join(
                        ref, h_path, refs[b], n + 1 - h_path, 0
                    )
                    assert weight == found[0], (seed, a, b)
                    assert (res.weight, res.order) == (weight, first + second[-2::-1])
                    assert res.states_visited == (
                        ref.state_count(h_path) + refs[b].state_count(n + 1 - h_path)
                    ), (seed, a, b)
                    assert tour_weight(g, res.order, cycle=False) == res.weight
                else:
                    assert res is None, (seed, a, b)
        a = anchor_vertex(g)
        ref = refs[a]
        expected = ref.cycle(a)
        got = tsp_cycle(g)
        if expected is None:
            assert got is None, seed
        else:
            weight, first, second = reference_join(ref, h_cycle, ref, n + 2 - h_cycle, 1 << a)
            assert weight == expected[0], seed
            order = first + second[-2:0:-1]
            assert as_tuple(got) == (weight, order, ref.state_count(h_cycle)), seed
            assert tour_weight(g, got.order, cycle=True) == got.weight


def test_every_stored_state_reconstructs_as_the_reference():
    """With no parent tables, reconstruct walks back by the smallest
    neighbour whose cost plus the arc weight gives the state's cost: from
    every stored state of every layer it rebuilds the path the reference's
    parent table keeps (smallest cheapest parent), and that path covers the
    state's mask, ends at its endpoint and weighs the stored cost."""
    for seed in range(40):
        g = tie_heavy_graph(seed + 7000, n_max=11, n_min=4)
        for a in range(g.n):
            ref = SortedKeyPathDP(g, a)
            dp = _PathDP(g, a)
            for i, layer in enumerate(dp.layers):
                for v, costs in enumerate(layer):
                    for mask, cost in costs.items():
                        order = dp.reconstruct(v, mask)
                        assert order == ref.trace(mask, v), (seed, a, mask, v)
                        assert ref.layers[i][mask << 6 | v] == cost
                        assert len(order) == i + 1 and order[0] == a
                        assert sum(1 << x for x in set(order)) == mask
                        steps = zip(order, order[1:])
                        assert sum(g.weight(u, x) for u, x in steps) == cost


# --- the half-way join: edge cases ----------------------------------------


def reweighted(g: Graph, seed: int, w_max: int = 4) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(g.n, [(u, v, rng.randint(1, w_max)) for u, v, _ in g.edges])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_tsp_cycle_join_at_odd_and_even_n(n):
    """At odd n the second half sits one layer below the first, at even n in
    the same layer; n = 3 joins a full layer with single edges."""
    cases = [reweighted(complete_graph(n), n), reweighted(cycle_graph(n), n)]
    cases += [seeded_weighted_graph(seed, n_max=n, n_min=n, w_max=4)
              for seed in range(100 * n, 100 * n + 30)]
    tours = 0
    for g in cases:
        res = tsp_cycle(g)
        dense = held_karp_cycle(g)
        got = None if res is None else res.weight
        assert got == (None if dense is None else dense.weight) == oracle_tsp(g), g
        if res is not None:
            assert res.order[0] == anchor_vertex(g)
            assert tour_weight(g, res.order, cycle=True) == res.weight
            tours += 1
    assert tours > 2


def test_ham_path_every_pair_against_brute_force():
    graphs = [Graph.from_edges(2, [(0, 1, 5)]), Graph.from_edges(2, []),
              path_graph(3, [2, 3]), reweighted(complete_graph(3), 3)]
    graphs += [seeded_weighted_graph(seed + 600, n_max=7, n_min=2, w_max=4)
               for seed in range(40)]
    assert {g.n for g in graphs} == set(range(2, 8))
    paths = 0
    for g in graphs:
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                res = ham_path(g, a, b)
                assert (None if res is None else res.weight) == brute_ham_path(g, a, b)
                if res is not None:
                    assert (res.order[0], res.order[-1]) == (a, b)
                    assert tour_weight(g, res.order, cycle=False) == res.weight
                    paths += 1
    assert paths > 100


def test_join_when_the_source_sees_every_vertex():
    """In K_n the anchor is adjacent to every vertex; in a wheel the hub is,
    as the source of an a-b path or as its far end."""
    for n in (4, 5, 6, 7):
        g = reweighted(complete_graph(n), 40 + n)
        assert g.degree(anchor_vertex(g)) == n - 1
        res = tsp_cycle(g)
        assert res.weight == held_karp_cycle(g).weight == oracle_tsp(g)
        assert tour_weight(g, res.order, cycle=True) == res.weight
        rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
        wheel = reweighted(Graph.from_edges(n, [(0, i) for i in range(1, n)] + rim), n)
        for b in range(1, n):
            for a, z in ((0, b), (b, 0)):
                res = ham_path(wheel, a, z)
                assert res.weight == brute_ham_path(wheel, a, z)
                assert tour_weight(wheel, res.order, cycle=False) == res.weight


def test_join_finds_nothing_on_2_connected_non_hamiltonian_graphs(monkeypatch):
    """The 2-connectivity check passes, the DPs run, and the join is empty."""
    joins = []
    real_join = tsp._join

    def spy(*args):
        joins.append(real_join(*args))
        return joins[-1]

    monkeypatch.setattr(tsp, "_join", spy)
    k23 = Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert oracle_tsp(k23) is None and held_karp_cycle(petersen_graph()) is None
    for g in (petersen_graph(), k23):
        assert _is_biconnected(g)
        assert tsp_cycle(g) is None
    assert _is_biconnected(k23, (0, 1)) and brute_ham_path(k23, 0, 1) is None
    assert ham_path(k23, 0, 1) is None
    assert joins == [None, None, None]


# --- the 2-connectivity check ----------------------------------------------


def pendant_graph() -> Graph:
    # a 5-cycle with an extra vertex hanging off vertex 0
    return Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])


def bridged_cubic_graph() -> Graph:
    # two K4s with one edge subdivided each, the subdivision vertices joined
    # by a bridge; every vertex has degree 3
    half = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
    edges = half + [(u + 5, v + 5) for u, v in half] + [(4, 9)]
    return Graph.from_edges(10, edges)


def naive_biconnected(g: Graph) -> bool:
    """Connected, and still connected after deleting any one vertex."""

    def connected(removed: int) -> bool:
        keep = [v for v in range(g.n) if v != removed]
        if not keep:
            return True
        seen, stack = {keep[0]}, [keep[0]]
        while stack:
            for v in g.neighbors(stack.pop()):
                if v != removed and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(keep)

    return connected(-1) and all(connected(v) for v in range(g.n))


@pytest.mark.parametrize("make", [pendant_graph, bridged_cubic_graph, bowtie_graph])
def test_tsp_cycle_refuses_before_the_dp(make, monkeypatch):
    g = make()
    assert oracle_tsp(g) is None

    def no_dp(*args):
        raise AssertionError("the path DP ran on a graph that is not 2-connected")

    monkeypatch.setattr(tsp, "_PathDP", no_dp)
    assert tsp_cycle(g) is None
    assert held_karp_cycle(g) is None


def test_ham_path_on_a_bare_path_graph():
    # P_n is not 2-connected, but P_n plus the edge between its ends is
    for n in (2, 3, 6, 9):
        g = path_graph(n, list(range(1, n)))
        res = ham_path(g, 0, n - 1)
        assert res.order == tuple(range(n))
        assert res.weight == n * (n - 1) // 2
        assert ham_path(g, n - 1, 0).order == tuple(reversed(range(n)))
        if n > 2:
            assert ham_path(g, 0, 1) is None


def test_is_biconnected_matches_vertex_deletion():
    cases = [pendant_graph(), bridged_cubic_graph(), bowtie_graph(), path_graph(5),
             cycle_graph(5), complete_graph(4), star_graph(3)]
    cases += [seeded_graph(seed + 8000, 9, n_min=3) for seed in range(150)]
    assert any(_is_biconnected(g) for g in cases)
    assert any(not _is_biconnected(g) for g in cases)
    for g in cases:
        assert _is_biconnected(g) == naive_biconnected(g), g
        a, b = 0, g.n - 1
        if not g.has_edge(a, b):
            plus = Graph.from_edges(g.n, [*g.edges, (a, b, 1)])
            assert _is_biconnected(g, (a, b)) == naive_biconnected(plus), g
        else:
            assert _is_biconnected(g, (a, b)) == _is_biconnected(g)


# --- metamorphic: relabelling ----------------------------------------------


def test_relabelling_keeps_tour_weights():
    rng = random.Random(17)
    checked = 0
    for seed in range(60):
        g = seeded_weighted_graph(seed + 9500, n_max=10, n_min=3)
        perm = rng.sample(range(g.n), g.n)
        inv = {p: v for v, p in enumerate(perm)}
        h = Graph.from_edges(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
        base, moved = tsp_cycle(g), tsp_cycle(h)
        assert (base is None) == (moved is None), seed
        if moved is not None:
            assert moved.weight == base.weight, seed
            back = tuple(inv[v] for v in moved.order)
            assert tour_weight(g, back, cycle=True) == moved.weight
            checked += 1
        a, b = 0, g.n - 1
        base, moved = ham_path(g, a, b), ham_path(h, perm[a], perm[b])
        assert (base is None) == (moved is None), seed
        if moved is not None:
            assert moved.weight == base.weight, seed
            back = tuple(inv[v] for v in moved.order)
            assert (back[0], back[-1]) == (a, b)
            assert tour_weight(g, back, cycle=False) == moved.weight
            checked += 1
    assert checked > 20
