"""Hamiltonian path/cycle solvers: examples, baselines, state accounting."""

import hashlib
import random
from itertools import islice, permutations

import pytest

from expdeg import (
    CapacityError,
    Graph,
    ham_path,
    held_karp_cycle,
    oracle_tsp,
    random_gnm,
    random_regular,
    tsp_cycle,
)
from expdeg import tsp
from expdeg.tsp import (
    _is_biconnected,
    _path_layers,
    _reconstruct,
    anchor_vertex,
)
from conftest import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    path_dp_states,
    path_graph,
    petersen_graph,
    plus_z,
    seeded_graph,
    seeded_weighted_graph,
    state_keys,
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
    for solve in (tsp_cycle, held_karp_cycle, oracle_tsp):
        with pytest.raises(ValueError, match="three vertices"):
            solve(complete_graph(2))


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


def test_held_karp_order_is_the_smallest_reversed_tail():
    """Held-Karp walks back by cost, and its order is the optimal cycle from
    0 whose reversed tail (last vertex first) is lexicographically smallest,
    checked against every permutation on tie-heavy graphs with n <= 8."""
    tours = 0
    for seed in range(400):
        g = tie_heavy_graph(seed + 8100, n_max=8)
        weight = {(u, v): w for u, v, w in g.edges}
        weight.update({(v, u): w for (u, v), w in weight.items()})
        best = None
        for tail in permutations(range(1, g.n)):
            order = (0, *tail)
            steps = list(zip(order, order[1:] + (0,)))
            if all(step in weight for step in steps):
                key = (sum(weight[step] for step in steps), tail[::-1])
                best = key if best is None or key < best else best
        res = held_karp_cycle(g)
        if best is None:
            assert res is None, seed
        else:
            assert (res.weight, res.order) == (best[0], (0, *best[1][::-1])), seed
            tours += 1
    assert tours > 100


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
            refused += not _is_biconnected(plus_z(g, a, b))
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


def completion_kept_layers(
    g: Graph, a: int, last: int | None = None, anchor_rule: bool = True
) -> list[set]:
    """Layer by layer up to layer `last` (default n), every (visited set,
    endpoint) pair one step from a kept pair of the layer before that passes
    the completion test, scanned in full: each vertex r outside the set has
    at least two neighbours in the free set, which is the unvisited vertices
    plus the endpoint plus a.  The start pair is tested too.  With
    `anchor_rule`, every later pair must also be all of V or leave some
    neighbour of a outside its set."""

    last = g.n if last is None else last
    full = (1 << g.n) - 1
    nbrs = [g.neighbors(r) for r in range(g.n)]
    checks = [(1 << r, sum(1 << x for x in nbrs[r])) for r in range(g.n)]
    ring = checks[a][1]

    def passes(mask: int, v: int) -> bool:
        free = (full ^ mask) | (1 << v) | (1 << a)
        for bit, nbr_mask in checks:
            if not mask & bit and (nbr_mask & free).bit_count() < 2:
                return False
        return True

    def anchor_ok(mask: int) -> bool:
        return not anchor_rule or mask == full or mask & ring != ring

    layers = [{(1 << a, a)} if passes(1 << a, a) else set()]
    for _ in range(1, last):
        layers.append({
            (mask | (1 << v), v)
            for mask, u in layers[-1]
            for v in nbrs[u]
            if not (mask >> v) & 1
            and anchor_ok(mask | (1 << v))
            and passes(mask | (1 << v), v)
        })
    return layers


def layer_sets(layers) -> list[set]:
    return [set(state_keys([lay])) for lay in layers]


def test_states_equal_path_reachable_pairs():
    """The full DP keeps exactly the pairs a full-scan layered search
    reaches through pairs that pass the completion test and the anchor rule,
    from vertex 0 of g and from z on every g + z with z joined to 0 and b;
    they are pairs simple paths from the source realize.  The anchor rule
    drops states the completion test alone keeps."""
    kept = dropped = 0
    for seed in range(20):
        g = seeded_weighted_graph(seed + 900, n_max=9, n_min=2)
        cases = [(g, 0)] + [(plus_z(g, 0, b), g.n) for b in range(1, g.n)]
        for h, a in cases:
            states = path_dp_states(h, a)
            assert len(states) == len(set(states))
            want = completion_kept_layers(h, a)
            assert layer_sets(_path_layers(h, a)) == want, (seed, h)
            assert set(states) <= enumerate_path_states(h, a)
            assert len(states) <= h.n * 2 ** (h.n - 1)
            kept += bool(states)
            unruled = completion_kept_layers(h, a, anchor_rule=False)
            assert set().union(*want) <= set().union(*unruled)
            dropped += sum(map(len, unruled)) - len(states)
    assert kept > 20 and dropped > 0


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
    with strict improvement, every layer run and every layer's costs kept,
    and no completion test: every reachable state is stored.  Test-only
    reference for costs, ties, orders and the half-way joins."""

    def __init__(self, g: Graph, a: int):
        self.g = g
        layer = {(1 << a) << 6 | a: 0}
        self.layers = [layer]
        self.parents = [{(1 << a) << 6 | a: -1}]
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


def read_from(order: tuple[int, ...], a: int) -> tuple[int, ...]:
    """A cycle order of g + z starting at z, with z dropped, read from a."""
    path = order[1:]
    return path if path[0] == a else path[::-1]


def as_tuple(res):
    return None if res is None else (res.weight, res.order, res.states_visited)


def test_path_dp_matches_sorted_key_reference():
    """On every anchor of g and on g + z for every pair a, b, ties included:
    every layer of the DP, full or bounded, holds exactly the pairs of the
    full-scan search run to the same last layer; the full DP on g + z from z
    holds the unpruned reference's cheapest Hamiltonian a-b path of g, cost
    and kept path; ham_path and tsp_cycle give the full reference's weight,
    the order of the stated tie rule applied to the reference's own tables
    on g (on g + z from z), and the state count of the search's bounded
    layers."""
    for seed in range(40):
        g = tie_heavy_graph(seed + 7000, n_max=11, n_min=4)
        n = g.n
        full = (1 << n) - 1
        h_cycle, h_z = (n + 3) // 2, (n + 4) // 2
        refs = [SortedKeyPathDP(g, a) for a in range(n)]
        for a in range(n):
            want = completion_kept_layers(g, a)
            layers = list(_path_layers(g, a))
            assert layer_sets(layers) == want, (seed, a)
            assert len(state_keys(layers)) == sum(map(len, want)), (seed, a)
            assert set(path_dp_states(g, a)) == set().union(*want), (seed, a)
            for last in {h_cycle, n + 2 - h_cycle, n + 1 - h_cycle}:
                bounded = list(islice(_path_layers(g, a), last))
                keys = state_keys(bounded)
                assert len(keys) == len(set(keys)) == sum(map(len, want[:last]))
                assert layer_sets(bounded) == want[:last], (seed, a, last)
        for a in range(n):
            for b in range(a + 1, n):
                gz = plus_z(g, a, b)
                want = completion_kept_layers(gz, n)
                layers = list(_path_layers(gz, n))
                assert layer_sets(layers) == want, (seed, a, b)
                bounded = list(islice(_path_layers(gz, n), h_z))
                assert layer_sets(bounded) == want[:h_z], (seed, a, b)
                zref = SortedKeyPathDP(gz, n)
                joined = reference_join(zref, h_z, zref, n + 3 - h_z, 1 << n)
                for x, y in ((a, b), (b, a)):
                    found = refs[x].path(y)
                    res = ham_path(g, x, y)
                    if found is None:
                        assert layers[-1][y] is None or full | 1 << n not in layers[-1][y]
                        assert joined is None and res is None, (seed, x, y)
                        continue
                    assert layers[-1][y][full | 1 << n] == found[0], (seed, x, y)
                    assert _reconstruct(gz, layers, y, full | 1 << n) == (n, *found[1])
                    weight, first, second = joined
                    assert weight == found[0], (seed, x, y)
                    order = first + second[-2:0:-1]
                    want_res = (weight, read_from(order, x), len(state_keys(bounded)))
                    assert as_tuple(res) == want_res, (seed, x, y)
                    assert (res.order[0], res.order[-1]) == (x, y)
                    assert tour_weight(g, res.order, cycle=False) == res.weight
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
            states = sum(map(len, completion_kept_layers(g, a, h_cycle)))
            assert as_tuple(got) == (weight, order, states), seed
            assert tour_weight(g, got.order, cycle=True) == got.weight


def test_every_stored_state_reconstructs_as_the_reference():
    """With no parent tables, reconstruct walks back by the smallest
    neighbour whose cost plus the arc weight gives the state's cost: from
    every kept state of every layer, from every anchor of g and from z on
    g + z for every pair a, b, it rebuilds the path the unpruned
    reference's parent table keeps (smallest cheapest parent), the state's
    cost is the reference's, and that path covers the state's mask, ends at
    its endpoint and weighs the stored cost.  The g + z sweep runs on the
    graphs with n <= 9 only, which keeps the run short."""
    for seed in range(40):
        g = tie_heavy_graph(seed + 7000, n_max=11, n_min=4)
        cases = [(g, a) for a in range(g.n)]
        if g.n <= 9:
            cases += [
                (plus_z(g, a, b), g.n) for a in range(g.n) for b in range(a + 1, g.n)
            ]
        for h, a in cases:
            ref = SortedKeyPathDP(h, a)
            layers = list(_path_layers(h, a))
            for i, layer in enumerate(layers):
                for v, costs in enumerate(layer):
                    for mask, cost in (costs or {}).items():
                        order = _reconstruct(h, layers, v, mask)
                        assert order == ref.trace(mask, v), (seed, h, a, mask, v)
                        assert ref.layers[i][mask << 6 | v] == cost
                        assert len(order) == i + 1 and order[0] == a
                        assert sum(1 << x for x in set(order)) == mask
                        steps = zip(order, order[1:])
                        assert sum(h.weight(u, x) for u, x in steps) == cost


def hamiltonian_paths(g: Graph, a: int):
    """Every Hamiltonian path of g that starts at a, as a vertex order."""
    stack = [(a,)]
    while stack:
        order = stack.pop()
        if len(order) == g.n:
            yield order
            continue
        stack.extend(order + (v,) for v in g.neighbors(order[-1]) if v not in order)


def test_every_state_on_a_tour_is_kept():
    """The completion test and the anchor rule never drop a state a tour
    passes through: every prefix of every Hamiltonian cycle through a,
    either way round, is kept by the cycle DP from a, and every prefix of
    z followed by every Hamiltonian a-b path by the DP on g + z from z (the
    b..a direction is the same check from b)."""
    graphs = [tie_heavy_graph(seed + 7000, n_max=8, n_min=3) for seed in range(40)]
    graphs += [complete_graph(6), cycle_graph(7), petersen_graph()]
    cycles = paths = 0
    for g in graphs:
        for a in range(g.n):
            cycle_states = set(path_dp_states(g, a))
            path_states = {}
            for order in hamiltonian_paths(g, a):
                b = order[-1]
                if b not in path_states:
                    path_states[b] = set(path_dp_states(plus_z(g, a, b), g.n))
                prefixes = set()
                mask = 0
                for v in order:
                    mask |= 1 << v
                    prefixes.add((mask, v))
                z = 1 << g.n
                through_z = {(z, g.n)} | {(mask | z, v) for mask, v in prefixes}
                assert through_z <= path_states[b], (g, order)
                paths += 1
                if g.has_edge(b, a):
                    assert prefixes <= cycle_states, (g, order)
                    cycles += 1
    assert cycles > 1000 and paths > 10000


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


def test_solvers_build_only_the_layers_the_join_reads(monkeypatch):
    """tsp_cycle pulls the first (n+3)//2 = ceil((n+2)/2) layers of the path
    DP and no more, at odd and even n, with or without a tour; ham_path pulls
    (n+4)//2, the cycle's count on g + z."""
    pulled = []
    real_layers = tsp._path_layers

    def spy(g, a):
        pulled.append(0)
        for layer in real_layers(g, a):
            pulled[-1] += 1
            yield layer

    monkeypatch.setattr(tsp, "_path_layers", spy)
    cubic = random_regular(24, 3, 1)
    graphs = [cubic, reweighted(complete_graph(7), 7), cycle_graph(9), petersen_graph()]
    for g in graphs:
        pulled.clear()
        tsp_cycle(g)
        assert pulled == [(g.n + 3) // 2], g
        for a, b in ((0, 5), (g.n - 1, 1)):
            pulled.clear()
            ham_path(g, a, b)
            assert pulled == [(g.n + 4) // 2], (g, a, b)
    pulled.clear()
    assert tsp_cycle(cubic).weight == 24 and ham_path(cubic, 0, 5).weight == 23
    assert pulled == [13, 14]


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
    assert _is_biconnected(plus_z(k23, 0, 1)) and brute_ham_path(k23, 0, 1) is None
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


def bare_path_graph() -> Graph:
    # P_6 plus z is 2-connected for the ends 0, 5 only
    return path_graph(6, [1, 2, 3, 4, 5])


@pytest.mark.parametrize(
    "make", [pendant_graph, bridged_cubic_graph, bowtie_graph, bare_path_graph]
)
def test_tsp_cycle_refuses_before_the_dp(make, monkeypatch):
    """No DP runs for a cycle on g, nor for a path query whose g + z is not
    2-connected, and tsp_cycle picks no anchor."""
    g = make()
    assert oracle_tsp(g) is None
    refused = [
        (a, b)
        for a in range(g.n)
        for b in range(g.n)
        if a != b and not naive_biconnected(plus_z(g, a, b))
    ]
    assert refused

    def no_work(*args):
        raise AssertionError("solver work ran on a graph that is not 2-connected")

    monkeypatch.setattr(tsp, "anchor_vertex", no_work)
    monkeypatch.setattr(tsp, "_path_layers", no_work)
    assert tsp_cycle(g) is None
    assert held_karp_cycle(g) is None
    for a, b in refused:
        assert ham_path(g, a, b) is None, (a, b)


def test_ham_path_on_64_vertices_is_refused():
    """g + z needs one vertex more than g, so a path query on 64 vertices
    is over the vertex capacity, whatever the graph."""
    ring = Graph.from_edges(64, [(i, (i + 1) % 64) for i in range(64)])
    for g in (ring, Graph(64, ())):
        with pytest.raises(CapacityError, match="capacity is 64"):
            ham_path(g, 0, 1)
    assert ham_path(Graph.from_edges(63, [(i, i + 1) for i in range(62)]), 0, 62).weight == 62


def test_ham_path_weight_is_held_karp_on_g_plus_z():
    """Beyond the brute force's reach (n = 12-16), a path query weighs what
    the dense table finds for the cycle on g + z."""
    sizes = [12] * 40 + [13] * 25 + [14] * 20 + [15] * 10 + [16] * 5
    feasible = 0
    for i, n in enumerate(sizes):
        rng = random.Random(13000 + i)
        g = random_gnm(n, rng.randint(2 * n, 3 * n), rng.randrange(2**32))
        g = Graph(n, [(u, v, rng.randint(0, 12)) for u, v, _ in g.edges])
        a, b = rng.sample(range(n), 2)
        res = ham_path(g, a, b)
        dense = held_karp_cycle(plus_z(g, a, b))
        assert (None if res is None else res.weight) == (
            None if dense is None else dense.weight
        ), (i, a, b)
        if res is not None:
            assert (res.order[0], res.order[-1]) == (a, b)
            assert sorted(res.order) == list(range(n))
            assert tour_weight(g, res.order, cycle=False) == res.weight
            feasible += 1
    assert feasible > 80


def test_weights_past_the_float_range_stay_exact():
    """Weights 10**400 + r, r in 0..99, do not fit a float, and a float sum
    would lose r: the sparse DP, the dense table and the oracle agree
    exactly, on the cycle and on three path queries per graph."""
    def weight(res):
        return None if res is None else res.weight

    big = 10**400
    feasible = 0
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        g = random_regular(10, 3, seed)
        g = Graph(10, [(u, v, big + rng.randrange(100)) for u, v, _ in g.edges])
        best = oracle_tsp(g)
        assert weight(tsp_cycle(g)) == weight(held_karp_cycle(g)) == best, seed
        if best is not None:
            assert tour_weight(g, tsp_cycle(g).order, cycle=True) == best
            assert tour_weight(g, held_karp_cycle(g).order, cycle=True) == best
            feasible += 1
        for a, b in ((0, 9), (2, 5), (7, 3)):
            res = ham_path(g, a, b)
            assert weight(res) == weight(held_karp_cycle(plus_z(g, a, b))), (seed, a, b)
            if res is not None:
                assert tour_weight(g, res.order, cycle=False) == res.weight
                feasible += 1
    assert feasible > 6


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
        # from n = 3 on, g + z is 2-connected exactly when g + ab is
        a, b = 0, g.n - 1
        gz = plus_z(g, a, b)
        plus = g if g.has_edge(a, b) else Graph(g.n, [*g.edges, (a, b, 1)])
        assert _is_biconnected(gz) == naive_biconnected(gz) == naive_biconnected(plus), g


# --- pinned outputs at bench scale -------------------------------------------


def bench_scale_tour_graphs():
    """Weighted (1..100) graphs of n = 20..26 for seeds 1-3: random_gnm(n,
    3n/2), which at these seeds is never 2-connected, so it pins the early
    None; random_regular(n, 3) at even n; and, as an irregular family with
    tours, random_gnm(n, n/2) plus a Hamiltonian cycle in a seeded order."""
    for seed in (1, 2, 3):
        for n in range(20, 27):
            rng = random.Random(seed * 100 + n)
            graphs = [random_gnm(n, 3 * n // 2, seed)]
            if n % 2 == 0:
                graphs.append(random_regular(n, 3, seed))
            ring = rng.sample(range(n), n)
            edges = {(u, v) for u, v, _ in random_gnm(n, n // 2, seed).edges}
            edges |= {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}
            graphs.append(Graph.from_edges(n, sorted(edges)))
            for g in graphs:
                yield Graph(g.n, [(u, v, rng.randint(1, 100)) for u, v, _ in g.edges])


FOUND_AT_BENCH_SCALE = 71
STATES_AT_BENCH_SCALE = 29199
TOURS_AT_BENCH_SCALE_SHA256 = (
    "b987c0a2abcaa9d9e6c4b5be73fdf4f8bf774cd89a897fd8f4ff84d0ecd93641"
)


def test_tour_outputs_at_bench_scale_are_pinned():
    """(weight, order, states_visited) of tsp_cycle, and of ham_path for the
    endpoint pairs (0, 5) and (n-1, 1), hash to the value the tour DP gave
    before its arc table was built once per call: a faster DP must keep
    every weight, order and stored-state count."""
    out = []
    for g in bench_scale_tour_graphs():
        for res in (tsp_cycle(g), ham_path(g, 0, 5), ham_path(g, g.n - 1, 1)):
            out.append(as_tuple(res))
    found = [res for res in out if res is not None]
    assert len(out) == 162 and len(found) == FOUND_AT_BENCH_SCALE
    assert sum(res[2] for res in found) == STATES_AT_BENCH_SCALE
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == TOURS_AT_BENCH_SCALE_SHA256


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


# --- differential checks past the oracle caps -------------------------------


def weighted_cubic(n: int, seed: int) -> Graph:
    """random_regular(n, 3, seed) with seeded weights 1..100."""
    return reweighted(random_regular(n, 3, seed), seed * 1000 + n, w_max=100)


@pytest.mark.parametrize("n", [24, 30, 36])
def test_cycle_is_the_best_path_plus_its_closing_edge(n):
    """tsp_cycle against ham_path, two runs of the same tour DP and neither
    an oracle (oracle_tsp stops at n = 10, Held-Karp at 22): a cheapest
    cycle through the anchor a is a cheapest a-b path, for some neighbour
    b of a, closed by the edge (a, b)."""
    for seed in (1, 2):
        g = weighted_cubic(n, seed)
        a = anchor_vertex(g)
        cycle = tsp_cycle(g)
        paths = [(ham_path(g, a, b), b) for b in g.neighbors(a)]
        closed = [res.weight + g.weight(a, b) for res, b in paths if res is not None]
        assert cycle is not None and closed, (n, seed)
        assert cycle.weight == min(closed), (n, seed)
        assert tour_weight(g, cycle.order, cycle=True) == cycle.weight


def test_every_anchor_gives_the_same_weight():
    """The tour DP from each of the n anchors, and tsp_cycle on a random
    relabelling, against one another: runs of one DP from different
    starting points, none of them an oracle (n = 24 is past oracle_tsp and
    Held-Karp), so they must agree on the cheapest tour's weight."""
    rng = random.Random(24)
    for seed in (1, 2):
        g = weighted_cubic(24, seed)
        want = tsp_cycle(g).weight
        for a in range(g.n):
            res = tsp._cycle(g, a)
            assert res.order[0] == a and res.weight == want, (seed, a)
            assert tour_weight(g, res.order, cycle=True) == want
        perm = rng.sample(range(g.n), g.n)
        moved = Graph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
        assert tsp_cycle(moved).weight == want, seed
