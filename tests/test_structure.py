"""Structural toolkit: disjoint sets, gap thresholds, degree-2 subsets."""

import math
from fractions import Fraction

import pytest
import sympy

from expdeg import (
    CapacityError,
    Graph,
    deg2_witness,
    deg2_witness_multigraph,
    degree_profile,
    enumerate_deg2_sets,
    find_disjoint_set,
    find_gap_threshold,
    path_dp_states,
    random_gnm,
    random_regular,
)
from expdeg.bitset import bits, mask_of
from expdeg.structure import exp_at_most
from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    seeded_graph,
    star_graph,
)


def sympy_exp_floor(alpha: Fraction) -> int:
    return int(sympy.floor(sympy.E ** sympy.Rational(alpha.numerator, alpha.denominator)))


def check_witness(g, s, t, x_mask, f_edges):
    """Independent re-check of the three degree constraints."""
    deg = [0] * g.n
    for u, v in f_edges:
        assert g.has_edge(u, v)
        deg[u] += 1
        deg[v] += 1
    for v in range(g.n):
        if (x_mask >> v) & 1:
            assert deg[v] == 2
        elif v in (s, t):
            assert deg[v] <= 1
        else:
            assert deg[v] == 0


# --- certified exponential comparison -------------------------------------


@pytest.mark.parametrize(
    "alpha", [Fraction(1), Fraction(1, 2), Fraction(2), Fraction("3.55"), Fraction(7, 3)]
)
def test_exp_at_most_matches_sympy(alpha):
    floor = sympy_exp_floor(alpha)
    for value in range(1, floor + 3):
        assert exp_at_most(value, alpha) == (value <= floor)


# --- disjoint closed neighborhoods ----------------------------------------


def test_disjoint_set_c4():
    mask = find_disjoint_set(cycle_graph(4), 2, 2)
    assert mask == 0b0001  # greedy picks vertex 0, marks everything
    assert mask.bit_count() >= math.ceil(Fraction(4, 18))


def test_disjoint_set_edgeless():
    mask = find_disjoint_set(empty_graph(5), 1, 1)
    assert mask == 0b11111


def test_disjoint_set_star():
    # center 0 has degree 4 > 2d; lowest eligible vertex is leaf 1
    mask = find_disjoint_set(star_graph(4), Fraction(8, 5), 4)
    assert mask == 0b00010
    assert mask.bit_count() >= 1


def test_disjoint_set_float_d_reads_decimal():
    """A float d is read as its decimal string; as the nearest binary
    fraction, 3.3 fell just below the average degree 33/10 and was refused."""
    g = random_gnm(20, 33, 1)
    assert degree_profile(g).avg == Fraction(33, 10)
    assert find_disjoint_set(g, 3.3, 6) == find_disjoint_set(g, Fraction("3.3"), 6)


def test_disjoint_set_rejects_bad_preconditions():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        find_disjoint_set(g, 1, 3)  # avg degree 3 > d
    with pytest.raises(ValueError):
        find_disjoint_set(g, 3, 2)  # max degree 3 > D
    with pytest.raises(ValueError):
        find_disjoint_set(empty_graph(3), Fraction(1, 2), 1)  # d < 1


def test_disjoint_set_postconditions_seeded():
    for seed in range(80):
        g = seeded_graph(seed, 12, n_min=1)
        prof = degree_profile(g)
        d = max(prof.avg, Fraction(1))
        cap = max(prof.max_degree, 1)
        mask = find_disjoint_set(g, d, cap)
        members = list(bits(mask))
        assert len(members) >= math.ceil(Fraction(g.n, 2 + 4 * d * cap))
        closed = []
        for x in members:
            assert g.degree(x) <= 2 * d
            closed.append(set(g.neighbors(x)) | {x})
        for i in range(len(closed)):
            for j in range(i + 1, len(closed)):
                assert not (closed[i] & closed[j])


# --- gap threshold ---------------------------------------------------------


def test_gap_threshold_star5():
    res = find_gap_threshold(star_graph(5), Fraction(1))
    assert res.d_threshold == 1
    assert res.count_above == 1
    assert res.bound == 10  # n*d/(alpha*D) = 6*(5/3)/1


def test_gap_threshold_edgeless():
    res = find_gap_threshold(empty_graph(4), Fraction(1))
    assert res.d_threshold == 1
    assert res.count_above == 0


def test_gap_threshold_k4():
    res = find_gap_threshold(complete_graph(4), Fraction(2))
    assert res.d_threshold == 1
    assert res.count_above == 4
    assert res.bound == 6


def test_gap_threshold_is_smallest_valid():
    for seed in range(40):
        g = seeded_graph(seed, 12, n_min=1)
        for alpha in (Fraction(1), Fraction(2), Fraction("3.55")):
            res = find_gap_threshold(g, alpha)
            prof = degree_profile(g)
            nd = 2 * g.m
            assert res.d_threshold <= sympy_exp_floor(alpha)
            assert res.count_above == prof.count_above(res.d_threshold)
            assert res.count_above <= res.bound
            for smaller in range(1, res.d_threshold):
                assert prof.count_above(smaller) > Fraction(nd, alpha * smaller)


def test_gap_threshold_float_alpha_reads_decimal():
    """A float alpha gives the answer of its decimal string; read as the
    nearest binary fraction, 3.55 made the exact e**alpha check drag a
    50-bit denominator along and not return."""
    g = random_regular(20, 3, 1)
    res = find_gap_threshold(g, 3.55)
    assert res == find_gap_threshold(g, Fraction("3.55"))
    assert (res.d_threshold, res.bound) == (3, Fraction(400, 71))


def test_gap_threshold_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        find_gap_threshold(complete_graph(3), Fraction(0))


# --- degree-2 subsets ------------------------------------------------------


def test_deg2_k3_examples():
    k3 = complete_graph(3)
    w = deg2_witness(k3, 0, 2, 0)
    assert w is not None and w.f_edges == ()
    w = deg2_witness(k3, 0, 2, mask_of([1]))
    assert w is not None
    check_witness(k3, 0, 2, w.x_mask, w.f_edges)
    assert set(w.f_edges) == {(0, 1), (1, 2)}


def test_deg2_path_examples():
    p3 = path_graph(3)
    assert deg2_witness(p3, 0, 2, mask_of([1])) is not None
    assert deg2_witness(p3, 0, 1, mask_of([2])) is None


def test_deg2_rejects_equal_terminals():
    with pytest.raises(ValueError):
        deg2_witness(complete_graph(3), 1, 1, 0)


def test_deg2_rejects_terminal_in_x():
    with pytest.raises(ValueError):
        deg2_witness(complete_graph(3), 0, 2, mask_of([0]))


def test_deg2_capacity():
    with pytest.raises(CapacityError):
        enumerate_deg2_sets(empty_graph(17), 0, 1)


def test_enumerate_deg2_small_cases():
    assert enumerate_deg2_sets(complete_graph(3), 0, 2) == [0, 0b010]
    assert enumerate_deg2_sets(Graph.from_edges(2, [(0, 1)]), 0, 1) == [0]
    assert enumerate_deg2_sets(cycle_graph(4), 0, 2) == [0, 0b0010, 0b1000]


def test_enumerate_deg2_witnesses_validate():
    for seed in range(20):
        g = seeded_graph(seed, 8)
        if g.n < 2:
            continue
        s, t = 0, g.n - 1
        for x_mask in enumerate_deg2_sets(g, s, t):
            w = deg2_witness(g, s, t, x_mask)
            assert w is not None
            check_witness(g, s, t, x_mask, w.f_edges)


def brute_deg2_sets(g: Graph, s: int, t: int) -> list[int]:
    """Ground truth by enumerating every edge subset F and classifying the
    degree pattern it induces; exponential in m, tiny graphs only."""
    from itertools import combinations

    edges = [(u, v) for u, v, _ in g.edges]
    rest = [v for v in range(g.n) if v not in (s, t)]
    ok = set()
    for r in range(len(edges) + 1):
        for chosen in combinations(range(len(edges)), r):
            deg = [0] * g.n
            for i in chosen:
                u, v = edges[i]
                deg[u] += 1
                deg[v] += 1
            if deg[s] > 1 or deg[t] > 1:
                continue
            x_mask, good = 0, True
            for v in rest:
                if deg[v] == 2:
                    x_mask |= 1 << v
                elif deg[v] != 0:
                    good = False
                    break
            if good:
                ok.add(x_mask)
    return sorted(ok)


def test_enumerate_deg2_complete_vs_all_subsets():
    """The witness search must find every set the exhaustive enumeration
    finds (completeness), not just valid ones (soundness)."""
    import random

    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        m = rng.randint(0, min(n * (n - 1) // 2, 10))
        from expdeg import random_gnm

        g = random_gnm(n, m, seed)
        assert enumerate_deg2_sets(g, 0, n - 1) == brute_deg2_sets(g, 0, n - 1), (
            seed,
            n,
            m,
        )


def test_deg2_multigraph_self_loop_counts_two():
    # a self-loop alone satisfies the degree-2 requirement at its vertex
    f = deg2_witness_multigraph(3, [(1, 1)], 0, 2, mask_of([1]))
    assert f == ((1, 1),)
    # parallel edges form a valid 2-cycle
    f = deg2_witness_multigraph(4, [(1, 2), (1, 2)], 0, 3, mask_of([1, 2]))
    assert f == ((1, 2), (1, 2))


@pytest.mark.parametrize(
    "n, s, t, x_mask",
    [
        (4, 0, 7, 0),  # terminal outside the graph
        (4, 0, 3, 1 << 9),  # X reaches outside the graph
        (4, 0, 3, mask_of([0, 1])),  # X contains s
        (4, 2, 2, 0),  # equal terminals
    ],
)
def test_deg2_multigraph_validates_like_deg2_witness(n, s, t, x_mask):
    edges = [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        deg2_witness(Graph.from_edges(n, edges), s, t, x_mask)
    with pytest.raises(ValueError):
        deg2_witness_multigraph(n, edges, s, t, x_mask)


@pytest.mark.parametrize("bad", [(1, 9), (-1, 2), (4, 4)])
def test_deg2_multigraph_rejects_edges_outside_the_graph(bad):
    edges = [(0, 1), bad, (1, 2)]
    with pytest.raises(ValueError, match=rf"edge \({bad[0]}, {bad[1]}\)"):
        deg2_witness_multigraph(4, edges, 0, 2, mask_of([1]))


def test_deg2_multigraph_capacity():
    with pytest.raises(CapacityError):
        deg2_witness_multigraph(17, [], 0, 1, 0)


# --- cross-module: TSP DP states are degree-2 subsets ----------------------


def test_tsp_states_lie_in_deg2_sets():
    for seed in range(15):
        g = seeded_graph(seed, 10)
        if g.n < 2:
            continue
        a = 0
        for mask, v in path_dp_states(g, a):
            if v == a:
                continue  # the seed state has no distinct terminal pair
            x = mask & ~(1 << a) & ~(1 << v)
            assert deg2_witness(g, a, v, x) is not None
