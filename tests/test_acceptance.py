"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence.  All equalities are exact integer
comparisons; all inequalities are evaluated in exact rational arithmetic,
except D <= e**alpha, which sympy decides.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
from fractions import Fraction
from math import factorial

import pytest
import sympy

from expdeg import (
    count_pm_bipartite,
    count_pm_dp,
    count_pm_inex,
    deg2_witness,
    degree_profile,
    find_disjoint_set,
    find_gap_threshold,
    held_karp_cycle,
    oracle_count_pm,
    oracle_permanent,
    oracle_tsp,
    random_bipartite_min2,
    random_regular,
    ryser_permanent,
    stored_state_bound,
    tsp_cycle,
)
from expdeg.bitset import bits
from expdeg.pm_dp import build_contracted_graph
from expdeg.tsp import path_dp_states
from conftest import (
    complete_graph,
    cycle_graph,
    k33_graph,
    naive_cover_dp,
    naive_inex_accumulators,
    petersen_graph,
    seeded_bipartite,
    seeded_graph,
    seeded_weighted_graph,
    tour_weight,
    unordered_total,
)

ALPHAS = (Fraction(5, 2), Fraction("3.55"), Fraction(5))


def test_criterion_1_matching_count_agreement():
    """inex = dp = oracle on 300 seeded graphs (n in 2..12) plus named ones."""
    named = [
        complete_graph(2),
        complete_graph(4),
        cycle_graph(4),
        cycle_graph(6),
        k33_graph(),
        petersen_graph(),
    ]
    graphs = named + [seeded_graph(seed, 12) for seed in range(300)]
    for idx, g in enumerate(graphs):
        want = oracle_count_pm(g)
        assert count_pm_inex(g) == want, f"inex mismatch on instance {idx}"
        assert count_pm_dp(g).count == want, f"dp mismatch on instance {idx}"
    print(f"\nACCEPTANCE 1 PASS: inex = dp = oracle on {len(graphs)} instances")


def test_criterion_2_alternating_covers_equal_matchings():
    """The perfect matchings of g are the cycle covers of its pair
    contraction with pairwise-disjoint labels, n <= 10: the ordered
    reference cover DP, divided by q! per cycle count q, equals matching
    enumeration; an odd n has no matching and no contraction."""
    even = 0
    for seed in range(100):
        g = seeded_graph(seed + 10_000, 10)
        want = oracle_count_pm(g)
        if g.n % 2:
            assert want == 0, seed
            with pytest.raises(ValueError):
                build_contracted_graph(g.n, g.edges)
            continue
        run = naive_cover_dp(build_contracted_graph(g.n, g.edges))
        assert unordered_total(run.full_covers.items()) == want, seed
        even += 1
    print(
        f"\nACCEPTANCE 2 PASS: label-disjoint covers = matchings on {even} even "
        f"instances; {100 - even} odd ones refused"
    )


def test_criterion_3_bipartite_agreement_and_alpha_invariance():
    """count = Ryser = permutation permanent on 300 instances, k in 1..8,
    and the answer does not depend on alpha."""
    for seed in range(300):
        g = seeded_bipartite(seed + 20_000, 8)
        want = oracle_permanent(g)
        assert ryser_permanent(g) == want, seed
        counts = {count_pm_bipartite(g, alpha).count for alpha in ALPHAS}
        assert counts == {want}, seed
    print(
        "\nACCEPTANCE 3 PASS: bipartite count = Ryser = permanent on 300 "
        "instances, invariant over alpha in {5/2, 3.55, 5}"
    )


def test_criterion_4_bipartite_state_bound():
    """stored_states <= 2^(k - floor(k/(alpha d)) + 1) + k C(k, ceil(k/alpha)) + 1
    as a hard inequality, exercised up to k = 24 with d <= 4."""
    grid = [
        (4, 2.0),
        (8, 2.0),
        (8, 3.0),
        (12, 2.5),
        (12, 4.0),
        (16, 3.0),
        (16, 4.0),
        (20, 2.5),
        (20, 3.0),
        (24, 2.5),
        (24, 3.0),
    ]
    checked = 0
    worst = 0.0
    for idx, (k, d) in enumerate(grid):
        for seed in (1, 2):
            m = round(k * d)
            g = random_bipartite_min2(k, m, 30_000 + 10 * idx + seed)
            for alpha in ALPHAS:
                res = count_pm_bipartite(g, alpha)
                if res.reduced_k == 0:
                    continue
                bound = stored_state_bound(res.reduced_k, res.reduced_d, alpha)
                assert res.stored_states <= bound, (k, d, seed, alpha)
                worst = max(worst, res.stored_states / bound)
                checked += 1
    # plain seeded instances as well (these may reduce)
    for seed in range(40):
        g = seeded_bipartite(seed + 40_000, 10, k_min=2)
        if Fraction(g.m, g.k) > 4:
            continue
        for alpha in ALPHAS:
            res = count_pm_bipartite(g, alpha)
            if res.reduced_k == 0:
                continue
            bound = stored_state_bound(res.reduced_k, res.reduced_d, alpha)
            assert res.stored_states <= bound
            checked += 1
    print(
        f"\nACCEPTANCE 4 PASS: state bound held on {checked} runs "
        f"(worst stored/bound = {worst:.3f})"
    )


def test_criterion_5_tsp_agreement():
    """tsp_cycle = held_karp on 200 weighted graphs (n <= 14), = permutation
    brute force for n <= 9; every reported tour re-verified edge by edge."""
    tours = 0
    for seed in range(200):
        g = seeded_weighted_graph(seed + 50_000, n_max=14, n_min=3)
        trimmed = tsp_cycle(g)
        dense = held_karp_cycle(g)
        tw = None if trimmed is None else trimmed.weight
        dw = None if dense is None else dense.weight
        assert tw == dw, (seed, tw, dw)
        if g.n <= 9:
            assert tw == oracle_tsp(g), seed
        if trimmed is not None:
            assert tour_weight(g, trimmed.order, cycle=True) == tw
            assert tour_weight(g, dense.order, cycle=True) == dw
            tours += 1
    print(
        f"\nACCEPTANCE 5 PASS: solver agreement on 200 instances "
        f"({tours} feasible tours verified edge by edge)"
    )


def test_criterion_6_tsp_state_soundness():
    """Every materialized DP state (X, v) with v != source admits a
    degree-2 witness for (source, v) on X minus the endpoints."""
    states_checked = 0
    for seed in range(50):
        g = seeded_graph(seed + 60_000, 12)
        if g.n < 2:
            continue
        a = 0
        for mask, v in path_dp_states(g, a):
            if v == a:
                continue
            x = mask & ~(1 << a) & ~(1 << v)
            assert deg2_witness(g.n, g.edges, a, v, x) is not None, (seed, bin(mask), v)
            states_checked += 1
    print(
        f"\nACCEPTANCE 6 PASS: {states_checked} materialized states verified, "
        "zero violations"
    )


def test_criterion_7_structural_postconditions():
    """Greedy disjoint set meets its size/degree/disjointness contract and
    the gap threshold satisfies both of its inequalities, on 200 graphs."""
    for seed in range(200):
        g = seeded_graph(seed + 70_000, 12, n_min=1)
        prof = degree_profile(g)
        d = max(prof.avg, Fraction(1))
        cap = max(prof.max_degree, 1)
        mask = find_disjoint_set(g, d)
        members = list(bits(mask))
        assert len(members) >= math.ceil(Fraction(g.n, 2 + 4 * d * cap))
        closed = []
        for x in members:
            assert g.degree(x) <= 2 * d
            closed.append(set(g.neighbors(x)) | {x})
        for i in range(len(closed)):
            for j in range(i + 1, len(closed)):
                assert not (closed[i] & closed[j])
        alpha = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction("3.55"))[seed % 4]
        gap = find_gap_threshold(g, alpha)
        assert gap.d_threshold <= sympy.E ** sympy.Rational(alpha)
        assert gap.count_above <= Fraction(2 * g.m, alpha * gap.d_threshold)
    print("\nACCEPTANCE 7 PASS: disjoint-set and gap-threshold contracts on 200 graphs")


def test_criterion_8_divisibility_invariants():
    """Signed accumulators divide by r!; ordered cover counts divide by q!."""
    graphs = [seeded_graph(seed + 80_000, 10) for seed in range(40)]
    graphs += [complete_graph(4), cycle_graph(6), k33_graph(), petersen_graph()]
    checked = 0
    for g in graphs:
        if g.n % 2:
            continue
        acc = naive_inex_accumulators(g)
        for r in range(1, len(acc)):
            assert acc[r] >= 0 and acc[r] % factorial(r) == 0
            checked += 1
        run = naive_cover_dp(build_contracted_graph(g.n, g.edges))
        for q, val in run.full_covers.items():
            assert val % factorial(q) == 0
            checked += 1
    print(f"\nACCEPTANCE 8 PASS: {checked} divisibility checks")


def test_criterion_9_trimming_trend():
    """Smoke thresholds showing sub-exhaustive state spaces: mean TSP states
    under 0.5 * 2^n on cubic graphs (n = 18, 20), and bipartite stored
    states under 0.5 * 2^k (k = 20, d = 5/2)."""
    report = []
    for n in (18, 20):
        ratios = []
        for seed in (1, 2, 3):
            g = random_regular(n, 3, seed)
            states = len(path_dp_states(g, 0))
            ratios.append(states / 2**n)
        mean = sum(ratios) / len(ratios)
        assert mean < 0.5, (n, mean)
        report.append(f"tsp n={n} mean states/2^n = {mean:.4f}")
    k = 20
    ratios = []
    for seed in (1, 2, 3):
        g = random_bipartite_min2(k, 50, seed)  # d = 5/2
        res = count_pm_bipartite(g)
        ratios.append(res.stored_states / 2**k)
    mean = sum(ratios) / len(ratios)
    assert mean < 0.5, mean
    report.append(f"bipartite k={k} mean stored/2^k = {mean:.4f}")
    print("\nACCEPTANCE 9 PASS: " + "; ".join(report))
