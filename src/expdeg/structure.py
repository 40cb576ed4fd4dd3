"""Structural toolkit: disjoint-neighborhood sets, degree-gap thresholds and
an exact small-n oracle for degree-2 subsets.

A set X is a degree-2 subset for terminals (s, t) if some edge set F gives
degree exactly 2 to every vertex of X, at most 1 to s and t, and 0 to every
other vertex.  These sets are a superset of the states the sparse subset
DPs in this package can ever materialize, so the oracle here serves as the
ground truth for state-space tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bitset import bits, mask_of
from .counting import exact_fraction
from .errors import CapacityError
from .graphs import Graph, degree_profile

DEG2_MAX_N = 16


def _e_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on e from the Taylor series with remainder."""
    s = Fraction(0)
    fact = 1
    for k in range(terms + 1):
        if k:
            fact *= k
        s += Fraction(1, fact)
    return s, s + Fraction(2, fact * (terms + 1))


def exp_at_most(value: int, alpha: Fraction) -> bool:
    """Certified check of value <= e**alpha in exact rational arithmetic.

    value <= e**(p/q)  iff  value**q <= e**p; e is bracketed by rational
    Taylor bounds tightened until the comparison is unambiguous (e**alpha
    is irrational for rational alpha != 0, so this terminates).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if value <= 1:
        return True
    p, q = alpha.numerator, alpha.denominator
    lhs = value**q
    terms = 20
    while True:
        lo, hi = _e_bounds(terms)
        if lhs <= lo**p:
            return True
        if lhs > hi**p:
            return False
        terms *= 2


@dataclass(frozen=True)
class GapResult:
    """Smallest degree threshold D with few vertices above it.

    bound is the exact rational n*d/(alpha*D); count_above = |{v: deg(v) > D}|.
    """

    d_threshold: int
    bound: Fraction
    count_above: int


def find_gap_threshold(g: Graph, alpha: Fraction | int | float) -> GapResult:
    """Smallest integer D >= 1 with D <= e**alpha and |{deg > D}| <= n*d/(alpha*D).

    Such a D always exists: if every threshold up to e**alpha failed the
    count inequality, summing them would exceed the total degree n*d.  A
    float alpha is read by its decimal repr (see exact_fraction).
    """
    alpha = exact_fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    profile = degree_profile(g)
    nd = 2 * g.m  # n * average degree, exactly
    d_threshold = 1
    while exp_at_most(d_threshold, alpha):
        bound = Fraction(nd, alpha * d_threshold)
        count = profile.count_above(d_threshold)
        if count <= bound:
            return GapResult(d_threshold, bound, count)
        d_threshold += 1
    raise AssertionError("unreachable: a valid threshold is guaranteed to exist")


def find_disjoint_set(g: Graph, d: Fraction | int | float, max_deg: int) -> int:
    """Greedy set A of low-degree vertices with pairwise disjoint closed
    neighborhoods; returns A as a bit mask.

    Requires avg degree <= d, max degree <= max_deg and d >= 1; the result
    has every member of degree <= 2d and |A| >= ceil(n / (2 + 4*d*max_deg)).
    Scans vertices in ascending index order, marking the two-step closed
    neighborhood of each pick.  A float d is read by its decimal repr (see
    exact_fraction).
    """
    d = exact_fraction(d)
    profile = degree_profile(g)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if profile.avg > d:
        raise ValueError(f"average degree {profile.avg} exceeds d={d}")
    if profile.max_degree > max_deg:
        raise ValueError(
            f"maximum degree {profile.max_degree} exceeds max_deg={max_deg}"
        )
    marked = [False] * g.n
    picked = []
    for x in range(g.n):
        if marked[x] or g.degree(x) > 2 * d:
            continue
        picked.append(x)
        for u in (x, *g.neighbors(x)):
            marked[u] = True
            for w in g.neighbors(u):
                marked[w] = True
    need = math.ceil(Fraction(g.n, 2 + 4 * d * max_deg))
    if len(picked) < need:
        raise AssertionError(f"greedy produced {len(picked)} < guaranteed {need}")
    return mask_of(picked)


@dataclass(frozen=True)
class Deg2Witness:
    """Certificate that x_mask is a degree-2 subset: the edge set F itself."""

    x_mask: int
    f_edges: tuple[tuple[int, int], ...]


def _witness_search(
    n: int,
    edges: list[tuple[int, int]],
    s: int,
    t: int,
    x_mask: int,
) -> tuple[tuple[int, int], ...] | None:
    """Backtracking search for F over an edge list that may contain parallel
    edges and self-loops (a self-loop adds 2 to its endpoint's degree).

    Branches, for each vertex of X in ascending order, on which of its
    incident candidate edges complete its required degree of 2.
    """
    members = list(bits(x_mask))
    allowed = x_mask | (1 << s) | (1 << t)
    cap = [0] * n
    for v in members:
        cap[v] = 2
    cap[s] = max(cap[s], 1)
    cap[t] = max(cap[t], 1)

    cand: list[tuple[int, int, int]] = []  # (index, u, v)
    incident: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if (allowed >> u) & 1 and (allowed >> v) & 1:
            idx = len(cand)
            cand.append((idx, u, v))
            incident[u].append(idx)
            if v != u:
                incident[v].append(idx)

    deg = [0] * n
    used = [False] * len(cand)
    chosen: list[int] = []

    def place(idx: int) -> bool:
        _, u, v = cand[idx]
        if u == v:
            if deg[u] + 2 > cap[u]:
                return False
            deg[u] += 2
        else:
            if deg[u] + 1 > cap[u] or deg[v] + 1 > cap[v]:
                return False
            deg[u] += 1
            deg[v] += 1
        used[idx] = True
        chosen.append(idx)
        return True

    def unplace(idx: int) -> None:
        _, u, v = cand[idx]
        if u == v:
            deg[u] -= 2
        else:
            deg[u] -= 1
            deg[v] -= 1
        used[idx] = False
        chosen.pop()

    def solve(pos: int) -> bool:
        if pos == len(members):
            return True
        x = members[pos]
        deficit = 2 - deg[x]
        if deficit == 0:
            return solve(pos + 1)
        options = [i for i in incident[x] if not used[i]]
        if deficit == 2:
            for a in range(len(options)):
                ia = options[a]
                if cand[ia][1] == cand[ia][2]:  # self-loop completes x alone
                    if place(ia):
                        if solve(pos + 1):
                            return True
                        unplace(ia)
                    continue
                if not place(ia):
                    continue
                for b in range(a + 1, len(options)):
                    ib = options[b]
                    if cand[ib][1] == cand[ib][2]:
                        continue
                    if place(ib):
                        if solve(pos + 1):
                            return True
                        unplace(ib)
                unplace(ia)
            return False
        # deficit == 1: one more non-loop edge at x
        for ia in options:
            if cand[ia][1] == cand[ia][2]:
                continue
            if place(ia):
                if solve(pos + 1):
                    return True
                unplace(ia)
        return False

    if solve(0):
        return tuple(sorted((min(u, v), max(u, v)) for i, u, v in
                            (cand[c] for c in chosen)))
    return None


def _check_deg2_args(n: int, s: int, t: int, x_mask: int) -> None:
    """The argument checks shared by both degree-2 witness searches."""
    if s == t:
        raise ValueError("terminals s and t must be distinct")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("terminal out of range")
    if x_mask & ((1 << s) | (1 << t)):
        raise ValueError("X must not contain s or t")
    if x_mask >> n:
        raise ValueError("X contains vertices outside the graph")
    if n > DEG2_MAX_N:
        raise CapacityError(f"degree-2 oracle is limited to n <= {DEG2_MAX_N}")


def deg2_witness(g: Graph, s: int, t: int, x_mask: int) -> Deg2Witness | None:
    """Witness edge set F for X, or None if X is not a degree-2 subset.

    The terminals must be distinct; X must avoid both.  Intended for small
    graphs (n <= 16): the search is exponential in the worst case.
    """
    _check_deg2_args(g.n, s, t, x_mask)
    f = _witness_search(g.n, [(u, v) for u, v, _ in g.edges], s, t, x_mask)
    return None if f is None else Deg2Witness(x_mask, f)


def deg2_witness_multigraph(
    n: int, edges, s: int, t: int, x_mask: int
) -> tuple[tuple[int, int], ...] | None:
    """Degree-2 witness over an explicit (u, v) edge list that may contain
    parallel edges and self-loops; returns F as edge endpoints or None.
    Arguments are checked as in deg2_witness, and every edge endpoint must
    lie in 0..n-1."""
    _check_deg2_args(n, s, t, x_mask)
    edges = list(edges)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    return _witness_search(n, edges, s, t, x_mask)


def enumerate_deg2_sets(g: Graph, s: int, t: int) -> list[int]:
    """All degree-2 subsets for (s, t) as sorted bit masks; small n only."""
    if g.n > DEG2_MAX_N:
        raise CapacityError(f"degree-2 enumeration is limited to n <= {DEG2_MAX_N}")
    rest = [v for v in range(g.n) if v not in (s, t)]
    found = []
    for sub in range(1 << len(rest)):
        x_mask = 0
        for i in bits(sub):
            x_mask |= 1 << rest[i]
        if deg2_witness(g, s, t, x_mask) is not None:
            found.append(x_mask)
    return sorted(found)
