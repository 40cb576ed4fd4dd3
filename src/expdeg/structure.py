"""Structural toolkit: disjoint-neighborhood sets, degree-gap thresholds and
an exact small-n oracle for degree-2 subsets.

A set X is a degree-2 subset for terminals (s, t) if some edge set F gives
degree exactly 2 to every vertex of X, at most 1 to s and t, and 0 to every
other vertex.  These sets are a superset of the states the sparse subset
DPs in this package can ever materialize, so the oracle here serves as the
ground truth for state-space tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitset import bits, mask_of
from .counting import exact_fraction
from .errors import CapacityError
from .graphs import Graph, degree_profile

DEG2_MAX_N = 16


@dataclass(frozen=True)
class GapResult:
    """Smallest degree threshold D with few vertices above it.

    bound is the exact rational n*d/(alpha*D); count_above = |{v: deg(v) > D}|.
    """

    d_threshold: int
    bound: Fraction
    count_above: int


def find_gap_threshold(g: Graph, alpha: Fraction | int | float) -> GapResult:
    """Smallest integer D >= 1 with |{deg > D}| <= n*d/(alpha*D); this D is
    at most e**alpha.

    With T = floor(e**alpha) >= 1: if every D in 1..T failed the count
    test, the counts would sum to more than (n*d/alpha)*H_T > n*d, since
    the harmonic number H_T exceeds ln(T+1) > alpha.  But the sum over D
    of |{deg > D}| is the sum over v of min(deg(v) - 1, T)^+ <= n*d.  So
    the scan stops at some D <= e**alpha, and it stops by D = max degree
    in any case, where no vertex lies above D (D = 1 passes at once when
    there are no edges).  A float alpha is read by its decimal repr (see
    exact_fraction).
    """
    alpha = exact_fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    profile = degree_profile(g)
    nd = 2 * g.m  # n * average degree, exactly
    d_threshold = 1
    while profile.count_above(d_threshold) > Fraction(nd, alpha * d_threshold):
        d_threshold += 1
    bound = Fraction(nd, alpha * d_threshold)
    return GapResult(d_threshold, bound, profile.count_above(d_threshold))


def find_disjoint_set(g: Graph, d: Fraction | int | float, max_deg: int) -> int:
    """Greedy set A of low-degree vertices with pairwise disjoint closed
    neighborhoods; returns A as a bit mask.

    Requires avg degree <= d, max degree <= max_deg and d >= 1; the result
    has every member of degree <= 2d and |A| >= ceil(n / (2 + 4*d*max_deg)).
    Scans vertices in ascending index order, marking the two-step closed
    neighborhood of each pick.  A float d is read by its decimal repr (see
    exact_fraction).

    Why |A| is that large: the degrees sum to at most d*n, so fewer than n/2
    vertices have degree above 2d and at least n/2 are low (degree <= 2d).
    A pick x has at most 2d neighbours, each with at most max_deg
    neighbours of which one is x, so it marks at most
    1 + 2d + 2d*(max_deg - 1) = 1 + 2d*max_deg vertices.  The scan picks
    every low vertex left unmarked, so the picks mark all n/2 or more low
    vertices and number at least n / (2 + 4*d*max_deg), hence at least its
    ceiling.
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
    edges and self-loops.

    Each vertex of X, in ascending order, takes the degree it still lacks
    from the candidate edges at it, in index order, so each edge set is
    tried once.  An edge adds 1 at each end, so a self-loop adds 2 to its
    vertex, and it must leave both ends within their capacity: 2 on X, 1 on
    s and t.  An edge back to an earlier vertex of X never fits, since that
    vertex already has its 2, so no edge is taken twice.
    """
    members = list(bits(x_mask))
    cap = [0] * n
    for v in members:
        cap[v] = 2
    cap[s] = cap[t] = 1
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in edges:
        if cap[u] and cap[v]:
            at[u].append((u, v))
            if v != u:
                at[v].append((u, v))
    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def solve(pos: int, start: int) -> bool:
        if pos == len(members):
            return True
        x = members[pos]
        if deg[x] == 2:
            return solve(pos + 1, 0)
        for j in range(start, len(at[x])):
            u, v = at[x][j]
            deg[u] += 1
            deg[v] += 1
            if deg[u] <= cap[u] and deg[v] <= cap[v]:
                chosen.append((min(u, v), max(u, v)))
                if solve(pos, j + 1):
                    return True
                chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        return False

    return tuple(sorted(chosen)) if solve(0, 0) else None


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
    _check_deg2_args(g.n, s, t, 0)
    edges = [(u, v) for u, v, _ in g.edges]
    rest = [v for v in range(g.n) if v not in (s, t)]
    found = []  # sub -> x_mask keeps the order, so found comes out sorted
    for sub in range(1 << len(rest)):
        x_mask = mask_of(rest[i] for i in bits(sub))
        if _witness_search(g.n, edges, s, t, x_mask) is not None:
            found.append(x_mask)
    return found
