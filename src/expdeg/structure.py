"""Structural toolkit: disjoint-neighborhood sets, degree-gap thresholds and
an exact small-n oracle for degree-2 subsets.

A set X is a degree-2 subset for terminals (s, t) if some edge set F gives
degree exactly 2 to every vertex of X, at most 1 to s and t, and 0 to every
other vertex.  These sets are a superset of the states the sparse subset
DPs in this package can ever materialize, so the oracle here serves as the
ground truth for state-space tests.

Each tool has one entry point.  The degree-2 witness search,
deg2_witness, reads a vertex count and an edge list, so a Graph's edges and
the contracted multigraph of the cover DP, with its parallel edges and
self-loops, reach it by the same path and are checked the same way.
"""

from __future__ import annotations

from fractions import Fraction

from .bitset import bits, mask_of
from .counting import exact_fraction
from .errors import CapacityError
from .graphs import Graph, Record, degree_profile

DEG2_MAX_N = 16


class GapResult(Record):
    """Smallest degree threshold D with few vertices above it.

    bound is the exact rational n*d/(alpha*D); count_above = |{v: deg(v) > D}|.
    """

    __slots__ = _fields = ("d_threshold", "bound", "count_above")

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


def find_disjoint_set(g: Graph, d: Fraction | int | float) -> int:
    """Greedy set A of low-degree vertices with pairwise disjoint closed
    neighborhoods; returns A as a bit mask.

    Requires avg degree <= d and d >= 1.  With Delta = max(max degree, 1)
    read off g, the result has every member of degree <= 2d and
    |A| >= ceil(n / (2 + 4*d*Delta)).  Scans vertices in ascending index
    order, marking the two-step closed neighborhood of each pick.  A float d
    is read by its decimal repr (see exact_fraction).

    Why |A| is that large: the degrees sum to at most d*n, so fewer than n/2
    vertices have degree above 2d and at least n/2 are low (degree <= 2d).
    A pick x has at most 2d neighbours, each with at most Delta neighbours
    of which one is x, so it marks at most
    1 + 2d + 2d*(Delta - 1) = 1 + 2d*Delta vertices.  The scan picks every
    low vertex left unmarked, so the picks mark all n/2 or more low
    vertices and number at least n / (2 + 4*d*Delta), hence at least its
    ceiling.
    """
    d = exact_fraction(d)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    avg = degree_profile(g).avg
    if avg > d:
        raise ValueError(f"average degree {avg} exceeds d={d}")
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


def deg2_witness(
    n: int, edges, s: int, t: int, x_mask: int
) -> tuple[tuple[int, int], ...] | None:
    """Witness edge set F for X, as sorted (u, v) endpoint pairs with
    u <= v, or None if X is not a degree-2 subset; small n only (n <= 16),
    since the search is exponential in the worst case.

    An edge is any tuple whose first two entries are its endpoints, so a
    Graph's g.edges passes as it is.  Parallel edges and self-loops are
    allowed, and every endpoint must lie in 0..n-1.  The terminals must be
    distinct and X must avoid both.

    The search is a backtracking one.  Each vertex of X, in ascending
    order, takes the degree it still lacks from the candidate edges at it,
    in index order, so each edge set is tried once.  An edge adds 1 at each
    end, so a self-loop adds 2 to its vertex, and it must leave both ends
    within their capacity: 2 on X, 1 on s and t.  An edge back to an
    earlier vertex of X never fits, since that vertex already has its 2, so
    no edge is taken twice.
    """
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
    members = list(bits(x_mask))
    cap = [0] * n
    for v in members:
        cap[v] = 2
    cap[s] = cap[t] = 1
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for edge in edges:
        u, v = edge[0], edge[1]
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
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


def enumerate_deg2_sets(g: Graph, s: int, t: int) -> list[int]:
    """All degree-2 subsets for (s, t) as sorted bit masks; small n only.
    The first call, on the empty X, checks the arguments."""
    rest = [v for v in range(g.n) if v not in (s, t)]
    found = []  # sub -> x_mask keeps the order, so found comes out sorted
    for sub in range(1 << len(rest)):
        x_mask = mask_of(rest[i] for i in bits(sub))
        if deg2_witness(g.n, g.edges, s, t, x_mask) is not None:
            found.append(x_mask)
    return found
