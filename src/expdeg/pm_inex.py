"""Perfect-matching counting by inclusion-exclusion over label subsets.

Vertices are paired (2i, 2i+1).  Each input edge (x, y) becomes two arcs in
a directed labeled walk graph: crossing from x's pair partner through the
pairing into x and then along the edge to y, and symmetrically for y.  An
arc leaving vertex v therefore always carries label floor(v/2), and closed
walks in this graph encode cycles that alternate between pairing steps and
graph edges.

A matching corresponds to a family of vertex-disjoint closed walks of total
length n/2 using every label exactly once.  Counting families that avoid a
label subset is polynomial (a layered walk DP plus a power series over the
per-length walk totals), and inclusion-exclusion over the 2^(n/2) label
subsets recovers the exact matching count in polynomial space.

The subsets are enumerated depth first, deciding label n/2-1 first and
label 0 last.  Banning label l deletes vertices 2l and 2l+1 from every
closed walk, and a walk anchored at 2l never enters a vertex below 2l, so
its counts depend only on the labels >= l.  The walk DP for anchor 2l
therefore runs once per assignment of the labels above it, at the node
that allows l, and every subset below that node shares its result: fewer
than 2^(n/2) single-anchor DPs per graph.  The live state is one vector of
n/2+1 running per-length totals per level of the recursion, so space stays
polynomial: O(n^2) integers plus the arc lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import unordered_total
from .graphs import Graph, pair_partner


@dataclass(frozen=True)
class ArcGraph:
    """Directed labeled multigraph on the input's n vertices.

    out[v] lists the heads of the arcs leaving v, all of which carry label
    v//2; a self-loop occurs whenever an input edge joins the two members
    of one pair.
    """

    n: int
    out: tuple[tuple[int, ...], ...]

    @property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Every arc as (src, dst, label)."""
        return tuple((v, w, v // 2) for v in range(self.n) for w in self.out[v])


def build_arc_graph(g: Graph) -> ArcGraph:
    """Two arcs per input edge: (partner(x) -> y, label x//2) and symmetric."""
    if g.n % 2 != 0:
        raise ValueError("vertex count must be even")
    out: list[list[int]] = [[] for _ in range(g.n)]
    for x, y, _ in g.edges:
        out[pair_partner(x)].append(y)
        out[pair_partner(y)].append(x)
    return ArcGraph(g.n, tuple(tuple(heads) for heads in out))


def count_anchored_walks(ag: ArcGraph, anchor: int, allowed: int) -> list[int]:
    """counts[j] for 0 <= j <= n/2: closed walks of length j from anchor
    that visit the anchor only at their ends and otherwise stay on vertices
    above it whose bit is set in the allowed mask (the anchor's own bit is
    not read)."""
    max_len = ag.n // 2
    out = ag.out
    counts = [0] * (max_len + 1)
    # walk[b]: anchor->b walks of the current length that have not closed
    walk: dict[int, int] = {}
    for b in out[anchor]:
        if b == anchor:
            counts[1] += 1
        elif b > anchor and (allowed >> b) & 1:
            walk[b] = walk.get(b, 0) + 1
    for j in range(2, max_len + 1):
        if not walk:
            break
        nxt: dict[int, int] = {}
        closed = 0
        for b, wb in walk.items():
            for c in out[b]:
                if c == anchor:
                    closed += wb
                elif c > anchor and (allowed >> c) & 1:
                    nxt[c] = nxt.get(c, 0) + wb
        counts[j] = closed
        walk = nxt
    return counts


def count_walk_tuples(per_len: list[int]) -> list[int]:
    """t[r] for 0 <= r <= L, where L = len(per_len) - 1: ordered r-tuples of
    walks with total length L, given per_len[j] >= 0 walks of each length
    j >= 1 (per_len[0] is ignored).

    t[r] is the coefficient of x^L in P(x)^r for P(x) = sum_j per_len[j] x^j.
    Only even-anchored walks belong in per_len: every closed walk family
    that uses each label once consists of cycles whose lowest vertex is
    even, while the reverse traversal of such a cycle anchors at the odd
    partner; even anchors keep one direction per cycle.
    """
    total_len = len(per_len) - 1
    # Kronecker substitution: P is packed into one integer with a digit of
    # `width` bits per coefficient.  Every coefficient of P^r is at most
    # P(1)^r <= P(1)^L < 2^width, so no digit spills into the next; carries
    # only travel upward, so masking to L+1 digits truncates exactly.
    width = total_len * sum(per_len[1:]).bit_length() + 1
    p = sum(c << (width * j) for j, c in enumerate(per_len) if j)
    keep = (1 << (width * (total_len + 1))) - 1
    t = [0] * (total_len + 1)
    t[0] = int(total_len == 0)
    power = 1
    for r in range(1, total_len + 1):
        power = power * p & keep
        if not power:
            break
        t[r] = power >> (width * total_len)
    return t


def inex_accumulators(g: Graph) -> list[int]:
    """Signed accumulators acc[r] (1-indexed), one per family size r.

    acc[r] sums, over all label subsets I with sign (-1)^|I|, the number of
    ordered r-tuples of anchored walks of total length n/2 avoiding I; by
    inclusion-exclusion it equals r! times the number of matchings whose
    pairing overlay splits into exactly r cycles.
    """
    if g.n % 2 != 0:
        raise ValueError("vertex count must be even")
    half = g.n // 2
    ag = build_arc_graph(g)
    acc = [0] * (half + 1)

    def visit(label: int, allowed: int, totals: list[int], sign: int) -> None:
        # labels above `label` are decided: `allowed` masks the vertices of
        # the allowed ones, `totals` sums their anchors' walk counts by length
        if label < 0:
            tuples = count_walk_tuples(totals)
            for r in range(1, half + 1):
                acc[r] += sign * tuples[r]
            return
        visit(label - 1, allowed, totals, -sign)
        allowed |= 3 << (2 * label)
        walks = count_anchored_walks(ag, 2 * label, allowed)
        visit(label - 1, allowed, [t + w for t, w in zip(totals, walks)], sign)

    visit(half - 1, 0, [0] * (half + 1), 1)
    return acc


def count_pm_inex(g: Graph) -> int:
    """Exact number of perfect matchings; odd vertex counts give 0."""
    if g.n % 2 != 0:
        return 0
    if g.n == 0:
        return 1
    return unordered_total(enumerate(inex_accumulators(g)))
