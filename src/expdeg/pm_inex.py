"""Perfect-matching counting by inclusion-exclusion over label subsets.

Vertices are paired (2i, 2i+1).  Each input edge (x, y) becomes two arcs in
a directed labeled walk graph: crossing from x's pair partner through the
pairing into x and then along the edge to y, and symmetrically for y.  An
arc leaving vertex v therefore always carries label floor(v/2), and closed
walks in this graph encode cycles that alternate between pairing steps and
graph edges.

A matching corresponds to a family of vertex-disjoint closed walks of total
length n/2 using every label exactly once.  Each walk is anchored at its
cycle's lowest vertex, which is even, and at most one walk is taken per
anchor, so a family is a tuple with strictly increasing anchors: the tuples
avoiding a label subset are counted by the product of (1 + W_a(x)) over the
allowed anchors a, truncated after x^(n/2), where W_a sums a's closed walks
by length.  Each family arises in one order only, so nothing is divided.
Inclusion-exclusion over the 2^(n/2) label subsets keeps the tuples that
use every label: the signed sum is the matching count at length n/2 and
zero below it (fewer than n/2 arcs miss a label), which the counter checks.

The subsets are enumerated depth first, deciding label n/2-1 first and
label 0 last.  Banning label l deletes vertices 2l and 2l+1 from every
closed walk, and a walk anchored at 2l never enters a vertex below 2l, so
its counts depend only on the labels >= l.  The walk DP for anchor 2l
therefore runs once per assignment of the labels above it, at the node
that allows l, and the product takes its factor there; every subset below
that node shares both: fewer than 2^(n/2) single-anchor DPs per graph.
The live state is one product vector of n/2+1 coefficients per level of
the recursion, so space stays polynomial: O(n^2) integers plus the arc
lists.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def count_walk_tuples(prod: list[int], walks: list[int]) -> list[int]:
    """prod * (1 + sum_{j >= 1} walks[j] x^j), truncated to len(prod) terms.

    prod[i] counts walk tuples of total length i whose anchors strictly
    increase; walks[j] counts closed walks of length j at one more anchor
    (walks[0] is ignored).  The product admits at most one walk at that
    anchor, so each tuple arises in exactly one order.
    """
    out = list(prod)
    size = len(prod)
    for j in range(1, min(len(walks), size)):
        w = walks[j]
        if w:
            for i in range(size - j):
                out[i + j] += w * prod[i]
    return out


def inex_accumulators(g: Graph) -> list[int]:
    """Signed per-length sums acc[j] for 0 <= j <= n/2.

    acc[j] sums, over all label subsets I with sign (-1)^|I|, the number of
    anchor-ordered walk tuples of total length j that avoid I.  By
    inclusion-exclusion it counts the tuples that use every label, so
    acc[n/2] is the number of perfect matchings and every lower entry is 0:
    a tuple of length j < n/2 has only j arcs for n/2 labels.
    """
    ag = build_arc_graph(g)
    half = g.n // 2
    acc = [0] * (half + 1)

    def visit(label: int, allowed: int, prod: list[int], sign: int) -> None:
        # labels above `label` are decided: `allowed` masks the vertices of
        # the allowed ones, `prod` counts the walk tuples on their anchors
        if label < 0:
            for j, c in enumerate(prod):
                acc[j] += sign * c
            return
        visit(label - 1, allowed, prod, -sign)
        allowed |= 3 << (2 * label)
        walks = count_anchored_walks(ag, 2 * label, allowed)
        visit(label - 1, allowed, count_walk_tuples(prod, walks), sign)

    visit(half - 1, 0, [1] + [0] * half, 1)
    return acc


def count_pm_inex(g: Graph) -> int:
    """Exact number of perfect matchings; odd vertex counts give 0.  Raises
    AssertionError if a signed sum below length n/2 is nonzero (a fault)."""
    if g.n % 2 != 0:
        return 0
    acc = inex_accumulators(g)
    if any(acc[:-1]):
        raise AssertionError(
            f"signed per-length sums {acc} are nonzero below length {g.n // 2}"
        )
    return acc[-1]
