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
label 0 last, and the recursion carries a walk table down with it
(path-algebra elimination, as in Tarjan's "A unified approach to path
problems", J. ACM 1981).  At the node for label l, T[u][w] for u, w <=
2l+1 is the series, truncated after x^(n/2), of the u->w walks of
positive length whose inner vertices all belong to allowed labels above
l; at the root it holds the arcs.  Banning l passes T on unchanged, since
the rows and columns of 2l and 2l+1 are never read again.  Allowing l
folds vertex 2l+1 into the table,

    T[u][w] += T[u][v] * star(T[v][v]) * T[v][w],   star(s) = 1 / (1 - s),

which admits v as an inner vertex; W_2l is then T[2l][2l], the closed
walks at 2l that stay above it, and folding 2l the same way readies the
table for label l-1.  At label l only vertices 0..2l+1 remain, so the
2^(n/2-1) nodes at label 0 each cost O(1) series operations.

Each series is one Python int holding its coefficients in F-bit fields
(a Kronecker substitution x = 2^F), so a truncated product is one integer
multiply and a mask; `field_width` gives F and proves that no field
overflows.  Too narrow a width gives a wrong count that the zero check
below length n/2 need not catch.  The live state is one table of O(n^2)
packed series of (n/2+1)*F bits, and one product, per level of the
recursion, so space stays polynomial.
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


def inex_subsets(n: int) -> int:
    """Label subsets the counter sums over: 2^(n/2), or 0 for odd n."""
    return 1 << (n // 2) if n % 2 == 0 else 0


def field_width(g: Graph) -> int:
    """Bits per packed coefficient: F = bitlen(D^h * 8^h) + 1, with h = n/2
    and D = max(1, maximum degree of g), so every field is below 2^F.

    Proof.  Every coefficient at or below x^h is an exact count.  The arcs
    leaving v number deg(partner(v)) <= D, so a walk series counts at most
    D^i <= D^h walks of length i; so does every product of walk series
    formed on the way (star powers, T[u][v] * star * T[v][w]), since each
    counts distinct walks.  A product coefficient counts anchor-ordered
    walk tuples of total length i <= h: at most 2^h anchor sets times 2^i
    compositions of i times D^i walks each, at most (4D)^h.  Each of the
    two leaf sums adds at most 2^h products, at most (8D)^h < 2^F.
    Coefficients above x^h may exceed the field, but a carry moves only
    upward and the mask drops it.  The zero check below length h does not
    guard this width: narrower fields can give a wrong count that passes.
    """
    half = g.n // 2
    delta = max((g.degree(v) for v in range(g.n)), default=0)
    return (max(delta, 1) ** half * 8**half).bit_length() + 1


def _star(s: int, trunc: int) -> int:
    """1 / (1 - s) = (1 + s)(1 + s^2)(1 + s^4)..., for a packed series s
    without constant term, masked to trunc."""
    total = 1 + s
    while True:
        s = s * s & trunc
        if not s:
            return total
        total = total * (1 + s) & trunc


def _eliminate(table: list[list[int]], v: int, trunc: int) -> list[list[int]]:
    """The v x v table over vertices 0..v-1 whose walks may also pass
    through v: T[u][w] + T[u][v] * star(T[v][v]) * T[v][w].  Rows and
    columns past v are not read, and table is not modified."""
    tail = [(w, r) for w, r in enumerate(table[v][:v]) if r]
    loop = table[v][v]
    if loop and tail:
        loops = _star(loop, trunc)
        tail = [(w, r * loops & trunc) for w, r in tail]
    out = []
    for u in range(v):
        new = table[u][:v]
        head = table[u][v]
        if head:
            for w, r in tail:
                new[w] += head * r & trunc
        out.append(new)
    return out


def count_anchored_walks(
    table: list[list[int]], anchor: int, trunc: int
) -> tuple[int, list[list[int]]]:
    """Fold vertex anchor+1 into the walk table of the node that allows
    label anchor//2.  Returns W, the packed series of closed walks at
    anchor that visit it only at their ends and stay on anchor+1 and the
    allowed vertices above it, and the folded table over 0..anchor."""
    table = _eliminate(table, anchor + 1, trunc)
    return table[anchor][anchor], table


def count_walk_tuples(prod: int, walks: int, trunc: int) -> int:
    """prod * (1 + walks), packed and masked to trunc.

    prod counts walk tuples by total length whose anchors strictly
    increase; walks counts the closed walks at one more anchor by length
    and has no constant term.  The product admits at most one walk at that
    anchor, so each tuple arises in exactly one order.
    """
    return prod * (1 + walks) & trunc


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
    width = field_width(g)
    trunc = (1 << width * (half + 1)) - 1
    step = 1 << width  # one arc: the series x
    arcs = [[0] * g.n for _ in range(g.n)]
    for u, heads in enumerate(ag.out):
        for w in heads:
            arcs[u][w] += step
    sums = [0, 0]  # packed leaf products with sign +1 and -1

    def visit(label: int, table: list[list[int]], prod: int, negative: int) -> None:
        # labels above `label` are decided: `table` holds the walks through
        # the allowed ones, `prod` counts the walk tuples on their anchors
        if label < 0:
            sums[negative] += prod
            return
        visit(label - 1, table, prod, negative ^ 1)
        walks, table = count_anchored_walks(table, 2 * label, trunc)
        prod = count_walk_tuples(prod, walks, trunc)
        visit(label - 1, _eliminate(table, 2 * label, trunc), prod, negative)

    visit(half - 1, arcs, 1, 0)
    field = (1 << width) - 1
    return [
        (sums[0] >> width * j & field) - (sums[1] >> width * j & field)
        for j in range(half + 1)
    ]


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
