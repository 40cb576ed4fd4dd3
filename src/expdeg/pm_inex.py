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
folds vertex t = 2l+1 and then a = 2l into the table in one pass,

    T[u][w] += T[u][v] * star(T[v][v]) * T[v][w],   star(s) = 1 / (1 - s),

for v = t and then v = a, which admits v as an inner vertex: two rank-one
updates into one new table over 0..2l-1.  W_2l is T[a][a] once t is
folded in, the closed walks at 2l that stay above it.  At label l only
vertices 0..2l+1 remain.  A node at label 0 would read W_0 off its 2x2
table and add only prod * W_0 to the sum of its sign: banning label 0
would add prod with one sign and allowing it prod * (1 + W_0) with the
other, and the two prods cancel.  So each node at label 1, of at most
2^(n/2-2), closes labels 1 and 0 in one step, in straight-line code on
its 4x4 table: it adds its ban child's leaf term prod * W_0(T) to one
sum and its allow child's prod * (1 + W_2) * W_0(T'') to the other,
where T'' is the 2x2 table left after folding 3 and 2, and no node at
label 0 is built.  Only n = 2, whose root decides label 0, folds at
anchor 0.

A node returns before it recurses when an undecided label is dead: when
each of its two vertices v has no arc out to a vertex of an unbanned
label, or none in from one.  No closed walk that avoids the banned set
passes through such a v, so for every banned set J that completes the
node's, J and J plus the dead label count the same tuples with opposite
signs; deadness only grows with the banned set, so the pairing stays
inside the subtree, and the subtree's leaf terms sum to zero in every
coefficient.  Skipping it takes the same series from both sums of sign,
so acc, the count and the zero check below n/2 are unchanged; in the
tables, a dead vertex keeps a zero row or column in every descendant, so
its fold would be a no-op and W_2l = 0.  The two vertices die together:
the arcs out of 2l go to the neighbours of 2l+1, those into 2l come from
the partners of the neighbours of 2l, and symmetrically for 2l+1, while
the unbanned vertices are closed under partners.  So label l is dead
exactly when the heads out of 2l, or those out of 2l+1, are all banned,
which is what the counter tests.  It tests every label at the root,
which prunes the whole sum when a vertex is isolated.  A ban child tests
the labels below (at label 1, label 0 alone, before its leaf term is
formed); those without an arc to or from the label just banned lost no
head, so they pass as they did at the parent.  An allow child bans
nothing new and needs no test.  Each test is two ANDs with
precomputed head masks, and the sum still ranges over the 2^(n/2)
subsets that `inex_subsets` reports.

Label order.  The pairing is free, and how early a label dies depends on
it, so inex_accumulators first relabels g by _inex_labels.  The vertices
are visited by (degree, index); each one not yet placed takes the next
low position, and its unplaced neighbours are appended to a high list,
which fills the top positions in reverse.  So low-degree vertices share
the low labels, which are decided last, and their neighbours share the
top labels, which are decided first: once the few labels holding a low
vertex's neighbours are banned, that vertex's label is dead, and the
subtree goes close to the root.  On the perfbench count-inex mixes, seeds
1/2/3, a pass reaches 5,291 / 5,068 / 5,024 allowing nodes on these
labels against 10,665 / 11,037 / 12,234 on the input's own; with labels
1 and 0 closed in one step, that is 2,735 / 2,620 / 2,600 folds and
closings.  Pairing the edges of
pm_dp's greedy matching instead prunes nothing, since each label's arcs
are then self-loops, which never die.  A count does not depend on
labels, so nothing is mapped back.

Each series is one Python int holding its coefficients in F-bit fields
(a Kronecker substitution x = 2^F), so a truncated product is one integer
multiply and a mask.  `field_width` takes F from exact walk counts of the
arc graph, which bound every walk series and product the recursion forms
and, summed over the leaves' anchor sets, both signed leaf sums, and
proves that no field overflows.  Too narrow a width gives a
wrong count that the zero check below length n/2 need not catch.  The
live state is one table of O(n^2) packed series of (n/2+1)*F bits, and
one product, per level of the recursion, so space stays polynomial.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .graphs import Graph, pair_partner


def build_arc_graph(g: Graph, label) -> tuple[tuple[int, ...], ...]:
    """The directed labeled arc graph on g's n vertices, renamed by label
    (label[v] is v's new name, and range(n) keeps the names), as out[v],
    the heads of the arcs leaving v, all of which carry label v//2.  Two
    arcs per input edge: (partner(x) -> y, label x//2) and symmetric, so
    the heads out of v are the new names of the neighbours of the vertex
    renamed partner(v), in g's adjacency order; a self-loop occurs whenever
    an input edge joins the two members of one pair."""
    if g.n % 2 != 0:
        raise ValueError("vertex count must be even")
    vertex = [0] * g.n  # the inverse map: vertex[label[v]] = v
    for v, new in enumerate(label):
        vertex[new] = v
    adj = g.adjacency
    return tuple(
        tuple(label[w] for w, _ in adj[vertex[pair_partner(v)]]) for v in range(g.n)
    )


def inex_subsets(n: int) -> int:
    """Label subsets the counter sums over: 2^(n/2), or 0 for odd n."""
    return 1 << (n // 2) if n % 2 == 0 else 0


def field_width(out: tuple[tuple[int, ...], ...]) -> int:
    """Bits per packed coefficient, from exact walk counts of the arc graph
    A = out (from `build_arc_graph`), with n = len(out) and h = n/2: F is
    the largest of the bit lengths of the largest entry of A^j for
    1 <= j <= h, of max_j B_j and of max_j S_j, where, with C_a(x) the sum
    of (A^j)[a][a] x^j over j >= 1 and all series truncated after x^h,

        B = prod over the h anchors a of (1 + C_a),
        S = C_0 * prod over the anchors a >= 2 of (2 + C_a).

    Proof.  Every coefficient at or below x^h is an exact count, and
    (A^j)[u][w] counts all u->w walks of length j.  A table entry T[u][w]
    counts some of those walks, and so does every partial sum and product
    a fold forms: T[u][v] * star(T[v][v]) * T[v][w] counts u->w walks
    through v, each split in one way only at its visits to v, and the
    classes a fold adds to T[u][w] are disjoint.  Likewise star(T[v][v])
    and its partial products count closed walks at v, and W_a counts some
    of the closed walks at a, so W_a <= C_a coefficientwise.  A product is
    prod = (1 + W_a1)(1 + W_a2)... over the allowed anchors so far; all
    terms are nonnegative, so prod <= B.  A leaf term is prod * W_0 over
    a set A of allowed anchors >= 2, at most C_0 * prod over A of
    (1 + C_a); the leaves have distinct sets A, and summed over every A
    these bounds give S, so the leaf sum of either sign, and both together,
    stay at most S.  Coefficients above x^h may exceed the field, but a
    carry moves only upward and the mask drops it.  The zero check below
    length h does not guard this width: narrower fields can give a wrong
    count that passes.

    With D = max(1, maximum degree), which is A's maximum out-degree,
    (A^j)[u][w] <= D^j and, by counting anchor sets and compositions,
    B_j <= 4^h D^h; S <= 2^(h-1) * B coefficientwise, since
    2 + C_a <= 2 (1 + C_a) and C_0 <= 1 + C_0, so F <= bitlen((8D)^h).
    The counts take O(h * arcs) additions of one packed int per vertex v,
    whose field u holds (A^j)[u][v]; fields of bitlen(D^h) bits cannot
    overflow, and B and S are packed in fields of bitlen((8D)^h) bits.
    """
    n = len(out)
    half = n // 2
    delta = max(1, max(map(len, out), default=0))  # v has deg(partner(v)) arcs
    room = (delta**half).bit_length()  # holds every (A^j)[u][w], j <= h
    wide = ((8 * delta) ** half).bit_length()  # holds every B_j and S_j
    field = (1 << room) - 1
    arcs = [(v, w) for v, heads in enumerate(out) for w in heads]
    into = [1 << room * v for v in range(n)]  # A^0 = I
    seen = 0  # every (A^j)[u][w] ORed into field u, so the largest sets its bits
    anchors = []  # anchors[j-1]: into[a] for A^j at the anchors a
    for _ in range(half):
        nxt = [0] * n
        for v, w in arcs:
            nxt[w] += into[v]
        into = nxt
        seen = reduce(or_, into, seen)
        anchors.append(into[::2])
    trunc = (1 << wide * (half + 1)) - 1
    bound = leaves = 1  # B and S
    for i, columns in enumerate(zip(*anchors)):
        closed = 0  # C_2i
        for column in reversed(columns):
            closed = (closed | column >> 2 * i * room & field) << wide
        bound = bound * (1 + closed) & trunc
        leaves = leaves * (2 + closed if i else closed) & trunc
    walk_bits = max(
        ((seen >> room * u & field).bit_length() for u in range(n)), default=0
    )
    both = bound | leaves  # the OR of two fields is as long as the longer
    sum_bits = max(
        (both >> wide * j & (1 << wide) - 1).bit_length() for j in range(half + 1)
    )
    return max(walk_bits, sum_bits)


def _star(s: int, trunc: int) -> int:
    """1 / (1 - s) = (1 + s)(1 + s^2)(1 + s^4)..., for a packed series s
    without constant term, masked to trunc."""
    total = 1 + s
    while True:
        s = s * s & trunc
        if not s:
            return total
        total = total * (1 + s) & trunc


def count_anchored_walks(
    table: list[list[int]], anchor: int, trunc: int
) -> tuple[int, list[list[int]]]:
    """Fold vertices anchor+1 and then anchor into the walk table of the
    node that allows label anchor//2, in one pass.  Returns W, the packed
    series of closed walks at anchor that visit it only at their ends and
    stay on anchor+1 and the allowed vertices above it, and the table over
    0..anchor-1 whose walks may also pass through both:

        T'[u][w] = T[u][w] + T[u][t] * star(T[t][t]) * T[t][w],   t = anchor+1
        T''[u][w] = T'[u][w] + T'[u][a] * star(W) * T'[a][w],    a = anchor

    with W = T'[a][a], computed as two rank-one updates into one new table.
    Rows and columns past anchor+1 are not read, and table is not modified.
    At anchor 0, W = T00 + T01 * star(T11) * T10 and the folded table is
    empty.
    """
    top = anchor + 1
    # walks out of top that may loop at top first: star(T[t][t]) * T[t][w]
    row = table[top]
    hop = row[anchor]
    tail = [(w, r) for w, r in enumerate(row[:anchor]) if r]
    if row[top] and (hop or tail):
        loops = _star(row[top], trunc)
        hop = hop * loops & trunc
        tail = [(w, r * loops & trunc) for w, r in tail]
    # row anchor of T', whose diagonal entry is W
    mid = table[anchor][:anchor]
    head = table[anchor][top]
    walks = table[anchor][anchor]
    if head:
        walks += head * hop & trunc
        for w, r in tail:
            mid[w] += head * r & trunc
    via = [(w, r) for w, r in enumerate(mid) if r]
    if walks and via:
        loops = _star(walks, trunc)
        via = [(w, r * loops & trunc) for w, r in via]
    out = []
    for u in range(anchor):
        old = table[u]
        new = old[:anchor]
        up, down = old[top], old[anchor]
        if up:
            down += up * hop & trunc
            for w, r in tail:
                new[w] += up * r & trunc
        if down:
            for w, r in via:
                new[w] += down * r & trunc
        out.append(new)
    return walks, out


def count_walk_tuples(prod: int, walks: int, trunc: int) -> int:
    """prod * (1 + walks), packed and masked to trunc.

    prod counts walk tuples by total length whose anchors strictly
    increase; walks counts the closed walks at one more anchor by length
    and has no constant term.  The product admits at most one walk at that
    anchor, so each tuple arises in exactly one order.
    """
    return prod * (1 + walks) & trunc


def _closed_at_0(t00: int, t01: int, t10: int, t11: int, trunc: int) -> int:
    """W_0 = T00 + T01 * star(T11) * T10 of a table over vertices 0 and 1."""
    if t01 and t10:
        via = t01 * t10 & trunc
        if t11:
            via = via * _star(t11, trunc) & trunc
        t00 += via
    return t00


def close_last_labels(
    table: list[list[int]], prod: int, ban: bool, trunc: int
) -> tuple[int, int]:
    """The leaf terms of the two children of a node that decides label 1,
    from its walk table over vertices 0..3 (rows and columns past 3 are not
    read) and its product prod: (banned, allowed), packed and masked to
    trunc, each the prod * W_0 that a node at label 0 would add to the sum
    of its sign (the prods its two children add cancel), with

        banned = prod * W_0(T),                 or 0 unless ban is true,
        allowed = prod * (1 + W_2) * W_0(T''),

    where W_2 = T'[2][2] once vertex 3 is folded in, T'' is the table over
    0 and 1 left after folding 3 and then 2, as count_anchored_walks(table,
    2, trunc) returns them, and W_0 is read off a table as at anchor 0.
    ban says whether the ban child is visited, i.e. label 0 is not dead
    once label 1 is banned; the allow child bans nothing new.
    """
    row0, row1, row2, row3 = table[0], table[1], table[2], table[3]
    t00, t01, t10, t11 = row0[0], row0[1], row1[0], row1[1]
    banned = 0
    if ban:
        banned = prod * _closed_at_0(t00, t01, t10, t11, trunc) & trunc
    # walks out of 3 that may loop at 3 first: star(T[3][3]) * T[3][w]
    h0, h1, h2 = row3[0], row3[1], row3[2]
    if row3[3] and (h0 or h1 or h2):
        loops = _star(row3[3], trunc)
        h0, h1, h2 = h0 * loops & trunc, h1 * loops & trunc, h2 * loops & trunc
    # T' over 0..2; its entry [2][2] is W_2
    t02, t12, t20, t21, walks = row0[2], row1[2], row2[0], row2[1], row2[2]
    up = row0[3]
    if up:
        t00 += up * h0 & trunc
        t01 += up * h1 & trunc
        t02 += up * h2 & trunc
    up = row1[3]
    if up:
        t10 += up * h0 & trunc
        t11 += up * h1 & trunc
        t12 += up * h2 & trunc
    up = row2[3]
    if up:
        t20 += up * h0 & trunc
        t21 += up * h1 & trunc
        walks += up * h2 & trunc
    # T'' over 0 and 1: fold 2, looping on W_2 first
    if walks and (t20 or t21):
        loops = _star(walks, trunc)
        t20, t21 = t20 * loops & trunc, t21 * loops & trunc
    if t02:
        t00 += t02 * t20 & trunc
        t01 += t02 * t21 & trunc
    if t12:
        t10 += t12 * t20 & trunc
        t11 += t12 * t21 & trunc
    prod = count_walk_tuples(prod, walks, trunc)
    allowed = prod * _closed_at_0(t00, t01, t10, t11, trunc) & trunc
    return banned, allowed


def _inex_labels(g: Graph) -> list[int]:
    """label[v]: the new label of v, under which pair i is (2i, 2i+1).

    The vertices are visited by (degree, index).  Each one not yet placed
    takes the next low position, and its unplaced neighbours, in adjacency
    order, are appended to a high list; the order is the low list followed
    by the reversed high list."""
    adj = g.adjacency  # rows of (neighbour, weight)
    placed = [False] * g.n
    low: list[int] = []
    high: list[int] = []
    for v in sorted(range(g.n), key=lambda v: len(adj[v])):
        if placed[v]:
            continue
        placed[v] = True
        low.append(v)
        for w, _ in adj[v]:
            if not placed[w]:
                placed[w] = True
                high.append(w)
    label = [0] * g.n
    for i, v in enumerate(low + high[::-1]):
        label[v] = i
    return label


def inex_accumulators(g: Graph) -> list[int]:
    """Signed per-length sums acc[j] for 0 <= j <= n/2, on g relabelled by
    _inex_labels (a count does not depend on labels).

    acc[j] sums, over all label subsets I with sign (-1)^|I|, the number of
    anchor-ordered walk tuples of total length j that avoid I.  By
    inclusion-exclusion it counts the tuples that use every label, so
    acc[n/2] is the number of perfect matchings and every lower entry is 0:
    a tuple of length j < n/2 has only j arcs for n/2 labels.
    """
    out = build_arc_graph(g, _inex_labels(g))
    half = g.n // 2
    if not half:
        return [1]  # the empty family, and no label to exclude
    width = field_width(out)
    trunc = (1 << width * (half + 1)) - 1
    step = 1 << width  # one arc: the series x
    arcs = [[0] * g.n for _ in range(g.n)]
    for u, heads in enumerate(out):
        for w in heads:
            arcs[u][w] += step
    # masks[l]: the heads out of 2l and of 2l+1 as vertex masks
    masks = [
        (sum(1 << w for w in out[v]), sum(1 << w for w in out[v + 1]))
        for v in range(0, g.n, 2)
    ]
    zero_a, zero_b = masks[0]
    sums = [0, 0]  # packed sums of sign +1 and -1, less the prods that cancel

    def visit(
        label: int, table: list[list[int]], prod: int, negative: int, live: int
    ) -> None:
        # labels above `label` are decided: `table` holds the walks through
        # the allowed ones, `prod` counts the walk tuples on their anchors,
        # `live` masks the vertices of unbanned labels, and no undecided
        # label is dead
        if label > 1:
            left = live & ~(3 << 2 * label)  # the live vertices once label is banned
            for out_a, out_b in masks[:label]:
                if not (out_a & left and out_b & left):
                    break  # that label is dead once this one is banned
            else:
                visit(label - 1, table, prod, negative ^ 1, left)
            walks, table = count_anchored_walks(table, 2 * label, trunc)
            prod = count_walk_tuples(prod, walks, trunc)
            visit(label - 1, table, prod, negative, live)
        elif label:
            left = live & ~0b1100
            banned, allowed = close_last_labels(
                table, prod, bool(zero_a & left and zero_b & left), trunc
            )
            sums[negative ^ 1] += banned
            sums[negative] += allowed
        else:  # n = 2: the root decides label 0
            walks, _ = count_anchored_walks(table, 0, trunc)
            sums[negative] += prod * walks & trunc

    if all(out_a and out_b for out_a, out_b in masks):
        visit(half - 1, arcs, 1, 0, (1 << g.n) - 1)
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
