"""Perfect-matching counting as label-disjoint cycle covers of a contracted
multigraph, with sparse tables that store only nonzero entries.

Contracting each vertex pair (2i, 2i+1) to a single node turns the input
into a multigraph on n/2 nodes whose edges remember their original
endpoints as a two-element label.  Matchings of the input correspond
one-to-one to cycle covers of the contraction whose labels are pairwise
disjoint (equivalently: whose labels cover every original vertex).

Each cover is built once, in a canonical order: every new cycle starts at
the lowest node not yet covered.  An entry is keyed by M, the mask of the
original vertices its labels have consumed, and two associative tables are
pushed bottom-up in layers j = 0..k of j labels each (|M| = 2j):

  cover[M]      label-disjoint cycle covers of the induced sub-multigraph
                on the nodes both of whose vertices are in M, in which
                every cycle holds a node below the lowest node with a free
                vertex (so cycles were started in order, each at the lowest
                free node);
  path[M, y]    pairs of such a cover and an open cycle from its lowest
                free node a to a node b, whose labels consumed 2a at a and
                y at b, so that 2a+1 and y^1 are the free vertices at its
                ends.

The lowest vertex outside M is 2a for a cover entry, where the next cycle
starts, and 2a+1 for a path entry, which started at a.  A node e is free
iff M holds neither of its vertices.  A cover entry starts the next cycle
at a: a self-loop at a gives a cover entry at once, and a label {2a, v}
whose node is free seeds a path ending at v.  Every other free node is
above a, so a path never needs a test that it stays above its start.  A
path extends along a label {y^1, v} whose node is free, and closes with
the label {2a+1, y^1}; fixing which of a's two vertices comes first fixes
the direction in which each cycle is walked.  Every push consumes one label
and adds its two vertices to M, so it goes from layer j to layer j+1.
Since each cover arises in exactly one order and one direction, cover[all
vertices] in layer k is the unordered count and no division by the number
of cycles is needed.

The generator _strata yields each layer as (paths, covers), like
pm_bipartite._levels.  run_cover_dp pulls it by layers.drive and keeps only
the last layer, so two are live at once; states_visited sums their entries.

Neighbour rule.  Every entry leaves a set U of unmatched original vertices,
and U is exactly the complement of M.  An entry is stored only if every
vertex of U has a neighbour in U.  The labels that complete an entry into a
full cover are pairwise disjoint edges that cover exactly U, a perfect
matching of G[U], so an entry that breaks the rule has no completion and
dropping it leaves every count exact.  The root, M empty, obeys the rule
unless some vertex has no neighbour at all; then nothing is stored and the
count is 0.

Each push consumes the two vertices of one label, and the target's U is
the source's U less those two.  A vertex of the target's U that is
adjacent to neither of them keeps the neighbour it had in the source's U,
so when the source obeys the rule only the consumed pair's unmatched
neighbours need a check.  Every label carries the mask of its two vertices
and of their neighbours.  A push, written out inline in the DP loop, adds
its value to a key already stored; only on a key's first insert does it
test the consumed pair's unmatched neighbours, one bit at a time, and store
the key if each still has a neighbour in U, since a stored key passed the
check already.  So every stored key obeys the rule, and the stored set
depends on the graph and its labels alone, not on the order of the pushes.

Only nonzero entries are stored or pushed.  Every push follows an edge that
exists: one label list per original vertex, built once per call and
holding self-loops too, is the only table.  A cover entry scans the list
of 2a, where the label {2a, 2a+1} is the self-loop that closes a cycle at
once and any other label whose node is free seeds a path.  A path entry
scans the list of y^1, where the label {y^1, 2a+1} closes the cycle and
any other label whose node is free extends the path.  No other case
arises: a's node is not free at a path entry, since 2a is in M, and y's
node is never free, since y is in M.  One loop runs over the path table
and then the cover table, and differs between them only in the list it
scans and the label that closes a cycle.  So a cover entry costs the degree
of 2a, and a path entry the degree of y^1, each label one dict lookup and
add, plus, on each first insert, one mask test per unmatched neighbour of
the consumed pair.  On
random_regular(36, 3, 1), on its own labels, the rule cuts the stored
entries from 65,330 to 7,907 and the DP time about five-fold, while each
stored entry takes about 1.6 times as long (best of 7 to 21 runs, Python
3.11.7).

Pairing.  The contraction is exact for any pairing of the vertices, but the
stored entries depend on it.  count_pm_dp first relabels g so that pair i
is the i-th edge of a greedy maximal matching (_matching_labels), and the
vertices it leaves unmatched follow in index order; a count does not depend
on labels, so nothing is mapped back.  _strata, run_cover_dp and
build_contracted_graph keep the labels they are given.  On
random_regular(36, 3, 1) the stored entries are 65,330 without the
neighbour rule, 7,907 with it on the generator's labels, and 1,609 with it
on the greedy pairs.  The pass itself takes O(n^2) list operations.
"""

from __future__ import annotations

from .graphs import Graph, Record
from .layers import drive


class LabeledMultigraph(Record):
    """Multigraph on k nodes; edges are (p, q, x, y) with p <= q, where the
    label is the original-vertex pair {x, y}, x in {2p, 2p+1} and
    y in {2q, 2q+1}.  Self-loops (p == q) always carry {2p, 2p+1}.

    build_contracted_graph orients each edge as x < y, so p = x // 2 and
    q = y // 2 satisfy p <= q, and a self-loop's x < y is 2p < 2p+1.

    No label occurs twice: each {x, y} is one edge of a simple graph, which
    never repeats an edge, so a node has at most one self-loop and two
    nodes at most four edges, one per label.  _strata relies on this and
    counts every label once."""

    __slots__ = _fields = ("k", "edges")
    k: int
    edges: tuple[tuple[int, int, int, int], ...]


def build_contracted_graph(n: int, edges) -> LabeledMultigraph:
    """One labeled edge per edge of a simple graph on n vertices under the
    pair contraction v -> v//2.  An edge is any tuple whose first two
    entries are its endpoints, in either order, so g.edges passes as it is."""
    if n % 2 != 0:
        raise ValueError("vertex count must be even")
    pairs = (e[:2] for e in edges)
    labels = [(x // 2, y // 2, x, y) if x < y else (y // 2, x // 2, y, x) for x, y in pairs]
    return LabeledMultigraph(n // 2, tuple(sorted(labels)))


class PmDpResult(Record):
    __slots__ = _fields = ("count", "states_visited")
    count: int
    states_visited: int


def _strata(mg: LabeledMultigraph):
    """Yield (paths, covers) for each layer j = 0..k: its stored path
    entries keyed (M, y) and its stored cover entries keyed M, where M is
    the mask of the 2j original vertices its j labels consumed.  Yields
    nothing when some vertex has no neighbour."""
    k = mg.k
    # adj[v]: the neighbours of original vertex v, as a mask over 2k bits
    adj = [0] * (2 * k)
    for _, _, x, y in mg.edges:
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    if not all(adj):
        return
    adj_of_bit = {1 << v: nb for v, nb in enumerate(adj)}

    # Every label occurs at most once (see LabeledMultigraph), so each push
    # adds its source's value once.  at[u]: (v, node, used, touched) for
    # every label {u, v}, self-loops included, where node masks both
    # vertices of v's node, used masks u and v, and touched their neighbours
    at: list[list[tuple[int, int, int, int]]] = [[] for _ in range(2 * k)]
    for _, _, x, y in mg.edges:
        used, touched = (1 << x) | (1 << y), adj[x] | adj[y]
        at[x].append((y, 3 << (y & ~1), used, touched))
        at[y].append((x, 3 << (x & ~1), used, touched))

    full = (1 << 2 * k) - 1
    covers: dict[int, int] = {0: 1}
    paths: dict[tuple[int, int], int] = {}
    for j in range(k + 1):
        yield paths, covers
        if j == k:
            return
        next_covers: dict[int, int] = {}
        next_paths: dict[tuple[int, int], int] = {}
        for items, from_path in ((paths.items(), True), (covers.items(), False)):
            for key, val in items:
                # the lowest free vertex is 2a+1 for a path from a, closed
                # by the label {y^1, 2a+1}; 2a for a cover, by the self-loop
                if from_path:
                    m, y = key
                    close = (~m & (m + 1)).bit_length() - 1
                    labels = at[y ^ 1]
                else:
                    m = key
                    u = (~m & (m + 1)).bit_length() - 1
                    close, labels = u + 1, at[u]
                for v, node, used, touched in labels:
                    if v == close:
                        tgt, new = next_covers, m | used
                    elif not m & node:  # extend or seed a path to a free node
                        tgt, new = next_paths, (m | used, v)
                    else:
                        continue
                    old = tgt.get(new)
                    if old is not None:
                        tgt[new] = old + val
                        continue
                    # first insert: stored only if every unmatched vertex
                    # the consumed pair touched has a neighbour in rest
                    rest = full ^ m ^ used
                    c = touched & rest
                    while c:
                        low = c & -c
                        if not adj_of_bit[low] & rest:
                            break
                        c ^= low
                    else:
                        tgt[new] = val
        paths, covers = next_paths, next_covers


def run_cover_dp(mg: LabeledMultigraph) -> PmDpResult:
    """count: label-disjoint cycle covers of the whole node set, the last
    layer's entry for M = every original vertex, 0 if there is no layer;
    states_visited: the entries stored over every layer."""
    last, sizes = drive(_strata(mg), lambda layer: len(layer[0]) + len(layer[1]))
    count = sum(covers.get((1 << 2 * mg.k) - 1, 0) for _, covers in last)
    return PmDpResult(count, sum(sizes))


def _matching_labels(g: Graph) -> list[int]:
    """label[v]: the new label of v, under which pair i, (2i, 2i+1), is the
    i-th edge a greedy maximal matching picks, and the vertices it leaves
    unmatched follow in index order.

    The greedy pass repeatedly takes the live vertex with the fewest live
    neighbours and matches it to its live neighbour with the fewest live
    neighbours, ties by index in both; a vertex with no live neighbour is
    left over."""
    adj = g.adjacency  # rows of (neighbour, weight)
    deg = list(map(len, adj))  # deg[v]: v's live neighbours while v is live
    live = list(range(g.n))
    alive = [True] * g.n
    order: list[int] = []
    leftover: list[int] = []
    while live:
        u = min(live, key=deg.__getitem__)
        live.remove(u)
        alive[u] = False
        near = [w for w, _ in adj[u] if alive[w]]
        if not near:
            leftover.append(u)
            continue
        # every vertex of near still counts u, so the minimum is unchanged
        v = min(near, key=deg.__getitem__)
        live.remove(v)
        alive[v] = False
        order += (u, v)
        for w in near:
            deg[w] -= 1
        for w, _ in adj[v]:
            if alive[w]:
                deg[w] -= 1
    label = [0] * g.n
    for i, v in enumerate(order + sorted(leftover)):
        label[v] = i
    return label


def count_pm_dp(g: Graph) -> PmDpResult:
    """Exact number of perfect matchings via the contracted cover DP, run on
    g relabelled by _matching_labels (a count does not depend on labels)."""
    if g.n % 2 != 0:
        return PmDpResult(0, 0)
    label = _matching_labels(g)
    pairs = [(label[u], label[v]) for u, v, _ in g.edges]
    return run_cover_dp(build_contracted_graph(g.n, pairs))
