"""Perfect-matching counting as label-disjoint cycle covers of a contracted
multigraph, with sparse tables that store only nonzero entries.

Contracting each vertex pair (2i, 2i+1) to a single node turns the input
into a multigraph on n/2 nodes whose edges remember their original
endpoints as a two-element label.  Matchings of the input correspond
one-to-one to cycle covers of the contraction whose labels are pairwise
disjoint (equivalently: whose labels cover every original vertex).

Each cover is built once, in a canonical order: every new cycle starts at
the lowest node not yet covered.  Two associative tables are pushed
bottom-up in |X| strata:

  cover[X]            label-disjoint cycle covers of the induced
                      sub-multigraph on X in which every cycle holds a node
                      below the lowest node outside X (so cycles were
                      started in order, each at the lowest free node);
  path[X][a][b][x]    pairs of such a cover of some Y inside X, where a is
                      the lowest node outside Y, and an a-b path on the rest
                      of X, whose end labels are pinned: the label at a
                      contains original vertex 2a, the one at b contains
                      2b+x.

A cover entry X starts the next cycle at a, its lowest free node: a
self-loop at a gives cover[X + a] at once, and an edge a-b whose label
contains 2a seeds a path.  Every other free node is above a, so a path
never needs a test that it stays above its start.  A path closes with an
edge a-c whose label contains 2a+1; fixing which of a's two labels comes
first fixes the direction in which each cycle is walked.  Closing keeps
|X|, so within a stratum the path entries are processed before the cover
entries they feed.  Since each cover arises in exactly one order and one
direction, cover[all nodes] is the unordered count and no division by the
number of cycles is needed.

The generator _strata yields each stratum as (paths, covers), in the
pattern of pm_bipartite._levels, and drops it when it moves on;
run_cover_dp sums their entries into states_visited.

Neighbour rule.  Every entry leaves a set U of unmatched original vertices:
both vertices of each node outside X, and for a path (X, a, b, x) also
2a+1 and 2b+(x^1).  An entry is stored only if every vertex of U has a
neighbour in U.  The labels that complete an entry into a full cover are
pairwise disjoint edges that cover exactly U, a perfect matching of G[U],
so an entry that breaks the rule has no completion and dropping it leaves
every count exact.  The root, X empty, obeys the rule unless some vertex
has no neighbour at all; then nothing is stored and the count is 0.

Each push (self-loop, seed, extend or close) consumes the two endpoints of
one label, and the target's U is the source's U less those two.  A vertex
of the target's U that is adjacent to neither of them keeps the neighbour
it had in the source's U, so when the source obeys the rule only the
consumed pair's unmatched neighbours need a check.  Every label carries
the mask of its pair and of the pair's neighbours, and U is built once
per source entry by spreading the bits of the nodes outside X.  The check
runs on a key's first insert only, since a stored key passed it already.
So every stored key obeys the rule, and the stored set depends on the
graph and its labels alone, not on the order of the pushes.

Only nonzero entries are stored or pushed.  Every push follows an edge that
exists: per-(node, label bit) neighbour lists, built once per call, give
the edges that seed or extend a path, and one dictionary lookup per path
entry finds the edges that close it.  So a cover entry costs the degree of
its lowest free node, and a path entry the degree of its endpoint, plus, on
each first insert, one mask test per unmatched neighbour of the consumed
pair.  The rule cuts the stored entries of cubic graphs by an order of
magnitude, while each stored entry takes about three and a half times as
long.

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

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class LabeledMultigraph:
    """Multigraph on k nodes; edges are (p, q, x, y) with p <= q, where the
    label is the original-vertex pair {x, y}, x in {2p, 2p+1} and
    y in {2q, 2q+1}.  Self-loops (p == q) always carry {2p, 2p+1}.

    Graph.edges holds every edge as (x, y) with x < y, so p = x // 2 and
    q = y // 2 already satisfy p <= q, and a self-loop's x < y is 2p < 2p+1;
    build_contracted_graph needs no swap."""

    k: int
    edges: tuple[tuple[int, int, int, int], ...]


def build_contracted_graph(g: Graph) -> LabeledMultigraph:
    """One labeled edge per input edge under the pair contraction v -> v//2."""
    if g.n % 2 != 0:
        raise ValueError("vertex count must be even")
    edges = [(x // 2, y // 2, x, y) for x, y, _ in g.edges]
    return LabeledMultigraph(g.n // 2, tuple(sorted(edges)))


@dataclass(frozen=True)
class PmDpResult:
    count: int
    states_visited: int


def _pair_bits(x_mask: int) -> int:
    """The original vertices 2i and 2i+1 of every node i in x_mask (a Graph
    has at most 64 vertices, so x_mask < 2^32)."""
    x = (x_mask | x_mask << 16) & 0x0000FFFF0000FFFF
    x = (x | x << 8) & 0x00FF00FF00FF00FF
    x = (x | x << 4) & 0x0F0F0F0F0F0F0F0F
    x = (x | x << 2) & 0x3333333333333333
    x = (x | x << 1) & 0x5555555555555555
    return x * 3


def _strata(mg: LabeledMultigraph):
    """Yield (paths, covers) for each stratum |X| = 0..k: its stored path
    entries keyed (X, a, b, x) and its stored cover entries keyed X, once
    its paths have closed into its covers.  Yields nothing when some vertex
    has no neighbour."""
    k = mg.k
    # adj[v]: the neighbours of original vertex v, as a mask over 2k bits
    adj = [0] * (2 * k)
    loops = [0] * k
    emult: dict[tuple[int, int, int, int], int] = {}
    for p, q, x, y in mg.edges:
        adj[x] |= 1 << y
        adj[y] |= 1 << x
        if p == q:
            loops[p] += 1
        else:
            key = (p, q, x & 1, y & 1)
            emult[key] = emult.get(key, 0) + 1
    if not all(adj):
        return
    adj_of_bit = {1 << v: nb for v, nb in enumerate(adj)}

    def push(tgt: dict, key, add: int, rest: int, touched: int) -> None:
        """tgt[key] += add.  A new key is stored only if every vertex of its
        unmatched set rest that the consumed pair touched still has a
        neighbour in rest."""
        old = tgt.get(key)
        if old is not None:
            tgt[key] = old + add
            return
        m = touched & rest
        while m:
            low = m & -m
            if not adj_of_bit[low] & rest:
                return
            m ^= low
        tgt[key] = add

    def pair(u: int, v: int) -> tuple[int, int]:
        """The mask of a consumed label {u, v} and of its neighbours."""
        return (1 << u) | (1 << v), adj[u] | adj[v]

    # loop_pair[a]: a self-loop at a consumes 2a and 2a+1
    loop_pair = [pair(2 * a, 2 * a + 1) for a in range(k)]
    # nbr[p][bp]: (q, bq, mult, used, touched) for the mult edges p-q
    # (q != p) whose label is {2p+bp, 2q+bq}
    nbr: list[tuple[list[tuple[int, int, int, int, int]], ...]] = [
        ([], []) for _ in range(k)
    ]
    for (p, q, bp, bq), mult in emult.items():
        used, touched = pair(2 * p + bp, 2 * q + bq)
        nbr[p][bp].append((q, bq, mult, used, touched))
        nbr[q][bq].append((p, bp, mult, used, touched))
    # closing[a][(c, bc)]: (mult, used, touched) for the edges a-c whose
    # label is {2a+1, 2c+bc}
    closing = [{(c, bc): entry for c, bc, *entry in nbr[a][1]} for a in range(k)]

    full = (1 << k) - 1
    cover_strata: dict[int, dict[int, int]] = {0: {0: 1}}
    path_strata: dict[int, dict[tuple[int, int, int, int], int]] = {}

    for i in range(k + 1):
        # closing a path keeps |X|, so this stratum's paths run first
        covers = cover_strata.pop(i, {})
        paths = path_strata.pop(i, {})
        if paths:
            extend_tgt = path_strata.setdefault(i + 1, {})
            for (x_mask, a, c, z), val in paths.items():
                unmatched = (
                    _pair_bits(full & ~x_mask) | 1 << (2 * a + 1) | 1 << (2 * c + (z ^ 1))
                )
                # close the cycle: edge a-c whose label is {2a+1, 2c+(z^1)}
                entry = closing[a].get((c, z ^ 1))
                if entry:
                    mult, used, touched = entry
                    push(covers, x_mask, val * mult, unmatched ^ used, touched)
                # extend the path endpoint from c to a free e (above a)
                for e, xe, mult, used, touched in nbr[c][z ^ 1]:
                    if not (x_mask >> e) & 1:
                        pk = (x_mask | (1 << e), a, e, xe)
                        push(extend_tgt, pk, val * mult, unmatched ^ used, touched)

        yield paths, covers
        if i == k or not covers:
            continue
        loop_tgt = cover_strata.setdefault(i + 1, {})
        seed_tgt = path_strata.setdefault(i + 2, {})
        for x_mask, val in covers.items():
            unmatched = _pair_bits(full & ~x_mask)
            # the next cycle starts at a, the lowest node outside X
            low = ~x_mask & (x_mask + 1)
            a = low.bit_length() - 1
            xa = x_mask | low
            if loops[a]:
                used, touched = loop_pair[a]
                push(loop_tgt, xa, val * loops[a], unmatched ^ used, touched)
            # seed a path a-b (the label at a must contain 2a)
            for b, xb, mult, used, touched in nbr[a][0]:
                if not (x_mask >> b) & 1:
                    pk = (xa | (1 << b), a, b, xb)
                    push(seed_tgt, pk, val * mult, unmatched ^ used, touched)


def run_cover_dp(mg: LabeledMultigraph) -> PmDpResult:
    """count: label-disjoint cycle covers of the whole node set;
    states_visited: the entries stored over every stratum."""
    count = states = 0
    for paths, covers in _strata(mg):
        states += len(paths) + len(covers)
        count = covers.get((1 << mg.k) - 1, 0)
        del paths, covers  # let _strata free this stratum when it moves on
    return PmDpResult(count, states)


def _matching_labels(g: Graph) -> list[int]:
    """label[v]: the new label of v, under which pair i, (2i, 2i+1), is the
    i-th edge a greedy maximal matching picks, and the vertices it leaves
    unmatched follow in index order.

    The greedy pass repeatedly takes the live vertex with the fewest live
    neighbours and matches it to its live neighbour with the fewest live
    neighbours, ties by index in both; a vertex with no live neighbour is
    left over."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    deg = list(map(len, nbrs))  # deg[v]: v's live neighbours while v is live
    live = list(range(g.n))
    alive = [True] * g.n
    order: list[int] = []
    leftover: list[int] = []
    while live:
        u = min(live, key=deg.__getitem__)
        live.remove(u)
        alive[u] = False
        near = [w for w in nbrs[u] if alive[w]]
        if not near:
            leftover.append(u)
            continue
        # every vertex of near still counts u, so the minimum is unchanged
        v = min(near, key=deg.__getitem__)
        live.remove(v)
        alive[v] = False
        order += (u, v)
        for w in near + [w for w in nbrs[v] if alive[w]]:
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
    paired = Graph(g.n, [(label[u], label[v], w) for u, v, w in g.edges])
    return run_cover_dp(build_contracted_graph(paired))
