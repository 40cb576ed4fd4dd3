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

Only nonzero entries are stored or pushed.  Every push follows an edge that
exists: per-(node, label bit) neighbour lists, built once per call, give
the edges that seed or extend a path, and one dictionary lookup per path
entry finds the edges that close it.  So a cover entry costs the degree of
its lowest free node, and a path entry the degree of its endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class LabeledMultigraph:
    """Multigraph on k nodes; edges are (p, q, x, y) with p <= q, where the
    label is the original-vertex pair {x, y}, x in {2p, 2p+1} and
    y in {2q, 2q+1}.  Self-loops (p == q) always carry {2p, 2p+1}."""

    k: int
    edges: tuple[tuple[int, int, int, int], ...]


def build_contracted_graph(g: Graph) -> LabeledMultigraph:
    """One labeled edge per input edge under the pair contraction v -> v//2."""
    if g.n % 2 != 0:
        raise ValueError("vertex count must be even")
    edges = []
    for x, y, _ in g.edges:
        p, q = x // 2, y // 2
        if p > q:
            p, q, x, y = q, p, y, x
        elif p == q:
            x, y = min(x, y), max(x, y)
        edges.append((p, q, x, y))
    return LabeledMultigraph(g.n // 2, tuple(sorted(edges)))


@dataclass(frozen=True)
class CoverDpRun:
    """count: label-disjoint cycle covers of the whole node set;
    states_visited counts every nonzero table entry; key dumps (cover keys
    X, path keys (X, a, b, x)) are kept only when requested."""

    count: int
    states_visited: int
    cover_keys: tuple[int, ...] | None
    path_keys: tuple[tuple[int, int, int, int], ...] | None


def run_cover_dp(mg: LabeledMultigraph, keep_keys: bool = False) -> CoverDpRun:
    k = mg.k
    loops = [0] * k
    emult: dict[tuple[int, int, int, int], int] = {}
    for p, q, x, y in mg.edges:
        if p == q:
            loops[p] += 1
        else:
            key = (p, q, x & 1, y & 1)
            emult[key] = emult.get(key, 0) + 1

    # nbr[p][bp]: (q, bq, mult) for the mult edges p-q (q != p) whose label
    # is {2p+bp, 2q+bq}
    nbr: list[tuple[list[tuple[int, int, int]], ...]] = [([], []) for _ in range(k)]
    for (p, q, bp, bq), mult in emult.items():
        nbr[p][bp].append((q, bq, mult))
        nbr[q][bq].append((p, bp, mult))
    # closing[a][(c, bc)]: edges a-c whose label is {2a+1, 2c+bc}
    closing = [{(c, bc): mult for c, bc, mult in nbr[a][1]} for a in range(k)]

    cover_strata: dict[int, dict[int, int]] = {0: {0: 1}}
    path_strata: dict[int, dict[tuple[int, int, int, int], int]] = {}
    states = 0
    cover_keys: list[int] = []
    path_keys: list[tuple[int, int, int, int]] = []

    for i in range(k + 1):
        # closing a path keeps |X|, so this stratum's paths run first
        covers = cover_strata.pop(i, {})
        paths = path_strata.pop(i, None)
        if paths:
            states += len(paths)
            if keep_keys:
                path_keys.extend(paths)
            extend_tgt = path_strata.setdefault(i + 1, {})
            for (x_mask, a, c, z), val in paths.items():
                # close the cycle: edge a-c whose label is {2a+1, 2c+(z^1)}
                mult = closing[a].get((c, z ^ 1))
                if mult:
                    covers[x_mask] = covers.get(x_mask, 0) + val * mult
                # extend the path endpoint from c to a free e (above a)
                for e, xe, mult in nbr[c][z ^ 1]:
                    if not (x_mask >> e) & 1:
                        pk = (x_mask | (1 << e), a, e, xe)
                        extend_tgt[pk] = extend_tgt.get(pk, 0) + val * mult

        states += len(covers)
        if keep_keys:
            cover_keys.extend(covers)
        if i == k or not covers:
            continue
        loop_tgt = cover_strata.setdefault(i + 1, {})
        seed_tgt = path_strata.setdefault(i + 2, {})
        for x_mask, val in covers.items():
            # the next cycle starts at a, the lowest node outside X
            low = ~x_mask & (x_mask + 1)
            a = low.bit_length() - 1
            xa = x_mask | low
            if loops[a]:
                loop_tgt[xa] = loop_tgt.get(xa, 0) + val * loops[a]
            # seed a path a-b (the label at a must contain 2a)
            for b, xb, mult in nbr[a][0]:
                if not (x_mask >> b) & 1:
                    pk = (xa | (1 << b), a, b, xb)
                    seed_tgt[pk] = seed_tgt.get(pk, 0) + val * mult

    return CoverDpRun(
        covers.get((1 << k) - 1, 0),
        states,
        tuple(cover_keys) if keep_keys else None,
        tuple(path_keys) if keep_keys else None,
    )


@dataclass(frozen=True)
class PmDpResult:
    count: int
    states_visited: int


def count_pm_dp(g: Graph) -> PmDpResult:
    """Exact number of perfect matchings via the contracted cover DP."""
    if g.n % 2 != 0:
        return PmDpResult(0, 0)
    run = run_cover_dp(build_contracted_graph(g))
    return PmDpResult(run.count, run.states_visited)
