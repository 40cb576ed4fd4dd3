"""Perfect-matching counting as label-disjoint cycle covers of a contracted
multigraph, with sparse tables that store only nonzero entries.

Contracting each vertex pair (2i, 2i+1) to a single node turns the input
into a multigraph on n/2 nodes whose edges remember their original
endpoints as a two-element label.  Matchings of the input correspond
one-to-one to cycle covers of the contraction whose labels are pairwise
disjoint (equivalently: whose labels cover every original vertex).

Covers are counted by cycle count q via two associative tables pushed
bottom-up in (q, |X|) strata:

  cover[q][X]           ordered q-cycle covers of the induced sub-multigraph
                        on X with pairwise disjoint labels;
  path[q][X][a][b][x]   pairs of an ordered q-cycle cover on some Y inside X
                        and an a-b path on the rest of X avoiding nodes
                        below a, whose end labels are pinned: the label at a
                        contains original vertex 2a, the one at b contains
                        2b+x.

Each cover's last cycle is charged once: a one-node cycle (self-loop) comes
straight from cover[q-1], a longer cycle closes a path at its lowest node a
with an edge whose label contains 2a+1.  Only nonzero entries are stored or
pushed.  Every push follows an edge that exists: per-(node, label bit)
neighbour lists, built once per call, give the edges that seed or extend a
path, and one dictionary lookup per path entry finds the edges that close
it.  So a path entry costs the degree of its endpoint, and a cover entry one
bit test per node plus the paths it seeds: the work is proportional to the
number of stored states times the degree, not times the node count k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import unordered_total
from .graphs import Graph


@dataclass(frozen=True)
class LabeledMultigraph:
    """Multigraph on k nodes; edges are (p, q, x, y) with p <= q, where the
    label is the original-vertex pair {x, y}, x in {2p, 2p+1} and
    y in {2q, 2q+1}.  Self-loops (p == q) always carry {2p, 2p+1}."""

    k: int
    edges: tuple[tuple[int, int, int, int], ...]

    def label(self, edge_index: int) -> frozenset[int]:
        _, _, x, y = self.edges[edge_index]
        return frozenset((x, y))


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
    """full_covers[q]: ordered q-cycle covers of the whole node set;
    states_visited counts every nonzero table entry; key dumps are kept
    only when requested."""

    full_covers: dict[int, int]
    states_visited: int
    cover_keys: tuple[tuple[int, int], ...] | None
    path_keys: tuple[tuple[int, int, int, int, int], ...] | None


def run_cover_dp(mg: LabeledMultigraph, keep_keys: bool = False) -> CoverDpRun:
    k = mg.k
    full = (1 << k) - 1
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
    # seeds[a]: edges a-b with b > a whose label contains 2a
    seeds = [[(b, xb, mult) for b, xb, mult in nbr[a][0] if b > a] for a in range(k)]
    seed_nodes = [a for a in range(k) if seeds[a]]

    loop_nodes = [a for a in range(k) if loops[a]]
    cover_strata: dict[tuple[int, int], dict[int, int]] = {(0, 0): {0: 1}}
    path_strata: dict[tuple[int, int], dict[tuple[int, int, int, int], int]] = {}
    full_covers: dict[int, int] = {}
    states = 0
    cover_keys: list[tuple[int, int]] = []
    path_keys: list[tuple[int, int, int, int, int]] = []

    for q in range(k + 1):
        for i in range(k + 1):
            cur = cover_strata.pop((q, i), None)
            if cur:
                states += len(cur)
                if keep_keys:
                    cover_keys.extend((q, x) for x in cur)
                if full in cur:
                    full_covers[q] = cur[full]
                loop_tgt = cover_strata.setdefault((q + 1, i + 1), {})
                seed_tgt = path_strata.setdefault((q, i + 2), {})
                for x_mask, val in cur.items():
                    # last cycle is a self-loop at a
                    for a in loop_nodes:
                        if not (x_mask >> a) & 1:
                            nk = x_mask | (1 << a)
                            loop_tgt[nk] = loop_tgt.get(nk, 0) + val * loops[a]
                    # seed a path a-b (the label at a must contain 2a)
                    for a in seed_nodes:
                        if (x_mask >> a) & 1:
                            continue
                        xa = x_mask | (1 << a)
                        for b, xb, mult in seeds[a]:
                            if not (x_mask >> b) & 1:
                                pk = (xa | (1 << b), a, b, xb)
                                seed_tgt[pk] = seed_tgt.get(pk, 0) + val * mult

            cur2 = path_strata.pop((q, i), None)
            if cur2:
                states += len(cur2)
                if keep_keys:
                    path_keys.extend((q, x, a, b, xb) for (x, a, b, xb) in cur2)
                close_tgt = cover_strata.setdefault((q + 1, i), {})
                extend_tgt = path_strata.setdefault((q, i + 1), {})
                for (x_mask, a, c, z), val in cur2.items():
                    # close the cycle: edge a-c whose label is {2a+1, 2c+(z^1)}
                    mult = closing[a].get((c, z ^ 1))
                    if mult:
                        close_tgt[x_mask] = close_tgt.get(x_mask, 0) + val * mult
                    # extend the path endpoint from c to a free e > a
                    for e, xe, mult in nbr[c][z ^ 1]:
                        if e > a and not (x_mask >> e) & 1:
                            pk = (x_mask | (1 << e), a, e, xe)
                            extend_tgt[pk] = extend_tgt.get(pk, 0) + val * mult

    return CoverDpRun(
        full_covers,
        states,
        tuple(cover_keys) if keep_keys else None,
        tuple(path_keys) if keep_keys else None,
    )


def count_label_disjoint_covers(mg: LabeledMultigraph) -> int:
    """Number of cycle covers of mg whose edge labels are pairwise disjoint."""
    return unordered_total(run_cover_dp(mg).full_covers.items())


@dataclass(frozen=True)
class PmDpResult:
    count: int
    states_visited: int


def count_pm_dp(g: Graph) -> PmDpResult:
    """Exact number of perfect matchings via the contracted cover DP."""
    if g.n % 2 != 0:
        return PmDpResult(0, 0)
    mg = build_contracted_graph(g)
    run = run_cover_dp(mg)
    return PmDpResult(unordered_total(run.full_covers.items()), run.states_visited)
