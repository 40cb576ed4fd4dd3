"""Shared graph builders and seeded ensembles for the test suite."""

import random
from collections.abc import Iterable
from dataclasses import dataclass
from math import factorial

import pytest

from expdeg import (
    BipartiteGraph,
    CapacityError,
    Graph,
    InputFormatError,
    random_gnm,
    random_regular,
)
from expdeg.errors import _shown
from expdeg.graphs import VERTEX_CAPACITY
from expdeg.pm_dp import LabeledMultigraph
from expdeg.pm_inex import build_arc_graph
from expdeg.tsp import _path_layers


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int, weights=None) -> Graph:
    if weights is None:
        weights = [1] * (n - 1)
    return Graph.from_edges(n, [(i, i + 1, w) for i, w in enumerate(weights)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def k33_graph() -> Graph:
    return Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def bowtie_graph() -> Graph:
    # two triangles sharing vertex 2
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def matching_graph(pairs: int) -> Graph:
    return Graph.from_edges(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


def plus_z(g: Graph, a: int, b: int) -> Graph:
    """g + z: one added vertex z = n joined to a and b by weight-0 edges."""
    return Graph(g.n + 1, [*g.edges, (a, g.n, 0), (b, g.n, 0)])


def general_form(b: BipartiteGraph) -> Graph:
    """b as a general graph, A-vertex i as i and B-vertex j as k + j: it has
    the same perfect matchings."""
    return Graph(2 * b.k, [(i, b.k + j, 1) for i, j in b.edges])


def path_dp_states(g: Graph, a: int) -> list[tuple[int, int]]:
    """Every (visited-set, endpoint) state the full sparse cycle DP (all n
    layers, completion test and anchor rule) keeps from anchor a; a None
    endpoint slot holds none."""
    return [
        (mask, v)
        for layer in _path_layers(g, a)
        for v, masks in enumerate(layer)
        if masks is not None
        for mask in masks
    ]


def complete_bipartite(k: int) -> BipartiteGraph:
    return BipartiteGraph.from_edges(k, [(i, j) for i in range(k) for j in range(k)])


def seeded_graph(seed: int, n_max: int, n_min: int = 2) -> Graph:
    """Deterministic random graph: n uniform in [n_min, n_max], m uniform."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    m = rng.randint(0, n * (n - 1) // 2)
    return random_gnm(n, m, rng.randrange(2**32))


def seeded_weighted_graph(seed: int, n_max: int, n_min: int = 2, w_max: int = 12) -> Graph:
    rng = random.Random(seed)
    g = seeded_graph(seed, n_max, n_min)
    return Graph.from_edges(
        g.n, [(u, v, rng.randint(0, w_max)) for u, v, _ in g.edges]
    )


def seeded_bipartite(seed: int, k_max: int, k_min: int = 1) -> BipartiteGraph:
    rng = random.Random(seed)
    k = rng.randint(k_min, k_max)
    m = rng.randint(0, k * k)
    from expdeg import random_bipartite

    return random_bipartite(k, m, rng.randrange(2**32))


def tour_weight(g: Graph, order, cycle: bool) -> int:
    """Independent edge-by-edge verification of a reported tour."""
    assert sorted(order) == list(range(g.n)), "order must visit every vertex once"
    total = 0
    steps = len(order) if cycle else len(order) - 1
    for i in range(steps):
        u, v = order[i], order[(i + 1) % len(order)]
        assert g.has_edge(u, v), f"({u},{v}) is not an edge"
        total += g.weight(u, v)
    return total


def reference_parse_graph(text: str) -> Graph | BipartiteGraph:
    """parse_graph as it read a text before its one-pass rewrite: each line
    stripped, then split, and every edge line converted by tuple(map(int,
    ...)).  The checks of the Graph and BipartiteGraph constructors that it
    relied on run here in the same order, with the same messages, on the
    edge's own line; a graph that passes them is built by the constructor.
    The int-type checks are left out: int() only returns ints."""
    lines = text.removeprefix("\ufeff").splitlines()
    content: list[tuple[int, list[str]]] = []
    for idx, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((idx, stripped.split()))
    if not content:
        raise InputFormatError("empty input, expected a 'graph' or 'bigraph' header")

    header_line, header = content[0]
    if len(header) != 3 or header[0] not in ("graph", "bigraph"):
        raise InputFormatError(
            "header must be 'graph <n> <m>' or 'bigraph <k> <m>'", header_line
        )
    try:
        size, m = int(header[1]), int(header[2])
    except ValueError:
        raise InputFormatError("header sizes must be integers", header_line) from None
    if size < 0 or m < 0:
        raise InputFormatError("header sizes must be nonnegative", header_line)
    graph = header[0] == "graph"
    if size > VERTEX_CAPACITY:
        what = "vertex count" if graph else "bipartite side size"
        raise CapacityError(
            f"line {header_line}: {what} is {_shown(size)}, capacity is {VERTEX_CAPACITY}"
        )

    body = content[1:]
    if len(body) != m:
        raise InputFormatError(
            f"header declares {m} edges but {len(body)} edge lines found", header_line
        )
    edges = []
    for line_no, tok in body:
        if graph and len(tok) not in (2, 3):
            raise InputFormatError("edge line must be 'u v' or 'u v w'", line_no)
        if not graph and len(tok) != 2:
            raise InputFormatError("bipartite edge line must be 'i j'", line_no)
        try:
            edges.append(tuple(map(int, tok)))
        except ValueError:
            raise InputFormatError("edge fields must be integers", line_no) from None

    seen = set()
    for (line_no, _), edge in zip(body, edges):
        if graph:
            u, v, w = edge if len(edge) == 3 else (*edge, 1)
            if not (0 <= u < size and 0 <= v < size):
                raise InputFormatError(f"edge ({u},{v}) out of range for n={size}", line_no)
            if u == v:
                raise InputFormatError(f"self-loop at vertex {u}", line_no)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputFormatError(f"duplicate edge ({u},{v})", line_no)
            if w < 0:
                raise InputFormatError(f"negative weight on edge ({u},{v})", line_no)
        else:
            key = i, j = edge
            if not (0 <= i < size and 0 <= j < size):
                raise InputFormatError(f"edge ({i},{j}) out of range for k={size}", line_no)
            if key in seen:
                raise InputFormatError(f"duplicate edge ({i},{j})", line_no)
        seen.add(key)
    if graph:
        return Graph(size, [e if len(e) == 3 else (*e, 1) for e in edges])
    return BipartiteGraph(size, edges)


@pytest.fixture
def named_small_graphs():
    return {
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "K33": k33_graph(),
        "Petersen": petersen_graph(),
    }


def cycle_distribution_cases():
    """Graphs with edges inside a pair (arc self-loops), disconnected graphs
    and cubic graphs at n = 14 and 16."""
    rng = random.Random(11)
    cases = []
    for i in range(12):
        g = seeded_graph(i + 4000, 10, n_min=4)
        n = g.n - g.n % 2
        edges = [(u, v) for u, v, _ in g.edges if v < n]
        edges += [(2 * p, 2 * p + 1) for p in range(n // 2) if rng.random() < 0.5]
        cases.append(Graph.from_edges(n, set(edges)))
    for i in range(8):
        # two even components with about 2 edges per vertex, so that most
        # unions have perfect matchings
        left_n, right_n = rng.choice([(4, 6), (6, 6), (4, 8), (6, 8)])
        left = random_gnm(left_n, min(2 * left_n, left_n * (left_n - 1) // 2), i)
        right = random_gnm(right_n, 2 * right_n, i + 100)
        edges = [(u, v) for u, v, _ in left.edges]
        edges += [(u + left_n, v + left_n) for u, v, _ in right.edges]
        cases.append(Graph.from_edges(left_n + right_n, edges))
    for n in (14, 16):
        for seed in (1, 2, 3):
            cases.append(random_regular(n, 3, seed))
    return cases


@dataclass(frozen=True)
class OrderedCoverRun:
    """full_covers[q]: ordered q-cycle covers of the whole node set;
    states_visited counts every nonzero table entry."""

    full_covers: dict[int, int]
    states_visited: int
    cover_keys: tuple[tuple[int, int], ...]
    path_keys: tuple[tuple[int, int, int, int, int], ...]


def naive_cover_dp(mg: LabeledMultigraph) -> OrderedCoverRun:
    """Reference DP over ordered cycle covers, in (q, |X|) strata: cover keys
    are (q, X), path keys (q, X, a, b, x) with every other path node above
    its start a, which may be any free node.  It seeds a path by scanning
    every free pair (a, b) and extends it by scanning every e > a, two label
    bits each, through an edge-multiplicity lookup.  Each unordered cover
    with q cycles is counted q! times in full_covers[q]."""
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

    def edge_count(p, bp, q, bq):
        if p < q:
            return emult.get((p, q, bp, bq), 0)
        return emult.get((q, p, bq, bp), 0)

    cover_strata = {(0, 0): {0: 1}}
    path_strata = {}
    full_covers = {}
    states = 0
    cover_keys = []
    path_keys = []
    for q in range(k + 1):
        for i in range(k + 1):
            cur = cover_strata.pop((q, i), None)
            if cur:
                states += len(cur)
                cover_keys.extend((q, x) for x in cur)
                if full in cur:
                    full_covers[q] = cur[full]
                for x_mask, val in cur.items():
                    free = [a for a in range(k) if not (x_mask >> a) & 1]
                    for a in free:
                        if loops[a]:
                            tgt = cover_strata.setdefault((q + 1, i + 1), {})
                            nk = x_mask | (1 << a)
                            tgt[nk] = tgt.get(nk, 0) + val * loops[a]
                    for ai, a in enumerate(free):
                        for b in free[ai + 1:]:
                            for xb in (0, 1):
                                mult = edge_count(a, 0, b, xb)
                                if mult:
                                    tgt = path_strata.setdefault((q, i + 2), {})
                                    pk = (x_mask | (1 << a) | (1 << b), a, b, xb)
                                    tgt[pk] = tgt.get(pk, 0) + val * mult
            cur = path_strata.pop((q, i), None)
            if cur:
                states += len(cur)
                path_keys.extend((q, x, a, b, xb) for (x, a, b, xb) in cur)
                for (x_mask, a, c, z), val in cur.items():
                    mult = edge_count(a, 1, c, z ^ 1)
                    if mult:
                        tgt = cover_strata.setdefault((q + 1, i), {})
                        tgt[x_mask] = tgt.get(x_mask, 0) + val * mult
                    for e in range(a + 1, k):
                        if (x_mask >> e) & 1:
                            continue
                        for xe in (0, 1):
                            mult = edge_count(c, z ^ 1, e, xe)
                            if mult:
                                tgt = path_strata.setdefault((q, i + 1), {})
                                pk = (x_mask | (1 << e), a, e, xe)
                                tgt[pk] = tgt.get(pk, 0) + val * mult
    return OrderedCoverRun(full_covers, states, tuple(cover_keys), tuple(path_keys))


def unordered_total(ordered: Iterable[tuple[int, int]]) -> int:
    """Sum of count // r! over (r, count) pairs, where count tallies ordered
    r-tuples of distinct members, so that it must be a nonnegative multiple
    of r!; anything else means the count is wrong and raises."""
    total = 0
    for r, count in ordered:
        f = factorial(r)
        if count < 0 or count % f != 0:
            raise AssertionError(
                f"ordered count for r={r} is {count}, not a nonnegative multiple of {r}!"
            )
        total += count // f
    return total


def naive_walk_tuples(per_len: list[int]) -> list[int]:
    """Reference knapsack: t[q] ordered q-tuples of walks of total length
    L = len(per_len) - 1, given per_len[j] walks of each length j >= 1."""
    total = len(per_len) - 1
    t = [[0] * (total + 1) for _ in range(total + 1)]
    t[0][0] = 1
    for q in range(1, total + 1):
        for i in range(total + 1):
            t[q][i] = sum(per_len[j] * t[q - 1][i - j] for j in range(1, i + 1))
    return [row[total] for row in t]


def naive_anchored_walks(out: tuple, anchor: int, allowed: int) -> list[int]:
    """counts[j] for 0 <= j <= n/2: closed walks of length j from anchor
    that visit the anchor only at their ends and otherwise stay on vertices
    above it whose bit is set in the allowed mask (the anchor's own bit is
    not read)."""
    max_len = len(out) // 2
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


def eliminate_vertex(table: list[list[int]], v: int, trunc: int) -> list[list[int]]:
    """Reference single-vertex fold of a packed walk table: the v x v table
    over vertices 0..v-1 whose walks may also pass through v,
    T[u][w] + T[u][v] * star(T[v][v]) * T[v][w], with star(s) = 1 + s +
    s^2 + ... summed term by term until a power vanishes under trunc.
    Rows and columns past v are not read, and table is not modified."""
    loops, power = 1, 1
    while power := power * table[v][v] & trunc:
        loops += power
    tail = [table[v][w] * loops & trunc for w in range(v)]
    return [
        [table[u][w] + (table[u][v] * tail[w] & trunc) for w in range(v)]
        for u in range(v)
    ]


def degree_field_width(g: Graph) -> int:
    """The maximum-degree field width, F = bitlen(D^h * 8^h) + 1 with h =
    n/2 and D = max(1, maximum degree): walk series count at most D^h
    walks, products at most (4D)^h walk tuples, and each leaf sum adds at
    most 2^h products."""
    half = g.n // 2
    delta = max((g.degree(v) for v in range(g.n)), default=0)
    return (max(delta, 1) ** half * 8**half).bit_length() + 1


def naive_inex_accumulators(g: Graph) -> list[int]:
    """Reference ordered inclusion-exclusion: acc[r] (1-indexed) sums, over
    every label subset I with sign (-1)^|I|, the ordered r-tuples of walks
    of total length n/2 anchored at the even vertices of the labels outside
    I, so it equals r! times the number of matchings whose pairing overlay
    splits into exactly r cycles."""
    half = g.n // 2
    ag = build_arc_graph(g, range(g.n))
    acc = [0] * (half + 1)
    for banned in range(1 << half):
        labels = [l for l in range(half) if not (banned >> l) & 1]
        allowed = sum(3 << (2 * l) for l in labels)
        per_len = [0] * (half + 1)
        for l in labels:
            for j, w in enumerate(naive_anchored_walks(ag, 2 * l, allowed)):
                per_len[j] += w
        sign = -1 if banned.bit_count() % 2 else 1
        tuples = naive_walk_tuples(per_len)
        for r in range(1, half + 1):
            acc[r] += sign * tuples[r]
    return acc
