"""Cheapest Hamiltonian paths and cycles by subset dynamic programming.

Two engines: a sparse layered DP that stores only states reachable by an
actual path that a Hamiltonian cycle could still finish (per layer, one
dictionary per endpoint keyed on the visited set), and a dense Held-Karp
reference table, which keeps every reachable state, used as the equality
baseline in tests.  Both report how many states they materialized and
rebuild the optimal vertex order by the same rule (below).  Both first check
that the graph is 2-connected, which every graph with a Hamiltonian cycle
is, and answer None without a DP when it is not.

A Hamiltonian a-b path of g is a Hamiltonian cycle of g + z, the graph with
one added vertex z = n joined to a and b by weight-0 edges, less z; so
`ham_path` solves that cycle, anchored at z, and reads the order from a.

The sparse DP is the generator `_path_layers`, one layer per path length,
like `pm_dp._strata` and `pm_bipartite._levels`.  `_cycle` pulls only its
first h = ceil((n+2)/2) layers by `layers.drive`, keeps them all and joins
complementary halves: a Hamiltonian cycle through the anchor a splits at
its vertex v in position h into two a-v paths of the same DP, over S
(|S| = h) and over (V - S) | {a, v}.  The optimum is the cheapest such
join.  Tie rule: among optimal joins the smallest split vertex v, then the
smallest mask S; each half is the DP's kept path, the second reversed.

Neither engine stores a parent table, only costs.  A kept path is rebuilt
backwards from its last state: at each step the predecessor is the smallest
neighbour u of the endpoint v whose cost over the set without v, plus
w(u, v), equals the current cost (the smallest cheapest predecessor, which
is the one the forward relaxation keeps).  "No path" is an absent state: a
missing dict key in the sparse DP, None in the dense table.  So every cost
is an exact int sum of edge weights, whatever their size.

The sparse DP drops a state when some unvisited vertex has fewer than two
neighbours left for the rest of the tour (the completion test of
`_path_layers`) or when it has visited every neighbour of the anchor (its
anchor rule).  Only states that no tour can pass through are dropped, and a
kept state keeps the cost it has without them, so weights, orders and the
tie rule are those of the DP without them; `states_visited` counts the kept
states.
"""

from __future__ import annotations

from .bitset import bits
from .errors import CapacityError
from .graphs import VERTEX_CAPACITY, Graph, Record
from .layers import drive

HELD_KARP_MAX_N = 22


class TourResult(Record):
    __slots__ = _fields = ("weight", "order", "states_visited")
    weight: int
    order: tuple[int, ...]
    states_visited: int


def _is_biconnected(g: Graph) -> bool:
    """True if g is connected and has no cut vertex.

    A graph with a Hamiltonian cycle is 2-connected, so the solvers refuse a
    graph that fails this before running any DP.  Lowpoint DFS from vertex
    0: a non-root u is a cut vertex iff some child subtree reaches no vertex
    above u, the root iff its first child's subtree misses a vertex.
    """
    n, adj, disc = g.n, g.adjacency, {0: 0}

    def low(u: int) -> int:
        # the lowest discovery index u's subtree reaches by one edge, or n
        # once it holds a cut vertex; at most n <= 64 calls deep, g + z too
        lo = disc[u] = len(disc)
        for v, _ in adj[u]:
            sub = disc.get(v)
            if sub is None:
                sub = low(v)
                if sub >= disc[u]:
                    return n
            if sub < lo:
                lo = sub
        return lo

    if not adj[0]:
        return n == 1
    return low(adj[0][0][0]) < n and len(disc) == n


def _path_layers(g: Graph, a: int):
    """Layered sparse DP for Hamiltonian cycles through a fixed anchor a:
    yields layers 0..n-1 one at a time, each built only when it is pulled.

    Layer i holds the (visited-set, endpoint) pairs realizable by a simple
    path of i + 1 vertices starting at a whose every state passes the
    completion test and the anchor rule, as one dict per endpoint v mapping
    the visited mask to the cheapest cost.  Only costs are stored: there are
    no parent tables.

    Completion test.  (S, v) is kept only if every vertex r outside S has at
    least two neighbours in the free set (V - S) | {v, a}: the rest of a
    cycle runs from v through V - S back to a, and r's two cycle neighbours
    lie on it.  Every state made from a source (mask, u) has the free set
    (V - mask) | {a}, the source's own free set without u, so only
    neighbours of u can fall short and the test runs once per source: with
    no short neighbour every free neighbour is a step, with one only that
    neighbour is, with two or more none is.  The start state is tested
    against the whole graph, so no kept state depends on the solvers' own
    2-connectivity check.

    Anchor.  A step onto the last unvisited neighbour of a is taken only if
    it completes V; the arcs into neighbours of a carry the check.  It is
    exact: a proper prefix of a Hamiltonian cycle through a leaves the
    cycle's last vertex, a neighbour of a, unvisited.  It is monotone: a
    kept (S, v) with S != V has a neighbour of a outside S, and so does
    every subset of S.  On g + z from z (see `ham_path`) it holds b back
    once the path has left z through a, and the other way round.

    Why costs, joins and ties are unchanged.  At any of its steps, a path
    to (S, v) can fail the test only at a vertex outside S or at v: a vertex
    it enters and leaves again keeps both path neighbours free until it is
    entered.  Free sets only shrink, so the test of a kept (S, v) rules out
    the first; and v has a free neighbour besides its kept predecessor,
    which rules out the second; the anchor rule is monotone.  So if one path
    reaches (S, v) through kept states, every path does.  A kept state thus
    has its cost and its cheapest predecessors from the DP without either
    rule, and `_reconstruct` rebuilds the same path.  Every prefix of a
    Hamiltonian cycle through a passes both, so both halves of every
    optimal join are kept and the joins, weights, orders and tie rule are
    unchanged.

    Sources are relaxed in ascending endpoint order with strict improvement.
    Every source of a target (mask, v) has the mask mask ^ (1 << v) and
    differs only in its endpoint u, and u reaches v by one arc, so the path
    kept is the one through the smallest u among the cheapest.
    `_reconstruct` finds that u backwards: the smallest neighbour u of v
    whose cost over mask ^ (1 << v) plus w(u, v) equals the cost of
    (mask, v).  Costs and reconstructed orders are deterministic without
    sorting a layer.

    The arc table is built once per call: per vertex u, one tuple per arc
    u -> v with v's bit, v, the weight, v's neighbour mask for the
    completion test and v's rim for the anchor rule.  Every source of every
    layer pushes through it into the next layer's dict of v.
    """
    n = g.n
    full = (1 << n) - 1
    nbrs = [0] * n
    for u, v, _ in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    ring, closer = nbrs[a], 1 << a
    # the rim of an arc into a neighbour of a is ring, for the anchor rule
    arcs = [
        [(1 << v, v, w, nbrs[v], ring if ring >> v & 1 else 0)
         for v, w in g.adjacency[u]]
        for u in range(n)
    ]
    layer: list[dict[int, int]] = [{} for _ in range(n)]
    # every vertex is free in the start state
    if all(nbrs[r].bit_count() >= 2 for r in range(n) if r != a):
        layer[a][1 << a] = 0
    yield layer
    for _ in range(1, n):
        nxt: list[dict[int, int]] = [{} for _ in range(n)]
        for u, src in enumerate(layer):
            if not src:
                continue
            steps = arcs[u]
            for mask, cost in src.items():
                # the free set of every state made from (mask, u)
                free = full ^ mask | closer
                short = None
                for step in steps:
                    if mask & step[0]:
                        continue
                    left = step[3] & free
                    if not left & (left - 1):
                        if short is not None:
                            break
                        short = (step,)
                else:
                    for bit, v, w, _, rim in short or steps:
                        if mask & bit:
                            continue
                        nmask = mask | bit
                        # the last neighbour of a only completes V
                        if rim and nmask & rim == rim and nmask != full:
                            continue
                        cand = cost + w
                        dst = nxt[v]
                        old = dst.get(nmask)
                        if old is None or cand < old:
                            dst[nmask] = cand
        layer = nxt
        yield nxt


def _reconstruct(g: Graph, layers: list, b: int, mask: int) -> tuple[int, ...]:
    """The kept a..b path over the vertex set `mask`, walked back through
    the first mask.bit_count() of the `_path_layers` layers."""
    order = [b]
    v = b
    for i in range(mask.bit_count() - 1, 0, -1):
        cost = layers[i][v][mask]
        mask ^= 1 << v
        below = layers[i - 1]
        for u, w in g.adjacency[v]:
            if below[u].get(mask) == cost - w:
                v = u
                break
        order.append(v)
    order.reverse()
    return tuple(order)


def _join(n: int, a: int, left: list, right: list) -> tuple[int, int, int, int] | None:
    """Cheapest join of a state (S, v) of layer h - 1, `left`, with the
    state (T, v), T = (V - S) | {a, v} of n+2-h vertices, of layer
    n + 1 - h, `right`, as (cost, v, S, T), or None if no pair joins.  Ties
    go to the smallest split vertex v, then the smallest mask S, whatever
    the dict order."""
    full = (1 << n) - 1
    best: tuple[int, int, int, int] | None = None
    for v, (src, dst) in enumerate(zip(left, right)):
        if not src or not dst:
            continue
        rest = 1 << a | 1 << v
        get = dst.get
        for mask, cost in src.items():
            partner = (full ^ mask) | rest
            other = get(partner)
            if other is None:
                continue
            total = cost + other
            if (
                best is None
                or total < best[0]
                or (total == best[0] and v == best[1] and mask < best[2])
            ):
                best = (total, v, mask, partner)
    return best


def path_dp_states(g: Graph, a: int) -> list[tuple[int, int]]:
    """Every (visited-set, endpoint) state the full sparse cycle DP (all n
    layers, completion test and anchor rule) keeps from anchor a; for
    instrumentation and state-space tests."""
    if not 0 <= a < g.n:
        raise ValueError("source out of range")
    return [
        (mask, v)
        for layer in _path_layers(g, a)
        for v, masks in enumerate(layer)
        for mask in masks
    ]


def _cycle(g: Graph, a: int) -> TourResult | None:
    """`tsp_cycle` with the anchor a given: the order starts at a."""
    if not _is_biconnected(g):
        return None
    n = g.n
    h = (n + 3) // 2
    layers, sizes = drive(_path_layers(g, a), lambda ds: sum(map(len, ds)), stop=h, keep=None)
    best = _join(n, a, layers[-1], layers[n + 1 - h])
    if best is None:
        return None
    weight, v, mask, partner = best
    first, second = (_reconstruct(g, layers, v, s) for s in (mask, partner))
    return TourResult(weight, first + second[-2:0:-1], sum(sizes))


def ham_path(g: Graph, a: int, b: int) -> TourResult | None:
    """Cheapest Hamiltonian a-b path, or None if no such path exists.

    The cheapest Hamiltonian cycle of g + z (module docstring), anchored at
    z and found as in `tsp_cycle`, without z and read from a;
    `states_visited` counts the states of its DP.  g + z must fit the vertex
    capacity, so a graph of 64 vertices raises CapacityError.
    """
    n = g.n
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError("endpoint out of range")
    if a == b:
        raise ValueError("endpoints must be distinct")
    if n >= VERTEX_CAPACITY:
        raise CapacityError(
            f"a path query adds a vertex to n={n}, capacity is {VERTEX_CAPACITY}"
        )
    res = _cycle(Graph(n + 1, g.edges + ((a, n, 0), (b, n, 0))), n)
    if res is None:
        return None
    order = res.order[1:] if res.order[1] == a else res.order[:0:-1]
    return TourResult(res.weight, order, res.states_visited)


def anchor_vertex(g: Graph) -> int:
    """Source vertex used by tsp_cycle: minimum degree, ties by index."""
    return min(range(g.n), key=lambda v: (g.degree(v), v))


def tsp_cycle(g: Graph) -> TourResult | None:
    """Smallest-weight Hamiltonian cycle, or None if none exists.

    Answers None at once when g is not 2-connected.  Otherwise runs the path
    DP from a minimum-degree anchor a up to layer h = ceil((n+2)/2) only.
    Every Hamiltonian cycle splits at its vertex v in position h into two
    a-v paths, one over a set S of h vertices and one over
    T = (V - S) | {a, v} of n+2-h vertices, both states of that DP; the
    cheapest c(S, v) + c(T, v) is the optimal weight.  Among optimal joins
    the smallest v, then the smallest S, is taken; the order is the DP's
    kept a..v path over S followed by its kept path over T reversed.
    `states_visited` counts the states of the bounded DP.
    """
    if g.n < 3:
        raise ValueError("a Hamiltonian cycle needs at least three vertices")
    return _cycle(g, anchor_vertex(g))


def held_karp_cycle(g: Graph) -> TourResult | None:
    """Dense-table Hamiltonian cycle reference; same answers as tsp_cycle.

    One 2^n x n cost table anchored at vertex 0 and no parent table: the
    order is walked back by cost, by the rule the sparse DP uses.  Capped at
    n <= HELD_KARP_MAX_N: at n = 22 (cubic) the table takes 720 MB RSS and
    7.5 s (CPython 3.11, one core of a 2-core Intel Xeon).
    """
    if g.n < 3:
        raise ValueError("a Hamiltonian cycle needs at least three vertices")
    if g.n > HELD_KARP_MAX_N:
        raise CapacityError(f"dense table infeasible beyond n={HELD_KARP_MAX_N}")
    if not _is_biconnected(g):
        return None
    n = g.n
    dp: list[int | None] = [None] * ((1 << n) * n)  # None: not reached
    dp[1 * n + 0] = 0  # state (mask {0}, at 0)
    states = 1
    for mask in range(1, 1 << n, 2):  # the masks holding vertex 0
        base = mask * n
        for u in bits(mask):
            cur = dp[base + u]
            if cur is None:
                continue
            for v, w in g.adjacency[u]:
                if (mask >> v) & 1 or v == 0:
                    continue
                idx = (mask | (1 << v)) * n + v
                cand = cur + w
                old = dp[idx]
                if old is None:
                    states += 1
                elif cand >= old:
                    continue
                dp[idx] = cand
    full = (1 << n) - 1
    last = full * n  # the states over V
    ends = [(dp[last + v] + w, v) for v, w in g.adjacency[0] if dp[last + v] is not None]
    if not ends:
        return None
    best_w, v = min(ends)
    order, mask = [v], full
    while v != 0:
        cost = dp[mask * n + v]
        mask ^= 1 << v
        v = next(u for u, w in g.adjacency[v] if dp[mask * n + u] == cost - w)
        order.append(v)
    order.reverse()
    return TourResult(best_w, tuple(order), states)
