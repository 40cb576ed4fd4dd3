"""Cheapest Hamiltonian paths and cycles by subset dynamic programming.

Two engines: a sparse layered DP that stores only states reachable by an
actual path (per layer, one dictionary per endpoint keyed on the visited
set), and a dense Held-Karp reference table used as the equality baseline
in tests.  Both reconstruct the optimal vertex order and report how many
states they materialized.  Both first check that the graph is 2-connected
(for an a-b path: the graph plus the edge ab), which every graph with a
Hamiltonian cycle is, and answer None without a DP when it is not.

The sparse solvers run the layered DP only to the half-way layer and join
complementary halves.  A Hamiltonian cycle through the anchor a splits at
its vertex v in position h = ceil((n+2)/2) into two a-v paths of the same
DP, over S (|S| = h) and over (V - S) | {a, v}; an a-b path splits at its
vertex in position ceil((n+1)/2) into a path from a over S and one from b
over (V - S) | {v}.  The optimum is the cheapest such join.  Tie rule: among
optimal joins the smallest split vertex v, then the smallest mask S; each
half is the DP's kept path, the second reversed.

The sparse DP stores costs only, with no parent tables.  A kept path is
rebuilt backwards from its last state: at each step the predecessor is the
smallest neighbour u of the endpoint v whose cost over the set without v,
plus w(u, v), equals the current cost (the smallest cheapest predecessor,
which is the one the forward relaxation keeps).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits
from .errors import CapacityError
from .graphs import Graph

HELD_KARP_MAX_N = 24
_INF = float("inf")


@dataclass(frozen=True)
class TourResult:
    weight: int
    order: tuple[int, ...]
    states_visited: int


def _is_biconnected(g: Graph, extra: tuple[int, int] | None = None) -> bool:
    """True if g, plus the edge `extra` if given, is connected and has no
    cut vertex.

    A graph with a Hamiltonian cycle is 2-connected, and g has a Hamiltonian
    a-b path only if g + ab has a Hamiltonian cycle (or n = 2), so the
    solvers refuse a graph that fails this before running any DP.  Iterative
    lowpoint DFS from vertex 0: a non-root u is a cut vertex iff some child
    subtree reaches no vertex above u, the root iff it has two children.
    """
    n = g.n
    nbrs = [list(g.neighbors(v)) for v in range(n)]
    if extra is not None:
        a, b = extra
        nbrs[a].append(b)
        nbrs[b].append(a)
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    seen = 1
    root_children = 0
    stack = [(0, iter(nbrs[0]))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if disc[v] < 0:
                disc[v] = low[v] = seen
                seen += 1
                stack.append((v, iter(nbrs[v])))
                break
            if disc[v] < low[u]:
                low[u] = disc[v]
        else:
            stack.pop()
            if not stack:
                break
            p = stack[-1][0]
            if len(stack) == 1:
                root_children += 1
                if root_children > 1:
                    return False
            elif low[u] >= disc[p]:
                return False
            if low[u] < low[p]:
                low[p] = low[u]
    return seen == n


class _PathDP:
    """Layered sparse DP from a fixed source a, run up to layer `last`
    (default n: every layer).

    layers[i] holds every (visited-set, endpoint) pair realizable by a simple
    path of i + 1 vertices starting at a, as one dict per endpoint v mapping
    the visited mask to the cheapest cost.  Only costs are stored: there are
    no parent tables.

    Sources are relaxed in ascending endpoint order with strict improvement.
    Every source of a target (mask, v) has the mask mask ^ (1 << v) and
    differs only in its endpoint u, and u reaches v by one arc, so the path
    kept is the one through the smallest u among the cheapest.  `reconstruct`
    finds that u backwards: the smallest neighbour u of v whose cost over
    mask ^ (1 << v) plus w(u, v) equals the cost of (mask, v).  Costs and
    reconstructed orders are deterministic without sorting a layer.
    """

    def __init__(self, g: Graph, a: int, last: int | None = None):
        self.g = g
        self.a = a
        self.last = g.n if last is None else last
        self.states_visited = 0
        self.layers: list[list[dict[int, int]]] = []
        self._run()

    def _run(self) -> None:
        g, a, n = self.g, self.a, self.g.n
        arcs = [[(1 << v, v, w) for v, w in g.adjacency[u]] for u in range(n)]
        layer: list[dict[int, int]] = [{} for _ in range(n)]
        layer[a][1 << a] = 0
        self.layers.append(layer)
        self.states_visited = 1
        for _ in range(self.last - 1):
            nxt: list[dict[int, int]] = [{} for _ in range(n)]
            for u in range(n):
                src = layer[u]
                if not src:
                    continue
                for bit, v, w in arcs[u]:
                    dst = nxt[v]
                    get = dst.get
                    for mask, cost in src.items():
                        if mask & bit:
                            continue
                        nmask = mask | bit
                        cand = cost + w
                        old = get(nmask)
                        if old is None or cand < old:
                            dst[nmask] = cand
            layer = nxt
            self.layers.append(nxt)
            self.states_visited += sum(map(len, nxt))

    def full_cost(self, b: int) -> int | None:
        """Cheapest Hamiltonian a-b path cost, or None if there is none
        (always None unless every layer ran)."""
        return self.layers[-1][b].get((1 << self.g.n) - 1)

    def reconstruct(self, b: int, mask: int | None = None) -> tuple[int, ...]:
        """The kept a..b path over the vertex set `mask` (default: all)."""
        if mask is None:
            mask = (1 << self.g.n) - 1
        adjacency, layers = self.g.adjacency, self.layers
        order = [b]
        v = b
        for i in range(mask.bit_count() - 1, 0, -1):
            cost = layers[i][v][mask]
            mask ^= 1 << v
            below = layers[i - 1]
            v = next(
                u for u, w in adjacency[v] if below[u].get(mask, _INF) + w == cost
            )
            order.append(v)
        order.reverse()
        return tuple(order)

    def all_state_keys(self) -> list[tuple[int, int]]:
        return [
            (mask, v)
            for lay in self.layers
            for v, masks in enumerate(lay)
            for mask in masks
        ]


def _join(
    left: _PathDP, right_layer: list[dict[int, int]], keep: int
) -> tuple[int, int, int, int] | None:
    """Cheapest join of a state (S, v) of left's final layer with the state
    (T, v), T = (V - S) | keep | {v}, of `right_layer`, as (cost, v, S, T),
    or None if no pair joins.  Ties go to the smallest split vertex v, then
    the smallest mask S, whatever the dict order."""
    full = (1 << left.g.n) - 1
    best: tuple[int, int, int, int] | None = None
    for v, (src, dst) in enumerate(zip(left.layers[-1], right_layer)):
        if not src or not dst:
            continue
        rest = keep | (1 << v)
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
    """Every (visited-set, endpoint) state the full sparse path DP (all n
    layers) materializes from source a; for instrumentation and state-space
    tests."""
    if not 0 <= a < g.n:
        raise ValueError("source out of range")
    return _PathDP(g, a).all_state_keys()


def ham_path(g: Graph, a: int, b: int) -> TourResult | None:
    """Cheapest Hamiltonian a-b path, or None if no such path exists.

    Answers None without a DP when g plus the edge ab is not 2-connected.
    Otherwise runs the path DP from a up to layer h = ceil((n+1)/2) and from
    b up to layer n+1-h, and joins (S, v) from a with ((V - S) | {v}, v) from
    b: the optimal path's vertex in position h, read from a, is such a v.
    Among optimal joins the smallest v, then the smallest S, is taken; each
    half is the DP's kept path, the b half reversed.  `states_visited` counts
    the states of both bounded DPs.
    """
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError("endpoint out of range")
    if a == b:
        raise ValueError("endpoints must be distinct")
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if not _is_biconnected(g, (a, b)):
        return None
    h = (g.n + 2) // 2
    left = _PathDP(g, a, h)
    right = _PathDP(g, b, g.n + 1 - h)
    best = _join(left, right.layers[-1], 0)
    if best is None:
        return None
    weight, v, mask, partner = best
    order = left.reconstruct(v, mask) + right.reconstruct(v, partner)[-2::-1]
    return TourResult(weight, order, left.states_visited + right.states_visited)


def anchor_vertex(g: Graph) -> int:
    """Source vertex used by tsp_cycle: minimum degree, ties by index."""
    return min(range(g.n), key=lambda v: (g.degree(v), v))


def _cycle_dp(g: Graph) -> _PathDP:
    """The DP tsp_cycle joins: from the anchor up to layer ceil((n+2)/2)."""
    return _PathDP(g, anchor_vertex(g), (g.n + 3) // 2)


def cycle_dp_states(g: Graph) -> int:
    """States of the bounded DP that tsp_cycle runs on g, found or not;
    bench rows report it for graphs without a tour."""
    return _cycle_dp(g).states_visited


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
    if not _is_biconnected(g):
        return None
    dp = _cycle_dp(g)
    # the second half has n+2-h vertices (h at even n, h-1 at odd n), so it
    # is a state of layers[n+1-h]
    best = _join(dp, dp.layers[g.n + 1 - dp.last], 1 << dp.a)
    if best is None:
        return None
    weight, v, mask, partner = best
    order = dp.reconstruct(v, mask) + dp.reconstruct(v, partner)[-2:0:-1]
    return TourResult(weight, order, dp.states_visited)


def held_karp_cycle(g: Graph) -> TourResult | None:
    """Dense-table Hamiltonian cycle reference; same answers as tsp_cycle.

    Uses the classical 2^n x n cost table anchored at vertex 0, so it is
    capped at n <= 24.
    """
    if g.n < 3:
        raise ValueError("a Hamiltonian cycle needs at least three vertices")
    if g.n > HELD_KARP_MAX_N:
        raise CapacityError(f"dense table infeasible beyond n={HELD_KARP_MAX_N}")
    if not _is_biconnected(g):
        return None
    n = g.n
    size = (1 << n) * n
    dp = [_INF] * size
    parent = [-1] * size
    dp[1 * n + 0] = 0  # state (mask {0}, at 0)
    states = 1
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        base = mask * n
        for u in bits(mask):
            cur = dp[base + u]
            if cur == _INF:
                continue
            for v, w in g.adjacency[u]:
                if (mask >> v) & 1 or v == 0:
                    continue
                nmask = mask | (1 << v)
                idx = nmask * n + v
                cand = cur + w
                if cand < dp[idx]:
                    if dp[idx] == _INF:
                        states += 1
                    dp[idx] = cand
                    parent[idx] = u
    full = (1 << n) - 1
    best_w, best_v = _INF, -1
    for v, w in g.adjacency[0]:
        if dp[full * n + v] != _INF and dp[full * n + v] + w < best_w:
            best_w = dp[full * n + v] + w
            best_v = v
    if best_v < 0:
        return None
    order = [best_v]
    mask, v = full, best_v
    while v != 0:
        u = parent[mask * n + v]
        mask ^= 1 << v
        order.append(u)
        v = u
    order.reverse()
    return TourResult(int(best_w), tuple(order), states)
