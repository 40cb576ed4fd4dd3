"""Seeded random graph generators for the test and benchmark corpus.

All generators are deterministic for a fixed seed.  The gnm model draws
exactly m distinct edges, so the average degree is exactly 2m/n.
"""

from __future__ import annotations

import math
import random

from .errors import CapacityError, _shown
from .graphs import BipartiteGraph, Graph

_REGULAR_ATTEMPTS = 100_000


def _check_nonnegative(**params: int) -> None:
    for name, value in params.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {name}={_shown(value)}")


def _too_many_edges(m: int, total: int, where: str) -> ValueError:
    return ValueError(f"m={_shown(m)} exceeds {_shown(total)} possible edges {where}")


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly n vertices and m edges."""
    _check_nonnegative(n=n, m=m)
    total = n * (n - 1) // 2
    if m > total:
        raise _too_many_edges(m, total, f"on {_shown(n)} vertices")
    Graph(n, ())  # refuse a size over the vertex capacity before drawing
    rng = random.Random(seed)
    chosen = [_unrank_pair(n, i) for i in rng.sample(range(total), m)]
    return Graph.from_edges(n, chosen)


def _unrank_pair(n: int, i: int) -> tuple[int, int]:
    """The i-th pair (u, v), u < v < n, in lexicographic order: the same
    pair a list of all pairs holds at index i, without building the list."""
    # pairs from i on, counted from the end: j + 1 = r(r+1)/2 + c + 1 with
    # r = n-2-u rows below u and c = n-1-v, so r = floor((sqrt(8j+1)-1)/2)
    j = n * (n - 1) // 2 - 1 - i
    r = (math.isqrt(8 * j + 1) - 1) // 2
    u = n - 2 - r
    return u, n - 1 - (j - r * (r + 1) // 2)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph via the pairing model with rejection;
    CapacityError when no attempt gives a simple graph, which is the rule
    for larger d."""
    _check_nonnegative(n=n, d=d)
    if d >= max(n, 1):
        raise ValueError(f"degree d={_shown(d)} infeasible for n={_shown(n)}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={_shown(n)}, d={_shown(d)}")
    Graph(n, ())  # refuse a size over the vertex capacity before drawing
    if d == 0:
        return Graph.from_edges(n, [])
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_REGULAR_ATTEMPTS):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph.from_edges(n, edges)
    raise CapacityError(
        f"no simple {d}-regular pairing found for n={n} in {_REGULAR_ATTEMPTS} attempts"
    )


def random_bipartite(k: int, m: int, seed: int) -> BipartiteGraph:
    """Uniform bipartite graph with sides of size k and exactly m edges."""
    _check_nonnegative(k=k, m=m)
    total = k * k
    if m > total:
        raise _too_many_edges(m, total, f"for k={_shown(k)}")
    BipartiteGraph(k, ())  # refuse a side over the vertex capacity before drawing
    rng = random.Random(seed)
    chosen = [divmod(i, k) for i in rng.sample(range(total), m)]
    return BipartiteGraph.from_edges(k, chosen)


def random_bipartite_min2(k: int, m: int, seed: int) -> BipartiteGraph:
    """Bipartite graph with m >= 2k edges and minimum degree 2 on both sides.

    Overlays two random perfect matchings (resampled until edge-disjoint)
    and fills up with distinct random extras; used where degree-1 peeling
    would otherwise collapse the instance.
    """
    _check_nonnegative(k=k, m=m)
    if m < 2 * k:
        raise ValueError(f"need m >= 2k, got m={_shown(m)}, k={_shown(k)}")
    if m > k * k:
        raise _too_many_edges(m, k * k, f"for k={_shown(k)}")
    BipartiteGraph(k, ())  # refuse a side over the vertex capacity before drawing
    rng = random.Random(seed)
    while True:
        p1 = list(range(k))
        p2 = list(range(k))
        rng.shuffle(p1)
        rng.shuffle(p2)
        if all(a != b for a, b in zip(p1, p2)) or k < 2:
            break
    edges = {(i, p1[i]) for i in range(k)} | {(i, p2[i]) for i in range(k)}
    # the extras are indices into the row-major list of the k - 2 cells per
    # row outside both matchings (none when k <= 2), unranked without the list
    per_row = max(k - 2, 0)
    for idx in rng.sample(range(k * per_row), m - len(edges)):
        row, col = divmod(idx, per_row)
        lo, hi = sorted((p1[row], p2[row]))
        if col >= lo:
            col += 1
        if col >= hi:
            col += 1
        edges.add((row, col))
    return BipartiteGraph.from_edges(k, edges)


_MODEL_PARAMS = {"gnm": ("n", "m"), "regular": ("n", "d"), "bipartite": ("k", "m")}


def gen_random_graph(model: str, seed: int, **params) -> Graph | BipartiteGraph:
    """Dispatch by model name: 'gnm' (n, m), 'regular' (n, d) or
    'regular-<d>' (n), 'bipartite' (k, m); ValueError for an unknown model
    or a missing parameter."""
    if model.startswith("regular-"):
        degree = model.removeprefix("regular-")
        if not degree.isdecimal() or len(degree) > 18:
            raise ValueError("model regular-<d> needs a whole degree d under 10^18")
        params["d"] = int(degree)
        model = "regular"
    if model not in _MODEL_PARAMS:
        raise ValueError(f"unknown model {model!r}")
    missing = [name for name in _MODEL_PARAMS[model] if params.get(name) is None]
    if missing:
        raise ValueError(f"model {model!r} needs {', '.join(missing)}")
    if model == "gnm":
        return random_gnm(params["n"], params["m"], seed)
    if model == "regular":
        return random_regular(params["n"], params["d"], seed)
    return random_bipartite(params["k"], params["m"], seed)
