"""Seeded random graph generators for the test and benchmark corpus.

All generators are deterministic for a fixed seed.  The gnm model draws
exactly m distinct edges, so the average degree is exactly 2m/n.
"""

from __future__ import annotations

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
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rng.sample(pairs, m))


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
    cells = [(i, j) for i in range(k) for j in range(k) if (i, j) not in edges]
    edges.update(rng.sample(cells, m - len(edges)))
    return BipartiteGraph.from_edges(k, edges)


# the models gen_random_graph draws, each with the parameters it takes
MODEL_PARAMS = {"gnm": ("n", "m"), "regular": ("n", "d"), "bipartite": ("k", "m")}


def gen_random_graph(model: str, seed: int, **params) -> Graph | BipartiteGraph:
    """Dispatch by model name: 'gnm' (n, m), 'regular' (n, d) or
    'bipartite' (k, m); ValueError for an unknown model, a missing
    parameter, or a parameter given that the model does not take (a
    parameter passed as None counts as not given)."""
    if model not in MODEL_PARAMS:
        raise ValueError(f"unknown model {model!r}")
    takes = MODEL_PARAMS[model]
    given = [name for name, value in params.items() if value is not None]
    missing = [name for name in takes if name not in given]
    if missing:
        raise ValueError(f"model {model!r} needs {', '.join(missing)}")
    extra = [name for name in given if name not in takes]
    if extra:
        raise ValueError(f"model {model!r} does not take {', '.join(extra)}")
    if model == "gnm":
        return random_gnm(params["n"], params["m"], seed)
    if model == "regular":
        return random_regular(params["n"], params["d"], seed)
    return random_bipartite(params["k"], params["m"], seed)
