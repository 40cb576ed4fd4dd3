"""Shared graph builders and seeded ensembles for the test suite."""

import random

import pytest

from expdeg import BipartiteGraph, Graph, random_gnm, random_regular


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
