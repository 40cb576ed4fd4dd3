"""The shared layer walk, `layers.drive`, on a fake generator, and the state
tallies of the three sparse DPs that call it: on seeded graphs the
per-layer sizes of each layer generator, pulled here without the driver,
sum to the counts its solver reports."""

import random
import weakref
from itertools import islice

import pytest

from expdeg import (
    BipartiteGraph,
    Graph,
    count_pm_bipartite,
    count_pm_dp,
    ham_path,
    plan_trim,
    random_bipartite,
    random_bipartite_min2,
    random_gnm,
    random_regular,
    reduce_degree_one,
    tsp_cycle,
)
from expdeg.layers import drive
from expdeg.pm_bipartite import _levels
from expdeg.pm_dp import _matching_labels, _strata, build_contracted_graph
from expdeg.tsp import _path_layers, anchor_vertex
from conftest import plus_z


# --- the driver ---------------------------------------------------------------


class Layer(list):
    """A list that a weak reference can point at."""


def fake_layers(lengths, alive):
    """Yield one Layer per entry of `lengths`, of that many items.  Before
    building each layer it appends to `alive` how many layers it yielded
    are still alive; like the solvers' generators, it holds the last one it
    yielded, to build the next from."""
    refs = []
    for length in lengths:
        alive.append(sum(ref() is not None for ref in refs))
        layer = Layer(range(length))
        refs.append(weakref.ref(layer))
        yield layer


LENGTHS = [3, 1, 4, 1, 5, 9, 2, 6]


def test_drive_keeps_the_last_layer_and_sizes_every_one_in_pull_order():
    alive = []
    kept, sizes = drive(fake_layers(LENGTHS, alive), len)
    assert kept == [Layer(range(6))]
    assert sizes == LENGTHS
    # every layer was pulled, and at most two stayed alive at each build
    assert len(alive) == len(LENGTHS)
    assert max(alive) <= 2


def test_drive_keeps_as_many_layers_as_asked():
    alive = []
    kept, sizes = drive(fake_layers(LENGTHS, alive), len, keep=3)
    assert kept == [Layer(range(n)) for n in LENGTHS[-3:]]
    assert sizes == LENGTHS
    assert max(alive) <= 3
    alive = []
    kept, _ = drive(fake_layers(LENGTHS, alive), len, keep=None)
    assert kept == [Layer(range(n)) for n in LENGTHS]
    assert alive == list(range(len(LENGTHS)))


def test_drive_stops_without_building_another_layer():
    alive = []
    kept, sizes = drive(fake_layers(LENGTHS, alive), lambda layer: -len(layer), stop=3, keep=None)
    assert kept == [Layer(range(n)) for n in LENGTHS[:3]]
    assert sizes == [-n for n in LENGTHS[:3]]
    assert len(alive) == 3
    alive = []
    assert drive(fake_layers(LENGTHS, alive), len, stop=0) == ([], [])
    assert alive == []
    assert drive(fake_layers([], alive), len) == ([], [])


# --- per-layer states sum to states ------------------------------------------


def irregular_graph(n: int, seed: int) -> Graph:
    """random_gnm(n, n) plus a Hamiltonian cycle in a seeded order: degrees
    from 2 up, and tours."""
    rng = random.Random(seed)
    ring = rng.sample(range(n), n)
    edges = {(u, v) for u, v, _ in random_gnm(n, n, seed).edges}
    edges |= {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}
    return Graph(n, [(u, v, rng.randint(1, 100)) for u, v in sorted(edges)])


def with_isolated_vertex(g: Graph) -> Graph:
    """g with every edge at vertex 0 removed."""
    return Graph(g.n, [e for e in g.edges if 0 not in e[:2]])


def bridged_cubic(half: int, seed: int) -> Graph:
    """Two copies of random_regular(half, 3, seed), in each one edge x-y
    subdivided by a new vertex, and the two new vertices joined by a
    bridge: cubic on 2 * half + 2 vertices, with no Hamiltonian cycle."""
    (x, y, _), *rest = random_regular(half, 3, seed).edges
    side = [(u, v) for u, v, _ in rest] + [(x, half), (y, half)]
    m = half + 1
    edges = side + [(u + m, v + m) for u, v in side] + [(half, half + m)]
    return Graph.from_edges(2 * m, edges)


def tour_layer_states(g: Graph, a: int) -> list[int]:
    """States per layer of the tour DP from anchor a, over the layers the
    half-way join reads; a None endpoint slot holds none."""
    return [
        sum(len(masks) for masks in layer if masks is not None)
        for layer in islice(_path_layers(g, a), (g.n + 3) // 2)
    ]


TOUR_GRAPHS = {
    "cubic-20": random_regular(20, 3, 1),
    "cubic-24": random_regular(24, 3, 2),
    "cubic-28": random_regular(28, 3, 3),
    "irregular-24": irregular_graph(24, 1),
}


@pytest.mark.parametrize("name", TOUR_GRAPHS)
def test_tour_layer_states_sum_to_states_visited(name):
    g = TOUR_GRAPHS[name]
    res = tsp_cycle(g)
    layers = tour_layer_states(g, anchor_vertex(g))
    assert res is not None and len(layers) == (g.n + 3) // 2
    assert sum(layers) == res.states_visited
    for a, b in ((0, 5), (g.n - 1, 1)):
        res = ham_path(g, a, b)
        assert res is not None
        assert sum(tour_layer_states(plus_z(g, a, b), g.n)) == res.states_visited


@pytest.mark.parametrize("name", TOUR_GRAPHS)
def test_tour_layer_slots_are_none_or_hold_states(name):
    """A layer is a list of n endpoint slots, each None or a non-empty dict:
    no endpoint without states gets a dict."""
    g = TOUR_GRAPHS[name]
    for a in (anchor_vertex(g), 0):
        for layer in islice(_path_layers(g, a), (g.n + 3) // 2):
            assert len(layer) == g.n
            assert all(s is None or (type(s) is dict and s) for s in layer)


def test_tour_states_without_a_tour():
    # an isolated vertex, or a bridge, is refused before any DP; a path
    # across the bridge runs the DP on g + z
    assert tsp_cycle(with_isolated_vertex(random_regular(20, 3, 1))) is None
    g = bridged_cubic(12, 1)
    assert tsp_cycle(g) is None
    for b in (13, 14, 15):
        res = ham_path(g, 0, b)
        assert res is not None
        assert sum(tour_layer_states(plus_z(g, 0, b), g.n)) == res.states_visited


def cover_layer_states(g: Graph) -> list[int]:
    """Stored entries per layer of the cover DP that count_pm_dp runs."""
    label = _matching_labels(g)
    mg = build_contracted_graph(g.n, [(label[u], label[v]) for u, v, _ in g.edges])
    return [len(paths) + len(covers) for paths, covers in _strata(mg)]


COVER_GRAPHS = {
    **TOUR_GRAPHS,
    "isolated-vertex-20": with_isolated_vertex(random_regular(20, 3, 1)),
    "bridged-cubic-26": bridged_cubic(12, 1),
}


@pytest.mark.parametrize("name", COVER_GRAPHS)
def test_cover_layer_states_sum_to_states_visited(name):
    g = COVER_GRAPHS[name]
    res = count_pm_dp(g)
    layers = cover_layer_states(g)
    assert sum(layers) == res.states_visited
    if name.startswith("isolated"):
        assert (res.count, res.states_visited, layers) == (0, 0, [])
    else:
        assert res.count > 0 and len(layers) == g.n // 2 + 1


def bipartite_level_states(b: BipartiteGraph) -> tuple[int, int]:
    """(kept sets, dropped sets) summed over the levels count_pm_bipartite
    runs, after peeling; (0, 0) when peeling settles the count."""
    h = reduce_degree_one(b).graph
    if h.k == 0:
        return 0, 0
    levels = [(len(kept), dropped) for kept, dropped in _levels(h, plan_trim(h).order_a)]
    assert len(levels) == h.k + 1
    return sum(s for s, _ in levels), sum(d for _, d in levels)


def bipartite_bridged(k: int, seed: int) -> BipartiteGraph:
    """Two copies of random_bipartite_min2(k, 3k, seed), A-vertex 0 of the
    first joined to B-vertex 0 of the second by a bridge."""
    one = random_bipartite_min2(k, 3 * k, seed).edges
    return BipartiteGraph.from_edges(2 * k, [*one, *((i + k, j + k) for i, j in one), (0, k)])


BIPARTITE_GRAPHS = {
    "min2-10": random_bipartite_min2(10, 30, 1),
    "min2-12": random_bipartite_min2(12, 36, 2),
    "min2-14": random_bipartite_min2(14, 42, 3),
    "irregular-12": random_bipartite(12, 48, 1),
    "isolated-vertex-12": BipartiteGraph.from_edges(
        12, [(i, j) for i, j in random_bipartite_min2(12, 36, 1).edges if i != 0]
    ),
    "bridged-12": bipartite_bridged(6, 1),
}


@pytest.mark.parametrize("name", BIPARTITE_GRAPHS)
def test_bipartite_level_states_sum_to_stored_and_pruned(name):
    res = count_pm_bipartite(BIPARTITE_GRAPHS[name])
    assert bipartite_level_states(BIPARTITE_GRAPHS[name]) == (res.stored_states, res.pruned_calls)
    assert (res.count == 0) == name.startswith("isolated")
