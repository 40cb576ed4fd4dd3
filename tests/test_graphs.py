"""Graph types, parsing/serialization, degree statistics and generators."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdeg import (
    BipartiteGraph,
    CapacityError,
    Graph,
    InputFormatError,
    degree_profile,
    gen_random_graph,
    pair_partner,
    parse_graph,
    random_bipartite,
    random_bipartite_min2,
    random_gnm,
    random_regular,
    serialize_graph,
)
from conftest import complete_graph, empty_graph, path_graph, reference_parse_graph

# --- parsing -------------------------------------------------------------


def test_parse_plain_graph():
    g = parse_graph("graph 3 2\n0 1\n1 2\n")
    assert isinstance(g, Graph)
    assert g.n == 3
    assert g.edges == ((0, 1, 1), (1, 2, 1))


def test_parse_weighted_edge():
    g = parse_graph("graph 2 1\n0 1 7\n")
    assert g.edges == ((0, 1, 7),)


def test_parse_bipartite():
    g = parse_graph("bigraph 2 3\n0 0\n0 1\n1 1\n")
    assert isinstance(g, BipartiteGraph)
    assert g.k == 2
    assert g.edges == ((0, 0), (0, 1), (1, 1))


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a comment\n\ngraph 2 1\n# another\n0 1\n")
    assert g.m == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("grph 2 1\n0 1", "header"),
        ("graph 2\n", "header"),
        ("graph 2 1\n0 5", "out of range"),
        ("graph 3 2\n0 1\n1 0", "duplicate"),
        ("graph 2 1\n0 1 -3", "negative"),
        ("graph 2 1\n1 1", "self-loop"),
        ("graph 2 0\n0 1", "edge lines"),
        ("bigraph 2 1\n0 3", "out of range"),
        ("bigraph 2 2\n0 0\n0 0", "duplicate"),
        ("graph two 1\n0 1", "sizes must be integers"),
        ("graph -1 0\n", "nonnegative"),
        ("graph 2 1\n0 1 1 1", "'u v' or 'u v w'"),
        ("graph 2 1\n0 x", "fields must be integers"),
        # a byte-order mark is skipped only once, and only at the start
        ("\ufeff\ufeffgraph 2 1\n0 1\n", "line 1: header"),
        ("\n\ufeffgraph 2 1\n0 1\n", "line 2: header"),
        ("graph 2 1\n\ufeff0 1\n", "line 2: edge fields must be integers"),
        ("graph 2 1\n0 1\n\ufeff", "2 edge lines"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(InputFormatError) as info:
        parse_graph(text)
    assert fragment in str(info.value)
    assert "line" in str(info.value)


def test_parse_skips_one_leading_byte_order_mark():
    text = "graph 3 3\n0 1\n1 2\n0 2 4\n"
    assert parse_graph("\ufeff" + text) == parse_graph(text)
    assert parse_graph("\ufeff# saved by an editor\n" + text) == parse_graph(text)


def test_parse_empty_input_has_no_line_number():
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(InputFormatError, match="empty input") as info:
            parse_graph(text)
        assert info.value.line is None


@pytest.mark.parametrize(
    "text,line",
    [
        ("graph 2 1\n0 5", 2),
        ("graph 3 2\n0 1\n1 1", 3),
        ("graph 3 2\n0 1\n1 0", 3),
        ("graph 3 3\n0 2\n0 1\n0 1", 4),
        ("graph 3 2\n0 1\n1 2 -3", 3),
        ("bigraph 2 2\n0 0\n3 1", 3),
        ("bigraph 2 3\n0 0\n1 0\n0 0", 4),
    ],
)
def test_parse_faults_carry_the_constructor_message(text, line):
    # one message for a bad edge whichever path it takes; the parser adds
    # the line the edge is on
    header, *rows = text.splitlines()
    kind = Graph if header.startswith("graph") else BipartiteGraph
    size = int(header.split()[1])
    with pytest.raises(ValueError) as built:
        kind.from_edges(size, [tuple(map(int, row.split())) for row in rows])
    with pytest.raises(InputFormatError) as parsed:
        parse_graph(text)
    assert str(parsed.value) == f"line {line}: {built.value}"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edges(3, [(0, 1, 1.5), (1, 2, 1), (0, 2, 1)]),
        lambda: Graph.from_edges(3, [(0, 1.0), (1, 2)]),
        lambda: Graph.from_edges(3, [(True, 2), (0, 1)]),
        lambda: Graph.from_edges(3, [(0, 1, True), (1, 2)]),
        lambda: Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1.0)]),
        lambda: BipartiteGraph.from_edges(2, [(0, 1.0)]),
        lambda: BipartiteGraph.from_edges(2, [(0, 0), (False, 1)]),
    ],
    ids=[
        "float-weight", "float-endpoint", "bool-endpoint", "bool-weight",
        "float-weight-triple", "bip-float-index", "bip-bool-index",
    ],
)
def test_constructors_reject_non_integer_edges(build):
    with pytest.raises(ValueError):
        build()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_constructors_accept_any_order_and_orientation(seed, n):
    import random

    rng = random.Random(seed)
    g = random_gnm(n, rng.randint(0, n * (n - 1) // 2), seed)
    weighted = Graph.from_edges(n, [(u, v, rng.randint(0, 9)) for u, v, _ in g.edges])
    mixed = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in weighted.edges]
    rng.shuffle(mixed)
    h = Graph(n, mixed)
    assert h == weighted and h.edges == weighted.edges
    assert h.adjacency == weighted.adjacency
    bg = random_bipartite(n, rng.randint(0, n * n), seed)
    shuffled = list(bg.edges)
    rng.shuffle(shuffled)
    hb = BipartiteGraph(n, shuffled)
    assert hb == bg and (hb.adj_a, hb.adj_b) == (bg.adj_a, bg.adj_b)
    assert hb.transpose().transpose() == bg


def test_parse_rejects_over_capacity():
    with pytest.raises(CapacityError):
        parse_graph("graph 65 0\n")
    with pytest.raises(CapacityError):
        parse_graph("bigraph 65 0\n")


def test_roundtrip_named():
    for g in (complete_graph(4), path_graph(3, [3, 4]), empty_graph(5)):
        assert parse_graph(serialize_graph(g)) == g
    bg = BipartiteGraph.from_edges(3, [(0, 1), (2, 0), (1, 1)])
    assert parse_graph(serialize_graph(bg)) == bg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_roundtrip_random(seed, n):
    import random

    m = random.Random(seed).randint(0, n * (n - 1) // 2)
    g = random_gnm(n, m, seed)
    assert parse_graph(serialize_graph(g)) == g


# --- differential parse --------------------------------------------------

# odd edge fields: int() reads "1_0", "+3", the Arabic-Indic digit three,
# "-2", "99" and "-0", and refuses "x" and "1.0"
ODD_FIELDS = ("1_0", "+3", "\u0663", "-2", "99", "-0", "x", "1.0")
# str.split() whitespace; \x0b, \x0c and \x1c also end a line for splitlines
SPACES = ("\t", "  ", "\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c")
FILLER = ("", "   ", "\t", "# a comment", "  # x", "\t# y", "#", "\u00a0# z", "#0 1")
NEWLINES = ("\n", "\n", "\r\n", "\r")
FAULTS = (
    "empty input", "header must be", "header sizes must be integers",
    "header sizes must be nonnegative", "capacity is", "edge lines found",
    "edge line must be 'u v'", "bipartite edge line must be", "edge fields must be",
    "out of range", "self-loop", "duplicate edge", "negative weight",
)


def random_parse_text(rng: random.Random) -> str:
    """A graph or bigraph text, often valid, otherwise off by a detail or
    two: odd fields, 2-4 fields a line, out-of-range vertices, self-loops,
    duplicates in either orientation, negative weights, a wrong edge count
    or size, no header; with comment and blank lines, Unicode whitespace,
    mixed line endings and byte-order marks."""
    graph = rng.random() < 0.7
    size = rng.choice((0, 1, 2, 3, 4, 5, 6, 8, 8, 64, 65)) if rng.random() < 0.97 else -1
    side = range(min(size, 8))
    pairs = [(u, v) for u in side for v in side if u < v or not graph]

    def sep():
        return " " if rng.random() < 0.95 else rng.choice(SPACES)

    def field(value):
        return str(value) if rng.random() < 0.97 else rng.choice(ODD_FIELDS)

    rows: list[tuple[int, int]] = []
    lines = []
    for u, v in rng.sample(pairs, min(len(pairs), rng.randint(0, 8))):
        fault = rng.random()
        if rows and fault < 0.015:  # a duplicate, in either orientation
            u, v = rng.choice(rows)[:: rng.choice((1, -1))]
        elif graph and fault < 0.03:
            v = u
        elif fault < 0.045:
            v = size
        elif graph and fault < 0.5:
            u, v = v, u
        rows.append((u, v))
        fields = [field(u), field(v)]
        if graph and rng.random() < 0.4:
            fields.append(field(-1 if rng.random() < 0.05 else rng.randint(0, 9)))
        if rng.random() < 0.02:
            fields.append(field(1))
        lines.append(sep().join(fields))
    m = len(rows) + (rng.choice((-1, 1)) if rng.random() < 0.05 else 0)
    header = ["graph" if graph else "bigraph", field(size), str(m)]
    if rng.random() < 0.98:
        lines.insert(0, sep().join(header if rng.random() < 0.98 else header[:2]))
    for i in range(len(lines)):
        if rng.random() < 0.1:
            lines[i] = rng.choice(("", " ", "\t", "\u00a0", "\u3000")) + lines[i]
    for _ in range(rng.choice((0, 0, 1, 2, 4))):
        lines.insert(rng.randint(0, len(lines)), rng.choice(FILLER))
    text = "".join(line + rng.choice(NEWLINES) for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    if rng.random() < 0.2:
        text = "\ufeff" + text
    if rng.random() < 0.05:
        at = rng.randint(0, len(text))
        text = text[:at] + "\ufeff" + text[at:]
    return text


def parse_outcome(parse, text):
    """The graph parse returns, or the class, message and line it raises."""
    try:
        return parse(text)
    except (InputFormatError, CapacityError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_parse_graph_matches_the_reference_parser():
    """parse_graph returns a graph equal to the reference parser's, or raises
    the same exception class with the same message and line, on 3,000
    seeded texts; the tally checks that the texts reach valid graphs of
    both kinds and every fault the parser reports."""
    rng = random.Random(2031)
    tally = Counter()
    for case in range(3000):
        text = random_parse_text(rng)
        want = parse_outcome(reference_parse_graph, text)
        assert parse_outcome(parse_graph, text) == want, (case, text)
        if isinstance(want, tuple):
            tally.update(fault for fault in FAULTS if fault in want[1])
        else:
            tally[type(want).__name__] += 1
    assert tally["Graph"] >= 800 and tally["BipartiteGraph"] >= 300, tally
    assert all(tally[fault] >= 5 for fault in FAULTS), tally


# --- graph invariants ----------------------------------------------------


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1, -1)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1, ())


def test_weight_of_a_non_edge_raises():
    g = path_graph(3)
    assert g.weight(1, 0) == 1
    with pytest.raises(KeyError):
        g.weight(0, 2)


def test_adjacency_symmetry():
    g = complete_graph(5)
    for u in range(5):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


# --- degree profile ------------------------------------------------------


def test_degree_profile_path3():
    prof = degree_profile(path_graph(3))
    assert prof.avg == Fraction(4, 3)
    assert prof.histogram == {1: 2, 2: 1}


def test_degree_profile_k4():
    prof = degree_profile(complete_graph(4))
    assert prof.avg == 3
    assert prof.histogram == {3: 4}


def test_degree_profile_edgeless():
    prof = degree_profile(empty_graph(5))
    assert prof.avg == 0
    assert prof.histogram == {0: 5}


def test_degree_profile_empty_graph():
    prof = degree_profile(empty_graph(0))
    assert prof.avg == 0
    assert prof.histogram == {}


# --- pair partner --------------------------------------------------------


def test_pair_partner_values():
    assert pair_partner(4) == 5
    assert pair_partner(5) == 4
    assert pair_partner(0) == 1


@given(st.integers(0, 63))
def test_pair_partner_involution(v):
    assert pair_partner(pair_partner(v)) == v


# --- generators ----------------------------------------------------------


def test_gnm_all_edges_is_complete():
    for seed in (0, 1, 99):
        g = random_gnm(4, 6, seed)
        assert g == complete_graph(4)


def test_gnm_exact_degree():
    g = random_gnm(10, 15, 7)
    assert degree_profile(g).avg == 3
    assert g.m == 15


def test_regular_generator():
    g = random_regular(6, 3, 1)
    prof = degree_profile(g)
    assert prof.avg == 3
    assert prof.histogram == {3: 6}


def test_generators_deterministic():
    assert random_gnm(12, 20, 5) == random_gnm(12, 20, 5)
    assert random_regular(10, 3, 2) == random_regular(10, 3, 2)
    assert random_bipartite(6, 13, 3) == random_bipartite(6, 13, 3)


def test_generators_histogram_consistency():
    for seed in range(10):
        g = random_gnm(9, 2 * seed, seed)
        prof = degree_profile(g)
        assert sum(prof.histogram.values()) == g.n
        assert prof.avg == Fraction(2 * g.m, g.n)


def test_generator_infeasible_params():
    with pytest.raises(ValueError):
        random_gnm(4, 7, 0)
    with pytest.raises(ValueError):
        random_regular(5, 3, 0)  # n*d odd
    with pytest.raises(ValueError):
        random_bipartite(2, 5, 0)
    with pytest.raises(ValueError, match="m >= 2k"):
        random_bipartite_min2(4, 7, 0)


def test_gen_dispatch_regular_suffix():
    """The regular model takes its degree from d alone: a degree in the
    model name is an unknown model."""
    with pytest.raises(ValueError, match="unknown model"):
        gen_random_graph("regular-3", 1, n=6)
    assert degree_profile(gen_random_graph("regular", 1, n=6, d=3)).avg == 3
