"""Graph types, text-format parsing/serialization and degree statistics.

Two input types exist: a simple undirected graph with nonnegative integer
edge weights, and a bipartite graph with equal sides.  Both are immutable
after construction and capped at 64 vertices per side.  The cap is a
refusal limit (CapacityError), not a word size: the subset DPs key their
tables on Python int bit masks, which have none.

Text format (UTF-8, with or without one leading byte-order mark; '#'
starts a comment line, blank lines ignored):

    graph <n> <m>        header, then m lines "u v" or "u v w"
    bigraph <k> <m>      header, then m lines "i j" (i in side A, j in B)

Vertices are 0-indexed; weights are decimal nonnegative integers, 1 when
omitted, of at most Python's int-to-str digit limit (4,300 by default).
"""

from __future__ import annotations

import sys

from .errors import CapacityError, InputFormatError, _shown

VERTEX_CAPACITY = 64


class _EdgeError(ValueError):
    """A bad edge; `index` is its position in the order the edges were given."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in `_fields` and lists them, with any
    attribute derived from them, in `__slots__`.  A record is built from
    its fields by position or keyword, equals a record of the same class
    with equal fields, hashes and reprs by its fields, and refuses
    attribute assignment.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:  # the fields after the positional ones, in field order
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild from the fields
        return type(self), self._values()


def _check_size(size: int, what: str) -> None:
    if size < 0:
        raise ValueError(f"{what} must be nonnegative")
    if size > VERTEX_CAPACITY:
        raise CapacityError(f"{what} is {_shown(size)}, capacity is {VERTEX_CAPACITY}")


class Graph(Record):
    """Simple undirected weighted graph on vertices 0..n-1.

    The constructor takes (u, v, w) triples in any order and orientation and
    checks each in turn: int endpoints in range, no self-loop, no duplicate
    in either orientation, an int weight >= 0.  edges then holds the
    canonical triples with u < v, sorted; adjacency is derived, symmetric
    and sorted by neighbour.
    """

    __slots__ = ("n", "edges", "adjacency")
    _fields = ("n", "edges")
    n: int
    edges: tuple[tuple[int, int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, n: int, edges):
        _check_size(n, "vertex count")
        seen = set()
        canon = []
        for index, (u, v, w) in enumerate(edges):
            if type(u) is not int or type(v) is not int:
                raise _EdgeError(f"edge ({u!r},{v!r}) has a non-integer endpoint", index)
            if not (0 <= u < n and 0 <= v < n):
                raise _EdgeError(f"edge ({u},{v}) out of range for n={n}", index)
            if u == v:
                raise _EdgeError(f"self-loop at vertex {u}", index)
            lo, hi = (u, v) if u < v else (v, u)
            key = lo * n + hi
            if key in seen:
                raise _EdgeError(f"duplicate edge ({u},{v})", index)
            if type(w) is not int:
                raise _EdgeError(f"weight {w!r} on edge ({u},{v}) is not an integer", index)
            if w < 0:
                raise _EdgeError(f"negative weight on edge ({u},{v})", index)
            seen.add(key)
            canon.append((lo, hi, w))
        canon.sort()
        # sorted edges fill every adjacency list in neighbour order
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in canon:
            adj[u].append((v, w))
            adj[v].append((u, w))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build from (u, v) pairs, weight 1, or (u, v, w) triples."""
        return cls(n, [(*e, 1) if len(e) == 2 else e for e in edges])

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self.adjacency[v])

    def weight(self, u: int, v: int) -> int:
        for x, w in self.adjacency[u]:
            if x == v:
                return w
        raise KeyError(f"no edge ({u},{v})")

    def has_edge(self, u: int, v: int) -> bool:
        return any(x == v for x, _ in self.adjacency[u])


class BipartiteGraph(Record):
    """Bipartite graph with sides A and B of equal size k, edges (i, j).

    The constructor takes the edges in any order and checks each in turn:
    int indices in range, no duplicate.  edges then holds them sorted.
    """

    __slots__ = ("k", "edges", "adj_a", "adj_b")
    _fields = ("k", "edges")
    k: int
    edges: tuple[tuple[int, int], ...]
    adj_a: tuple[tuple[int, ...], ...]
    adj_b: tuple[tuple[int, ...], ...]

    def __init__(self, k: int, edges):
        _check_size(k, "bipartite side size")
        seen = set()
        for index, (i, j) in enumerate(edges):
            if type(i) is not int or type(j) is not int:
                raise _EdgeError(f"edge ({i!r},{j!r}) has a non-integer index", index)
            if not (0 <= i < k and 0 <= j < k):
                raise _EdgeError(f"edge ({i},{j}) out of range for k={k}", index)
            if (i, j) in seen:
                raise _EdgeError(f"duplicate edge ({i},{j})", index)
            seen.add((i, j))
        edges = sorted(seen)
        # sorted edges fill both adjacency sides in index order
        adj_a: list[list[int]] = [[] for _ in range(k)]
        adj_b: list[list[int]] = [[] for _ in range(k)]
        for i, j in edges:
            adj_a[i].append(j)
            adj_b[j].append(i)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "adj_a", tuple(map(tuple, adj_a)))
        object.__setattr__(self, "adj_b", tuple(map(tuple, adj_b)))

    @classmethod
    def from_edges(cls, k: int, edges) -> BipartiteGraph:
        return cls(k, edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def transpose(self) -> BipartiteGraph:
        return BipartiteGraph(self.k, [(j, i) for i, j in self.edges])


class DegreeProfile(Record):
    """histogram maps degree -> vertex count; avg is the exact rational 2m/n."""

    __slots__ = _fields = ("histogram", "avg")
    histogram: dict[int, int]
    avg: Fraction

    @property
    def max_degree(self) -> int:
        return max(self.histogram) if self.histogram else 0

    def count_above(self, threshold: int) -> int:
        return sum(c for d, c in self.histogram.items() if d > threshold)


def degree_profile(g: Graph) -> DegreeProfile:
    """Degree histogram and exact average degree."""
    from fractions import Fraction  # here, so loading the graph types skips it

    hist: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    avg = Fraction(2 * g.m, g.n) if g.n else Fraction(0)
    return DegreeProfile(hist, avg)


def pair_partner(v: int) -> int:
    """The other member of v's consecutive pair (2i, 2i+1); an involution."""
    return v ^ 1


def _digit_cap(fields) -> str:
    """The message suffix ' of at most L digits' when a field is longer
    than L, Python's int-to-str digit limit, where it has one, and ''
    otherwise: int() refuses such a field as it refuses a non-integer."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    longest = max(map(len, fields), default=0)
    return f" of at most {limit} digits" if limit and longest > limit else ""


def parse_graph(text: str) -> Graph | BipartiteGraph:
    """Parse the text format described in the module docstring.

    One pass splits each line into its whitespace-separated fields; a line
    without fields, or whose first field starts with '#', is skipped.  The
    edge fields go straight to the constructor as (u, v, w) triples, or
    (i, j) pairs for a bigraph, which checks them.  One leading byte-order
    mark (U+FEFF), which some editors write at the start of a UTF-8 file,
    is skipped; a mark anywhere else is malformed input.

    Raises InputFormatError with a line number on malformed input (for a
    bad edge, the constructor's message) and CapacityError when the
    declared size exceeds the vertex capacity.
    """
    content: list[tuple[int, list[str]]] = []
    for idx, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        tok = raw.split()
        if tok and tok[0][0] != "#":
            content.append((idx, tok))

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
        raise InputFormatError(
            f"header sizes must be integers{_digit_cap(header[1:])}", header_line
        ) from None
    if size < 0 or m < 0:
        raise InputFormatError("header sizes must be nonnegative", header_line)
    what = "vertex count" if header[0] == "graph" else "bipartite side size"
    try:
        _check_size(size, what)
    except CapacityError as exc:
        raise CapacityError(f"line {header_line}: {exc}") from None

    body = content[1:]
    if len(body) != m:
        raise InputFormatError(
            f"header declares {m} edges but {len(body)} edge lines found", header_line
        )

    # the constructor checks the edges; a bad one is reported at its line.
    # tail completes a 2-field line: weight 1 in a graph, nothing in a bigraph
    if header[0] == "graph":
        kind, arity, tail = Graph, (2, 3), (1,)
        shape = "edge line must be 'u v' or 'u v w'"
    else:
        kind, arity, tail = BipartiteGraph, (2,), ()
        shape = "bipartite edge line must be 'i j'"
    edges = []
    try:
        for line_no, tok in body:
            if len(tok) not in arity:
                raise InputFormatError(shape, line_no)
            pair = (int(tok[0]), int(tok[1]))
            edges.append(pair + (int(tok[2]),) if len(tok) == 3 else pair + tail)
    except ValueError:
        raise InputFormatError(f"edge fields must be integers{_digit_cap(tok)}", line_no) from None
    try:
        return kind(size, edges)
    except _EdgeError as exc:
        raise InputFormatError(str(exc), body[exc.index][0]) from None


def serialize_graph(g: Graph | BipartiteGraph) -> str:
    """Emit the text format with edges sorted by (u, v); parses back identically."""
    if isinstance(g, Graph):
        out = [f"graph {g.n} {g.m}"]
        for u, v, w in g.edges:
            out.append(f"{u} {v}" if w == 1 else f"{u} {v} {w}")
    else:
        out = [f"bigraph {g.k} {g.m}"]
        for i, j in g.edges:
            out.append(f"{i} {j}")
    return "\n".join(out) + "\n"
