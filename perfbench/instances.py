"""Seeded instance generator for the benchmark's workloads.

Self-contained on purpose: it writes the documented graph text format
itself and imports nothing from `expdeg`, so a change to the program's own
generators can never change the instance set.

Each instance has two random streams.  Its graph structure comes from a
stream fixed per (workload, index); its vertex labels, edge weights and
path endpoints from a stream seeded by (workload, seed, index).  So one
seed always yields the same files, different seeds give differently
labelled and weighted inputs, and the pairing (2i, 2i+1) and anchor the
solvers see are as arbitrary as for real inputs, while run-to-run spread
from drawing easier or harder graph structures stays out of the figures.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Degree distributions of the irregular min-degree-2 families, as
# (degree, weight) pairs.  Means: 3.0 and 3.5.
_DEG_AVG3 = ((2, 4), (3, 3), (4, 2), (5, 1))
_DEG_AVG35 = ((2, 2), (3, 3), (4, 3), (5, 2))

_MAX_ATTEMPTS = 100_000


@dataclass(frozen=True)
class Instance:
    """One input file plus the CLI arguments that solve it.

    `known` holds an answer fixed by construction (None when unknown):
    a 'feasible' flag of False for tours, or the count "0" for matchings.
    `endpoints` is the (a, b) pair of a Hamiltonian-path query.
    """

    name: str
    family: str
    size: int
    text: str
    args: tuple[str, ...]
    known: object = None
    endpoints: tuple[int, int] | None = None


# ---------------------------------------------------------------------------
# general graphs: (n, [(u, v, w), ...]) with u != v, no parallel edges


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _from_degrees(rng: random.Random, degrees: list[int], tries: int):
    """Simple connected graph with the given degree sequence, by the
    configuration model with rejection; None if `tries` pairings fail."""
    n = len(degrees)
    stubs = [v for v in range(n) for _ in range(degrees[v])]
    for _ in range(tries):
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = sorted((stubs[i], stubs[i + 1]))
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            out = sorted((u, v, 1) for u, v in edges)
            if _connected(n, out):
                return out
    return None


def _cubic(rng, n):
    edges = _from_degrees(rng, [3] * n, _MAX_ATTEMPTS)
    if edges is None:
        raise RuntimeError(f"no connected cubic graph found for n={n}")
    return edges


def _degree_multiset(n, dist) -> list[int]:
    """n degrees following `dist` exactly (largest-remainder rounding,
    capped at n - 1, total made even), so only the wiring is random and
    instances of one size stay comparable in difficulty."""
    total = sum(w for _, w in dist)
    shares = [(n * w / total, min(d, n - 1)) for d, w in dist]
    counts = [int(x) for x, _ in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: int(shares[i][0]) - shares[i][0])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    degrees = [d for (_, d), c in zip(shares, counts) for _ in range(c)]
    if sum(degrees) % 2:
        degrees[-1] -= 1
    return degrees


def _irregular(rng, n, dist=_DEG_AVG3):
    """Connected graph whose degree multiset follows `dist`."""
    degrees = _degree_multiset(n, dist)
    edges = _from_degrees(rng, degrees, _MAX_ATTEMPTS)
    if edges is None:
        raise RuntimeError(f"no connected graph found for degrees {degrees}")
    return edges


def _hamiltonian_irregular(rng, n):
    """A random Hamiltonian cycle plus chords that lift the degrees to the
    mean-3 multiset: irregular, and Hamiltonian by construction."""
    order = rng.sample(range(n), n)
    cycle = {tuple(sorted((order[i], order[i - 1]))) for i in range(n)}
    extra = [d - 2 for d in _degree_multiset(n, _DEG_AVG3)]
    for _ in range(_MAX_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(extra[v])]
        rng.shuffle(stubs)
        chords = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(chords) == len(stubs) // 2 and not chords & cycle and all(u != v for u, v in chords):
            return sorted((u, v, 1) for u, v in cycle | chords)
    raise RuntimeError(f"no chords found for n={n}")


def _pendant(rng, n):
    """Irregular min-degree-2 graph on n - 1 vertices plus one degree-1
    vertex: never Hamiltonian (no cycle passes a degree-1 vertex)."""
    edges = _irregular(rng, n - 1)
    edges.append((rng.randrange(n - 1), n - 1, 1))
    return edges


def _bridged_cubic(rng, n):
    """Cubic graph with a bridge, hence never Hamiltonian: two random cubic
    blocks, each with one edge subdivided by a vertex, joined by an edge
    between the two subdivision vertices."""
    half = (n - 2) // 2
    a = half if half % 2 == 0 else half - 1
    b = n - 2 - a
    edges = []
    for offset, size, hub in ((0, a, n - 2), (a, b, n - 1)):
        block = [(u + offset, v + offset, 1) for u, v, _ in _cubic(rng, size)]
        x, y, _ = block.pop(rng.randrange(len(block)))
        edges += block + [(x, hub, 1), (y, hub, 1)]
    edges.append((n - 2, n - 1, 1))
    return edges


def _odd_union(rng, n):
    """Disjoint union of two odd-order connected irregular graphs: an even
    vertex count with no perfect matching."""
    a = n // 2 if (n // 2) % 2 else n // 2 - 1
    first = _irregular(rng, a)
    second = [(u + a, v + a, w) for u, v, w in _irregular(rng, n - a)]
    return first + second


def _graph_text(labels: random.Random, n: int, edges, weighted: bool) -> str:
    """Relabel vertices randomly, draw weights 1..100 if asked, and write
    the 'graph' format."""
    perm = labels.sample(range(n), n)
    lines = []
    for u, v, _ in edges:
        x, y = sorted((perm[u], perm[v]))
        lines.append((x, y, labels.randint(1, 100) if weighted else 1))
    lines.sort()
    body = "".join(f"{u} {v} {w}\n" if weighted else f"{u} {v}\n" for u, v, w in lines)
    return f"graph {n} {len(lines)}\n" + body


# ---------------------------------------------------------------------------
# bipartite graphs: k, [(i, j), ...] with i in side A, j in side B


def _bip_base(rng, k, m, skew: bool = False):
    """Two edge-disjoint random perfect matchings (so both sides have
    minimum degree 2) plus random extra edges up to m.  With `skew`, extra
    edges favour high-index B vertices, so degrees spread unevenly on side
    B while side A stays even."""
    for _ in range(_MAX_ATTEMPTS):
        p1 = rng.sample(range(k), k)
        p2 = rng.sample(range(k), k)
        if all(x != y for x, y in zip(p1, p2)):
            break
    else:
        raise RuntimeError(f"no disjoint matchings for k={k}")
    edges = {(i, p1[i]) for i in range(k)} | {(i, p2[i]) for i in range(k)}
    b_weights = [(j + 1) ** 2 if skew else 1 for j in range(k)]
    while len(edges) < m:
        edges.add((rng.randrange(k), rng.choices(range(k), b_weights)[0]))
    return sorted(edges)


def _bip_peeled(rng, k, m, forced: int):
    """A base instance on k - forced vertices per side, plus `forced` pairs
    whose A vertex has degree 1; the solver's degree-1 forcing removes each
    pair and the pair's extra edges into the base."""
    base_k = k - forced
    edges = _bip_base(rng, base_k, m - 3 * forced)
    for t in range(forced):
        a = b = base_k + t
        edges.append((a, b))
        for i in rng.sample(range(base_k), 2):
            edges.append((i, b))
    return sorted(set(edges))


def _bip_text(labels, k, edges) -> str:
    pa = labels.sample(range(k), k)
    pb = labels.sample(range(k), k)
    lines = sorted((pa[i], pb[j]) for i, j in edges)
    return f"bigraph {k} {len(lines)}\n" + "".join(f"{i} {j}\n" for i, j in lines)


# ---------------------------------------------------------------------------
# workload mixes


# Per workload and scale, (family, size, count) rows.  "full" is the timed
# mix, "probe" the small slice that a traced run of another workload uses
# to reach this workload's module, and "tiny" the smoke-test scale.
MIXES = {
    "tour": {
        "full": (
            ("cubic", 26, 16), ("cubic", 28, 3),
            ("irregular", 28, 14), ("irregular", 30, 3),
            ("path-cubic", 26, 4), ("path-irregular", 28, 4),
            ("pendant", 27, 14), ("bridged", 26, 11), ("bridged", 30, 3),
        ),
        "probe": (("cubic", 18, 1), ("path-irregular", 18, 1), ("pendant", 17, 1)),
        "tiny": (("cubic", 10, 2), ("irregular", 10, 1), ("path-cubic", 10, 1),
                 ("pendant", 9, 1), ("bridged", 12, 1)),
    },
    "count-cover": {
        "full": (
            ("cubic", 26, 28), ("cubic", 28, 11), ("cubic", 30, 3),
            ("irregular3", 28, 16), ("irregular3.5", 26, 11), ("no-matching", 28, 11),
        ),
        "probe": (("cubic", 20, 1), ("irregular3.5", 20, 1)),
        "tiny": (("cubic", 10, 2), ("irregular3.5", 10, 1), ("no-matching", 10, 1)),
    },
    "count-inex": {
        "full": (
            ("cubic", 18, 10), ("irregular3", 18, 8), ("irregular3.5", 18, 4),
            ("cubic", 20, 4), ("irregular3.5", 20, 2), ("no-matching", 18, 2),
        ),
        "probe": (("cubic", 14, 1), ("irregular3", 14, 1)),
        "tiny": (("cubic", 8, 2), ("irregular3", 8, 1), ("no-matching", 8, 1)),
    },
    "count-bip": {
        "full": (
            ("min2-d3", 21, 16), ("min2-d3", 22, 16), ("min2-d3", 23, 6),
            ("min2-d3.5", 21, 4), ("skewed-d3", 22, 8), ("peeled-d3", 23, 10),
        ),
        "probe": (("min2-d3", 16, 1), ("peeled-d3", 17, 1)),
        "tiny": (("min2-d3", 6, 2), ("skewed-d3.5", 6, 1), ("peeled-d3", 7, 1)),
    },
}

# Instances small enough for the dense references (Held-Karp, Ryser); a
# traced run solves each one with the sparse solver and with --baseline.
DENSE = {
    "full": (("tour", "cubic", 16), ("tour", "cubic", 18),
             ("count-bip", "min2-d3", 16), ("count-bip", "min2-d3", 18)),
    "tiny": (("tour", "cubic", 10), ("count-bip", "min2-d3", 8)),
}


def _tour(rng, labels, family, n):
    known, endpoints = None, None
    if family == "pendant":
        edges, known = _pendant(rng, n), False
    elif family == "bridged":
        edges, known = _bridged_cubic(rng, n), False
    elif family.endswith("irregular"):
        edges = _hamiltonian_irregular(rng, n)
    else:
        edges = _cubic(rng, n)
    text = _graph_text(labels, n, edges, weighted=True)
    args = ("tsp",)
    if family.startswith("path-"):
        endpoints = tuple(labels.sample(range(n), 2))
        args += ("--path", str(endpoints[0]), str(endpoints[1]))
    return text, args, known, endpoints


def _matching_graph(rng, labels, family, n):
    known = None
    if family == "no-matching":
        edges, known = _odd_union(rng, n), "0"
    elif family == "irregular3.5":
        edges = _irregular(rng, n, _DEG_AVG35)
    elif family == "irregular3":
        edges = _irregular(rng, n)
    else:
        edges = _cubic(rng, n)
    return _graph_text(labels, n, edges, weighted=False), known


def _cover(rng, labels, family, n):
    text, known = _matching_graph(rng, labels, family, n)
    return text, ("count-pm", "--algo", "dp"), known, None


def _inex(rng, labels, family, n):
    text, known = _matching_graph(rng, labels, family, n)
    return text, ("count-pm", "--algo", "inex"), known, None


def _bip(rng, labels, family, k):
    shape, deg = family.split("-d")
    m = round(k * float(deg))
    if shape == "peeled":
        edges = _bip_peeled(rng, k, m, forced=max(1, k // 8))
    else:
        edges = _bip_base(rng, k, m, skew=shape == "skewed")
    return _bip_text(labels, k, edges), ("count-pm-bip",), None, None


_MAKERS = {"tour": _tour, "count-cover": _cover, "count-inex": _inex, "count-bip": _bip}
WORKLOADS = tuple(MIXES)


def _instance(workload, seed, index, family, size, tag=""):
    structure = random.Random(f"{workload}:{tag}{index}")
    labels = random.Random(f"{workload}:{seed}:{tag}{index}")
    text, args, known, endpoints = _MAKERS[workload](structure, labels, family, size)
    name = f"{workload}-{tag}{index:03d}-{family}-{size}"
    return Instance(name, family, size, text, args, known, endpoints)


def build_mix(workload: str, seed: int, scale: str = "full") -> list[Instance]:
    """The workload's instances for `seed` at `scale`, in a seeded shuffled
    order, so one family's instances are not solved back to back."""
    rows = [(family, size) for family, size, count in MIXES[workload][scale] for _ in range(count)]
    out = [_instance(workload, seed, i, family, size, scale[0]) for i, (family, size) in enumerate(rows)]
    random.Random(f"{workload}:{seed}:order:{scale}").shuffle(out)
    return out


def build_dense(seed: int, scale: str = "full") -> list[Instance]:
    return [
        _instance(workload, seed, i, family, size, "d")
        for i, (workload, family, size) in enumerate(DENSE[scale])
    ]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mix_digest(instances) -> str:
    """Hash of every generated file and its command line, in order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(" ".join(inst.args).encode() + b"\n" + inst.text.encode())
    return h.hexdigest()[:16]
