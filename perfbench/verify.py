"""Answer checks, run once per distinct instance outside the timed loop.

An answer passes when it has the documented JSON keys and when:
  * a tour is a Hamiltonian cycle (or a-b path) of the instance whose edge
    weights sum to the reported weight, and that weight (or infeasibility)
    matches the expected answer;
  * a count matches the expected answer.

The expected answer is, in order of preference: one fixed by construction
(pendant or bridged graphs have no tour, odd-component graphs no perfect
matching); `count_pm_dp` for `count-pm --algo inex`; `ryser_permanent` for
bipartite instances with k <= 20; the reference file kept for the shipped
seeds (`references.json`, keyed by the instance file's hash); and for any
other instance, a re-solve of a randomly relabelled copy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from expdeg import BipartiteGraph, Graph, pm_bipartite, pm_dp, tsp

import instances

REFERENCES = Path(__file__).with_name("references.json")
RYSER_MAX_K = 20

_KEYS = {
    "tsp": ("weight", "order", "states_visited"),
    "dp": ("count", "states_visited"),
    "inex": ("count", "subsets_processed"),
    "count-pm-bip": ("count", "stored_states"),
}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def parse_text(text: str) -> Graph | BipartiteGraph:
    """The benchmark's own reading of a file it generated."""
    header, *lines = text.splitlines()
    kind, size, _ = header.split()
    rows = [tuple(int(x) for x in line.split()) for line in lines]
    if kind == "bigraph":
        return BipartiteGraph.from_edges(int(size), rows)
    return Graph.from_edges(int(size), rows)


def command_of(inst) -> str:
    return inst.args[2] if inst.args[0] == "count-pm" else inst.args[0]


def answer_of(inst, payload):
    """A tour's weight (None when infeasible), or a count string."""
    if command_of(inst) == "tsp":
        return None if payload.get("feasible") is False else payload["weight"]
    return payload["count"]


def solve(inst, g, endpoints=None):
    """The answer from the library solver behind the instance's command."""
    if isinstance(g, BipartiteGraph):
        return str(pm_bipartite.count_pm_bipartite(g).count)
    if command_of(inst) != "tsp":
        return str(pm_dp.count_pm_dp(g).count)
    result = tsp.ham_path(g, *endpoints) if endpoints else tsp.tsp_cycle(g)
    return None if result is None else result.weight


def solve_relabelled(inst, g):
    """The answer on a randomly relabelled (for bipartite inputs, also
    transposed) copy of the instance."""
    rng = random.Random(instances.text_digest(inst.text))
    if isinstance(g, BipartiteGraph):
        pa, pb = rng.sample(range(g.k), g.k), rng.sample(range(g.k), g.k)
        return solve(inst, BipartiteGraph.from_edges(g.k, [(pb[j], pa[i]) for i, j in g.edges]))
    perm = rng.sample(range(g.n), g.n)
    h = Graph.from_edges(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    endpoints = inst.endpoints and (perm[inst.endpoints[0]], perm[inst.endpoints[1]])
    return solve(inst, h, endpoints)


def expected_answer(inst, g, workload: str, references: dict):
    """(answer, how it was obtained)."""
    command = command_of(inst)
    if command == "inex":
        return str(pm_dp.count_pm_dp(g).count), "count_pm_dp"
    if inst.known is not None:
        return (None if inst.known is False else inst.known), "construction"
    if command == "count-pm-bip" and g.k <= RYSER_MAX_K:
        return str(pm_bipartite.ryser_permanent(g)), "ryser_permanent"
    digest = instances.text_digest(inst.text)
    table = references.get(workload, {})
    if digest in table:
        return table[digest], "reference"
    return solve_relabelled(inst, g), "relabelled re-solve"


def _tour_error(inst, g, payload) -> str | None:
    order = payload["order"]
    if sorted(order) != list(range(g.n)):
        return "order is not a permutation of the vertices"
    weight = {(u, v): w for u, v, w in g.edges}
    weight.update({(v, u): w for u, v, w in g.edges})
    steps = list(zip(order, order[1:]))
    if inst.endpoints is None:
        steps.append((order[-1], order[0]))
    elif (order[0], order[-1]) != tuple(inst.endpoints):
        return f"path runs {order[0]}..{order[-1]}, asked for {inst.endpoints}"
    missing = [s for s in steps if s not in weight]
    if missing:
        return f"tour uses non-edge {missing[0]}"
    total = sum(weight[s] for s in steps)
    if total != payload["weight"]:
        return f"tour weighs {total}, reported {payload['weight']}"
    return None


def check(inst, payload, workload: str, references: dict) -> str | None:
    """None if the answer is right, else the reason it is not."""
    command = command_of(inst)
    g = parse_text(inst.text)
    if not (command == "tsp" and payload.get("feasible") is False):
        missing = [key for key in _KEYS[command] if key not in payload]
        if missing:
            return f"missing documented keys {missing}"
        if command == "tsp":
            error = _tour_error(inst, g, payload)
            if error:
                return error
    expected, how = expected_answer(inst, g, workload, references)
    got = answer_of(inst, payload)
    if got != expected:
        return f"answer {got!r}, expected {expected!r} ({how})"
    return None


def check_baseline(inst, payload, sparse_payload) -> str | None:
    """A dense reference (`--baseline`) must give the sparse solver's answer,
    and its tour must be a valid one."""
    if sparse_payload is None:
        return "no sparse answer to compare with"
    got, expected = answer_of(inst, payload), answer_of(inst, sparse_payload)
    if got != expected:
        return f"dense reference gives {got!r}, sparse solver {expected!r}"
    if command_of(inst) == "tsp" and got is not None:
        return _tour_error(inst, parse_text(inst.text), payload)
    return None
