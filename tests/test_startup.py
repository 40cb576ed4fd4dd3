"""Start-up: each command runs in a fresh interpreter and loads only the
modules it uses; the lazy package namespace and the record types keep
their contracts.

The fresh-process tests matter because every in-process test runs after
some other test has imported every module, so a command that forgot to
import its solver would still pass there.
"""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import expdeg
from expdeg import BipartiteGraph, Graph, OracleBudget, PmDpResult, TourResult, serialize_graph
from expdeg.cli import main

SRC = str(Path(expdeg.__file__).resolve().parents[1])
# never loaded by `import expdeg.cli`, nor by tsp and count-pm --algo dp|inex
HEAVY = {"dataclasses", "fractions", "decimal", "csv", "random", "typing"}
CLI_MODULES = {"expdeg", "expdeg.cli", "expdeg.errors", "expdeg.graphs"}


def fresh(args):
    """`python -S <args>` with only this checkout's expdeg on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    graph = root / "g.txt"
    # weighted cubic graph on 10 vertices: within both oracles' budgets
    edges = expdeg.random_regular(10, 3, 1).edges
    graph.write_text(serialize_graph(Graph(10, [(u, v, 1 + u * v % 5) for u, v, _ in edges])))
    bigraph = root / "b.txt"
    bigraph.write_text(serialize_graph(expdeg.random_bipartite_min2(6, 16, 1)))
    return {"graph": str(graph), "bigraph": str(bigraph)}


GEN = [
    ["gen", "--model", "gnm", "--n", "8", "--m", "12", "--seed", "1"],
    ["gen", "--model", "regular", "--d", "3", "--n", "10", "--seed", "1"],
    ["gen", "--model", "bipartite", "--k", "5", "--m", "12", "--seed", "1"],
]
SOLVE = [
    ["tsp", "--input", "graph"],
    ["tsp", "--input", "graph", "--path", "0", "5"],
    ["tsp", "--input", "graph", "--baseline"],
    ["tsp", "--input", "graph", "--baseline", "oracle"],
    ["count-pm", "--input", "graph", "--algo", "inex"],
    ["count-pm", "--input", "graph", "--algo", "dp"],
    ["count-pm", "--input", "graph", "--algo", "oracle"],
    ["count-pm-bip", "--input", "bigraph"],
    ["count-pm-bip", "--input", "bigraph", "--baseline"],
    ["stats", "--input", "graph"],
    ["bench", "--algo", "tsp", "--sizes", "8", "--degrees", "3", "--seeds", "1", "2"],
    ["bench", "--algo", "count-pm-bip", "--sizes", "6", "--degrees", "3", "--seeds", "1",
     "--format", "csv"],
]


def without_times(text):
    """The JSON report with every elapsed_ms dropped; CSV text as it is."""
    if not text.startswith("{"):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]
    payload = json.loads(text)
    payload.pop("elapsed_ms", None)
    for row in payload.get("rows", ()):
        del row["elapsed_ms"]
    return payload


@pytest.mark.parametrize("argv", GEN + SOLVE, ids=" ".join)
def test_every_command_runs_in_a_fresh_interpreter(argv, inputs, capsys):
    argv = [inputs.get(arg, arg) for arg in argv]
    proc = fresh(["-m", "expdeg", *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert main(argv) == 0
    expected = capsys.readouterr().out
    if argv[0] == "gen":
        assert proc.stdout == expected
    else:
        assert without_times(proc.stdout) == without_times(expected)


def loaded_by(argv):
    """(modules loaded by `import expdeg.cli`, modules main(argv) adds)."""
    script = (
        "import json, sys\n"
        "import expdeg.cli\n"
        "before = set(sys.modules)\n"
        "code = expdeg.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(before), sorted(set(sys.modules) - before)]),"
        " file=sys.stderr)\n"
    )
    proc = fresh(["-c", script, *argv])
    code, before, added = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    return set(before), set(added)


@pytest.mark.parametrize(
    "argv, solver",
    [
        # the sparse DPs walk their layers by expdeg.layers.drive
        (["tsp"], {"expdeg.tsp", "expdeg.bitset", "expdeg.layers"}),
        (["count-pm", "--algo", "dp"], {"expdeg.pm_dp", "expdeg.layers"}),
        (["count-pm", "--algo", "inex"], {"expdeg.pm_inex"}),
    ],
)
def test_a_command_loads_only_its_solver(argv, solver, inputs):
    before, added = loaded_by([*argv, "--input", inputs["graph"]])
    assert {name for name in before if name.startswith("expdeg")} == CLI_MODULES
    assert {name for name in added if name.startswith("expdeg")} == solver
    assert not HEAVY & (before | added)


def test_importing_the_cli_loads_no_solver():
    proc = fresh(["-c", "import json, sys, expdeg.cli; print(json.dumps(sorted(sys.modules)))"])
    loaded = set(json.loads(proc.stdout))
    assert {name for name in loaded if name.startswith("expdeg")} == CLI_MODULES
    assert not HEAVY & loaded


def test_public_names_are_their_modules_objects():
    assert expdeg.__all__ == sorted(expdeg.__all__)
    for name in expdeg.__all__:
        value = getattr(expdeg, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert value.__module__.startswith("expdeg.")
    assert set(expdeg.__all__) <= set(dir(expdeg))
    with pytest.raises(AttributeError):
        expdeg.no_such_name
    # a submodule still imports by name, in a process that has not loaded it
    proc = fresh(["-c", "from expdeg import cli, tsp, tsp_cycle; print(tsp_cycle is tsp.tsp_cycle)"])
    assert proc.stdout == "True\n", proc.stderr


def test_graph_types_compare_hash_and_repr_by_their_fields():
    g = Graph(3, [(2, 1, 4), (0, 1, 1)])
    h = Graph.from_edges(3, [(1, 0), (1, 2, 4)])
    assert g == h and hash(g) == hash(h) and g != Graph(3, [(0, 1, 1)])
    assert repr(g) == "Graph(n=3, edges=((0, 1, 1), (1, 2, 4)))"
    assert g.adjacency == (((1, 1),), ((0, 1), (2, 4)), ((1, 4),))
    b = BipartiteGraph(2, [(1, 0), (0, 1)])
    assert b == BipartiteGraph.from_edges(2, [(0, 1), (1, 0)])
    assert hash(b) == hash(BipartiteGraph(2, [(0, 1), (1, 0)]))
    assert repr(b) == "BipartiteGraph(k=2, edges=((0, 1), (1, 0)))"
    # equal only to a record of the same class
    assert Graph(2, ()) != BipartiteGraph(2, ()) and g != (3, g.edges)
    for record in (g, b):
        for name in ("edges", "adjacency", "adj_a", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, ())
        with pytest.raises(AttributeError):
            del record.edges
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_records_take_fields_by_position_or_keyword():
    assert OracleBudget(max_n=3, max_work=9) == OracleBudget(3, max_work=9)
    assert repr(PmDpResult(445, 1609)) == "PmDpResult(count=445, states_visited=1609)"
    assert TourResult(5, (0, 1, 2), 7) != TourResult(5, (0, 2, 1), 7)
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"max_n": 2}),
                         ((), {"max_n": 1, "cap": 2})]:
        with pytest.raises(TypeError):
            OracleBudget(*args, **kwargs)
    with pytest.raises(AttributeError):
        PmDpResult(1, 2).count = 3
