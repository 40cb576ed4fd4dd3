"""CLI dispatch: JSON shapes, exit codes, pipelines, bench determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expdeg
from expdeg import cli
from expdeg import (
    BipartiteGraph,
    Graph,
    count_pm_inex,
    generate,
    parse_graph,
    random_bipartite,
    random_bipartite_min2,
    random_gnm,
    random_regular,
    serialize_graph,
)
from expdeg.cli import BENCH_COLUMNS, main, run_bench
from conftest import complete_graph, cycle_graph


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(serialize_graph(complete_graph(4)))
    return str(path)


@pytest.fixture
def c4w_file(tmp_path):
    path = tmp_path / "c4w.txt"
    path.write_text("graph 4 4\n0 1 1\n1 2 2\n2 3 3\n0 3 4\n")
    return str(path)


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.txt"
    path.write_text(
        "bigraph 3 9\n" + "\n".join(f"{i} {j}" for i in range(3) for j in range(3)) + "\n"
    )
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_pm_inex_k4(capsys, k4_file):
    code, payload = run_json(capsys, ["count-pm", "--algo", "inex", "--input", k4_file])
    assert code == 0
    assert payload["count"] == "3"
    assert payload["subsets_processed"] == 4


def test_count_pm_all_algos_agree(capsys, k4_file):
    counts = set()
    for algo in ("inex", "dp", "oracle"):
        code, payload = run_json(
            capsys, ["count-pm", "--algo", algo, "--input", k4_file]
        )
        assert code == 0
        counts.add(payload["count"])
    assert counts == {"3"}


def test_tsp_cycle_json(capsys, c4w_file):
    code, payload = run_json(capsys, ["tsp", "--input", c4w_file])
    assert code == 0
    assert payload["weight"] == 10
    assert sorted(payload["order"]) == [0, 1, 2, 3]
    assert payload["states_visited"] > 0


def test_tsp_infeasible_path(capsys, c4w_file):
    code, payload = run_json(capsys, ["tsp", "--input", c4w_file, "--path", "0", "2"])
    assert code == 0
    assert payload == {"feasible": False, "elapsed_ms": payload["elapsed_ms"]}


def test_tsp_baselines(capsys, c4w_file):
    code, payload = run_json(capsys, ["tsp", "--input", c4w_file, "--baseline"])
    assert code == 0 and payload["weight"] == 10
    code, payload = run_json(
        capsys, ["tsp", "--input", c4w_file, "--baseline", "oracle"]
    )
    assert code == 0 and payload["weight"] == 10


def test_tsp_weight_past_the_float_range(capsys, tmp_path):
    """A hexagon plus its three long diagonals, the diagonal 0-3 weighing
    10**400: every tsp entry exits 0 with the oracle's weight."""
    path = tmp_path / "big.txt"
    edges = ["0 1", "1 2", "2 3", "3 4", "4 5", "0 5", "1 4", "2 5", f"0 3 {10**400}"]
    path.write_text("graph 6 9\n" + "\n".join(edges) + "\n")
    code, payload = run_json(capsys, ["tsp", "--input", str(path), "--baseline", "oracle"])
    assert code == 0 and payload["weight"] == 6
    for argv, want in (([], 6), (["--baseline"], 6), (["--path", "0", "3"], 5)):
        code, payload = run_json(capsys, ["tsp", "--input", str(path), *argv])
        assert code == 0 and payload["weight"] == want, argv



# Python's int-to-str digit limit; 0 where the interpreter has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python reads and prints ints of any length"
)


@needs_digit_limit
def test_an_answer_past_the_digit_limit_exits_3(capsys, tmp_path):
    """A triangle whose weights each have as many nines as the digit limit
    allows parses, and every tsp entry solves it; its weight is one digit
    longer, so each refuses to print it with exit 3 in one line."""
    nines = "9" * DIGIT_LIMIT
    path = tmp_path / "tri.txt"
    path.write_text(f"graph 3 3\n0 1 {nines}\n1 2 {nines}\n0 2 {nines}\n")
    for argv in ([], ["--baseline"], ["--baseline", "oracle"], ["--path", "0", "2"]):
        code = main(["tsp", "--input", str(path), *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert captured.err == (
            f"expdeg: capacity: the answer has more than {DIGIT_LIMIT} digits to print\n"
        ), argv


@needs_digit_limit
def test_a_weight_past_the_digit_limit_exits_2_naming_it(capsys, tmp_path):
    """A weight one digit past the limit is refused at its line, with the
    limit named, not called a non-integer."""
    path = tmp_path / "tri.txt"
    path.write_text(f"graph 3 3\n0 1 {'9' * (DIGIT_LIMIT + 1)}\n1 2\n0 2\n")
    code = main(["tsp", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"expdeg: error: line 2: edge fields must be integers of at most {DIGIT_LIMIT} digits\n"
    )

@needs_digit_limit
def test_a_header_size_past_the_digit_limit_exits_2_naming_it(capsys, tmp_path):
    """A header size one digit past the limit is refused at its line with
    the limit named, as an edge field is; one digit less is read, and is
    over the vertex capacity."""
    path = tmp_path / "big.txt"
    for digits, code, err in (
        (DIGIT_LIMIT + 1, 2,
         f"error: line 1: header sizes must be integers of at most {DIGIT_LIMIT} digits"),
        (DIGIT_LIMIT, 3, "capacity: line 1: vertex count is over 10^18, capacity is 64"),
    ):
        path.write_text(f"graph {'9' * digits} 0\n")
        assert main(["tsp", "--input", str(path)]) == code, digits
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"expdeg: {err}\n", digits


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [
        ["count-pm-bip", "--alpha"],
        ["stats", "--alpha"],
        ["bench", "--algo", "count-pm-bip", "--sizes", "6", "--seeds", "1", "--degrees"],
    ],
)
def test_a_rational_past_the_digit_limit_is_refused_in_one_short_line(
    capsys, k4_file, k33_file, argv
):
    """A flag's rational with a run of digits one past the limit exits 2 in
    one error line that names the limit and shows only the value's first 20
    characters and its length, after argparse's usage lines; nothing is
    solved and no traceback is printed."""
    value = "9" * (DIGIT_LIMIT + 1)
    files = {"count-pm-bip": k33_file, "stats": k4_file}
    given = ["--input", files[argv[0]]] if argv[0] in files else []
    assert main([*argv, value, *given]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1 and errors[0] == captured.err.splitlines()[-1]
    assert errors[0].endswith(
        f": rationals must be written with integers of at most {DIGIT_LIMIT} digits:"
        f" {'9' * 20!r}... ({DIGIT_LIMIT + 1} characters)"
    )
    assert "Traceback" not in captured.err and len(captured.err) < 600


def test_a_long_bad_rational_is_echoed_short(capsys, k33_file):
    """A value that is no rational is echoed whole up to 40 characters, and
    past that by its first 20 and its length."""
    for value, shown in (("x" * 40, repr("x" * 40)), ("x" * 500, f"{'x' * 20!r}... (500 characters)")):
        assert main(["count-pm-bip", "--alpha", value, "--input", k33_file]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"error: argument --alpha: not a rational number: {shown}")


def test_tsp_path_refuses_a_baseline(capsys, tmp_path):
    """Both baselines solve cycles only, so --path with --baseline exits 2
    with one line naming both flags instead of dropping one of them."""
    path = tmp_path / "c4.txt"
    path.write_text("graph 4 4\n0 1 1\n1 2 1\n2 3 1\n0 3 5\n")
    code, payload = run_json(capsys, ["tsp", "--input", str(path), "--path", "0", "3"])
    assert code == 0 and payload["weight"] == 3
    for baseline in (["--baseline"], ["--baseline", "held-karp"], ["--baseline", "oracle"]):
        code = main(["tsp", "--input", str(path), "--path", "0", "3", *baseline])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("expdeg: error: ") and captured.err.count("\n") == 1
        assert "--path" in captured.err and "--baseline" in captured.err


BENCH_GRID = ["--sizes", "8", "--degrees", "3", "--seeds", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["count-pm-bip", "--baseline", "--alpha", "3.55"], "--alpha"),
        (["count-pm-bip", "--baseline", "--alpha", "0"], "--alpha"),
        (["bench", "--algo", "tsp", "--alpha", "1", *BENCH_GRID], "--alpha"),
        (["bench", "--algo", "count-pm-dp", "--alpha", "0", *BENCH_GRID], "--alpha"),
        (["tsp", "--path", "0", "3", "--baseline", "oracle"], "--path"),
    ],
)
def test_a_solver_flag_the_entry_does_not_read_exits_2(capsys, tmp_path, argv, flag):
    """A solver flag that the chosen SOLVERS entry does not read is refused
    in one line naming it, not ignored; an --alpha of 0 counts as given.
    The solve commands refuse it before reading the input, which here is
    missing."""
    if argv[0] != "bench":
        argv = [*argv, "--input", str(tmp_path / "missing.txt")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("expdeg: error: ") and captured.err.count("\n") == 1
    assert flag in captured.err and "missing" not in captured.err


def test_run_bench_refuses_a_flag_the_algo_does_not_read():
    with pytest.raises(ValueError, match="tsp does not read --alpha"):
        run_bench("tsp", "regular", [8], [3], [1], alpha=1)
    with pytest.raises(ValueError, match="count-pm-dp does not read --alpha"):
        run_bench("count-pm-dp", "gnm", [8], [3], [1], alpha=0)


def test_parser_reuse_leaks_no_state(capsys, c4w_file, k4_file):
    """One parser serves every main call in a process: each call of a
    sequence prints what a freshly built parser prints for it."""
    assert cli._build_parser() is cli._build_parser()
    sequence = [
        ["tsp", "--input", c4w_file, "--path", "0", "1"],
        ["tsp", "--input", c4w_file],
        ["count-pm", "--input", k4_file, "--algo", "dp"],
        ["count-pm", "--input", k4_file],
        ["count-pm", "--input", k4_file, "--algo", "nope"],
        ["tsp", "--input", c4w_file, "--baseline"],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        payload = json.loads(out) if code == 0 else out
        if code == 0:
            del payload["elapsed_ms"]
        return code, payload

    reused = [run(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert "order" in reused[0][1] and "subsets_processed" in reused[3][1]


# every solving entry of SOLVERS: its argv less --input, and its payload,
# elapsed_ms aside, on a weighted cubic graph of 8 vertices (a bigraph of
# side 5 for count-pm-bip), as the indented output of the parent printed it
ONE_LINE = {
    "tsp": (["tsp"], {"weight": 18, "order": [0, 1, 6, 3, 5, 7, 4, 2], "states_visited": 26}),
    "tsp --path": (
        ["tsp", "--path", "0", "5"],
        {"weight": 22, "order": [0, 2, 7, 4, 6, 1, 3, 5], "states_visited": 27},
    ),
    "tsp --baseline held-karp": (
        ["tsp", "--baseline"],
        {"weight": 18, "order": [0, 2, 4, 7, 5, 3, 6, 1], "states_visited": 93},
    ),
    "tsp --baseline oracle": (["tsp", "--baseline", "oracle"], {"weight": 18}),
    "count-pm-inex": (
        ["count-pm", "--algo", "inex"], {"count": "5", "subsets_processed": 16}
    ),
    "count-pm-dp": (["count-pm", "--algo", "dp"], {"count": "5", "states_visited": 14}),
    "count-pm-oracle": (["count-pm", "--algo", "oracle"], {"count": "5"}),
    "count-pm-bip": (
        ["count-pm-bip"],
        {"count": "4", "stored_states": 13, "pruned_calls": 2, "b0_size": 0},
    ),
    "count-pm-bip --baseline": (["count-pm-bip", "--baseline"], {"count": "4"}),
    "stats": (["stats"], {
        "n": 8, "m": 12, "avg_degree": "3", "max_degree": 3, "histogram": {"3": 8},
        "gap": {"alpha": "1", "d_threshold": 1, "count_above": 8, "bound": "24"},
        "disjoint_set": {"d": "3", "max_deg": 3, "vertices": [0], "size": 1,
                         "size_bound": 1},
        "deg2_sample": {"s": 0, "t": 7, "count": 16, "total_subsets": 256,
                        "ratio": "1/16"},
    }),
}


def test_one_line_covers_every_solver():
    assert ONE_LINE.keys() == cli.SOLVERS.keys()


@pytest.mark.parametrize("name", ONE_LINE)
def test_every_solver_prints_its_payload_on_one_line(capsys, tmp_path, name):
    """stdout is one JSON object on one line, the payload the indented
    output held, elapsed_ms aside."""
    argv, want = ONE_LINE[name]
    if cli.SOLVERS[name].kind is BipartiteGraph:
        path, g = tmp_path / "b.txt", random_bipartite_min2(5, 12, 1)
    else:
        edges = random_regular(8, 3, 1).edges
        path, g = tmp_path / "g.txt", Graph(8, [(u, v, 1 + u * v % 5) for u, v, _ in edges])
    path.write_text(serialize_graph(g))
    assert main([*argv, "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert isinstance(payload.pop("elapsed_ms"), float)
    assert payload == want


def test_count_pm_bip(capsys, k33_file):
    code, payload = run_json(capsys, ["count-pm-bip", "--input", k33_file])
    assert code == 0
    assert payload["count"] == "6"
    assert payload["b0_size"] == 0
    code, payload = run_json(
        capsys, ["count-pm-bip", "--input", k33_file, "--baseline"]
    )
    assert code == 0 and payload["count"] == "6"
    code, payload = run_json(
        capsys, ["count-pm-bip", "--input", k33_file, "--swap-sides", "--alpha", "2.5"]
    )
    assert code == 0 and payload["count"] == "6"


def test_gen_pipeline(capsys, tmp_path):
    code = main(["gen", "--model", "gnm", "--n", "10", "--m", "15", "--seed", "7"])
    assert code == 0
    text = capsys.readouterr().out
    g = parse_graph(text)
    assert g.n == 10 and g.m == 15
    from fractions import Fraction

    from expdeg import degree_profile

    assert degree_profile(g).avg == Fraction(3)
    # feed the generated file back through count-pm
    path = tmp_path / "gen.txt"
    path.write_text(text)
    code, payload = run_json(
        capsys, ["count-pm", "--algo", "dp", "--input", str(path)]
    )
    assert code == 0
    assert payload["count"] == str(count_pm_inex(g))


def test_gen_deterministic(capsys):
    main(["gen", "--model", "regular", "--d", "3", "--n", "12", "--seed", "5"])
    first = capsys.readouterr().out
    main(["gen", "--model", "regular", "--d", "3", "--n", "12", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_gen_regular_output_is_pinned(capsys):
    """The cubic graph that the CI pipelines feed to the solvers, as gen
    prints it; its SHA-256 was recorded when gen also read the degree from
    a 'regular-3' model name, which printed the same graph."""
    argv = ["gen", "--model", "regular", "--d", "3", "--n", "12", "--seed", "1"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "765a5d52981fd970de574f71d7e40b01827b5eea9924b12f1cced1faa611735b"
    )


def test_cubic_24_answers_and_state_counts_are_pinned(capsys, tmp_path):
    """Counts, weights and state counts on the cubic n=24 graph that the CI
    pipelines also check through the installed console script."""
    assert main(["gen", "--model", "regular", "--d", "3", "--n", "24", "--seed", "1"]) == 0
    path = tmp_path / "cubic24.txt"
    path.write_text(capsys.readouterr().out)
    for argv, want in (
        (["count-pm", "--algo", "dp"], {"count": "48", "states_visited": 337}),
        (["count-pm", "--algo", "inex"], {"count": "48", "subsets_processed": 4096}),
        (["tsp"], {"weight": 24, "states_visited": 981}),
        (["tsp", "--path", "0", "5"], {"weight": 23, "states_visited": 886}),
    ):
        code, payload = run_json(capsys, [*argv, "--input", str(path)])
        assert code == 0
        assert {key: payload[key] for key in want} == want, argv


@pytest.mark.parametrize(
    "params",
    [
        ["--model", "regular", "--n", "10"],
        ["--model", "regular", "--d", "3"],
        ["--model", "regular-3"],
        ["--model", "gnm", "--n", "10"],
        ["--model", "gnm", "--m", "5"],
        ["--model", "bipartite", "--m", "5"],
        ["--model", "bipartite", "--k", "4"],
        ["--model", "tree", "--n", "10"],
    ],
)
def test_gen_missing_parameter_exits_2(capsys, params):
    assert main(["gen", *params, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("expdeg: error: ")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--model", "gnm", "--n", "3", "--m", "-1"], "m=-1"),
        (["gen", "--model", "bipartite", "--k", "3", "--m", "-1"], "m=-1"),
        (["gen", "--model", "regular", "--n", "-4", "--d", "2"], "n=-4"),
        # the regular model takes its degree from --d alone
        (["gen", "--model", "regular-3", "--n", "4"], "unknown model"),
        (["bench", "--algo", "count-pm-dp", "--sizes", "8", "--degrees", "-3"],
         "degrees must be nonnegative"),
        # the bipartite model takes its side size from --k alone
        (["gen", "--model", "bipartite", "--n", "6", "--m", "12"], "needs k"),
        # a flag the model does not read is refused, not dropped
        (["gen", "--model", "gnm", "--n", "10", "--m", "15", "--d", "3"],
         "does not take d"),
        (["gen", "--model", "bipartite", "--k", "3", "--m", "6", "--n", "6"],
         "does not take n"),
    ],
)
def test_bad_generator_parameter_is_named(capsys, argv, named):
    """A negative or malformed generator parameter exits 2 with one line
    that names it, not the message of a library call underneath."""
    assert main([*argv, "--seed" if argv[0] == "gen" else "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("expdeg: error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    for leak in ("Sample larger", "invalid literal"):
        assert leak not in captured.err


def test_tsp_path_on_64_vertices_exits_3(capsys, tmp_path):
    """A path query solves a cycle on one vertex more, so at the vertex
    capacity it exits 3 with one line; the cycle query still runs."""
    path = tmp_path / "c64.txt"
    path.write_text(serialize_graph(cycle_graph(64)))
    assert main(["tsp", "--input", str(path), "--path", "0", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "expdeg: capacity: a path query adds a vertex to n=64, capacity is 64\n"
    )
    code, payload = run_json(capsys, ["tsp", "--input", str(path)])
    assert code == 0 and payload["weight"] == 64


def test_gen_regular_gives_up_with_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(generate, "_REGULAR_ATTEMPTS", 1)
    code = main(["gen", "--model", "regular", "--n", "30", "--d", "12", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("expdeg: capacity: ") and err.count("\n") == 1
    assert "Traceback" not in err


def min2_from_the_full_cell_list(k: int, m: int, seed: int) -> BipartiteGraph:
    """Reference for random_bipartite_min2: the extras are a sample of the
    full list of cells outside both matchings."""
    rng = random.Random(seed)
    while True:
        p1, p2 = list(range(k)), list(range(k))
        rng.shuffle(p1)
        rng.shuffle(p2)
        if all(a != b for a, b in zip(p1, p2)) or k < 2:
            break
    edges = {(i, p1[i]) for i in range(k)} | {(i, p2[i]) for i in range(k)}
    remaining = [(i, j) for i in range(k) for j in range(k) if (i, j) not in edges]
    edges.update(rng.sample(remaining, m - len(edges)))
    return BipartiteGraph.from_edges(k, edges)


def test_gen_draws_match_the_full_pair_list():
    """random_gnm draws a sample of the lexicographic list of pairs,
    random_bipartite one of the row-major list of cells, and
    random_bipartite_min2 its extras from the cells outside both matchings."""
    for n in range(30):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in sorted({0, min(1, len(pairs)), len(pairs) // 3, len(pairs)}):
            for seed in range(3):
                drawn = random.Random(seed).sample(pairs, m)
                assert random_gnm(n, m, seed) == Graph.from_edges(n, drawn)
    for k in range(16):
        cells = [(i, j) for i in range(k) for j in range(k)]
        for m in sorted({0, len(cells) // 3, len(cells)}):
            for seed in range(3):
                drawn = random.Random(seed).sample(cells, m)
                assert random_bipartite(k, m, seed) == BipartiteGraph.from_edges(k, drawn)
    for k in (0, 2, 3, 4, 5, 8, 13, 20):
        for m in sorted({2 * k, min(2 * k + 1, k * k), (2 * k + k * k) // 2, k * k}):
            for seed in range(3):
                drawn = min2_from_the_full_cell_list(k, m, seed)
                assert random_bipartite_min2(k, m, seed) == drawn, (k, m, seed)


def test_seeded_graphs_are_pinned():
    """A SHA-256 over seeded gnm (n <= 64), bipartite (k <= 16) and min2
    (k <= 64) graphs, recorded when the draws took indices into a range and
    unranked them; it moves if any seeded graph ever does."""
    digest = hashlib.sha256()

    def add(g):
        digest.update(serialize_graph(g).encode())

    for n in range(65):
        t = n * (n - 1) // 2
        for m in sorted({0, min(1, t), t // 7, t // 3, t}):
            for seed in range(3):
                add(random_gnm(n, m, seed))
    for k in range(17):
        for m in sorted({0, min(1, k * k), k * k // 3, k * k}):
            for seed in range(3):
                add(random_bipartite(k, m, seed))
    for k in (0, *range(2, 65)):
        for m in sorted({2 * k, min(2 * k + 1, k * k), (2 * k + k * k) // 2, k * k}):
            for seed in range(3):
                add(random_bipartite_min2(k, m, seed))
    assert digest.hexdigest() == (
        "068b24b5e62bfbded0a1f97a3927f513e2d7fe8cd87a0f7224cff5c9f75174d2"
    )


def test_seeded_regular_graphs_are_pinned():
    """A SHA-256 over seeded random_regular graphs, n <= 40 and d = 0..4
    with n*d even, seeds 0-2; the state counts quoted in the tests and the
    README (random_regular(36, 3, 1) stores 7,907 cover entries on its own
    labels and 1,609 on its greedy matching pairs) rest on these draws, so
    the digest moves if any of them ever does."""
    digest = hashlib.sha256()
    for n in range(41):
        for d in range(min(max(n, 1), 5)):
            if n * d % 2 == 0:
                for seed in range(3):
                    digest.update(serialize_graph(random_regular(n, d, seed)).encode())
    assert digest.hexdigest() == (
        "ae50fc3429b06816e0b5842ef94ecdc58ac4670818634acdaf799da72e256d91"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "gnm", "--n", "20000", "--m", "5"],
        ["--model", "bipartite", "--k", "10000", "--m", "5"],
        ["--model", "regular", "--d", "3", "--n", "100000"],
        ["--model", "gnm", "--n", "2000", "--m", "100000"],
        ["--model", "bipartite", "--k", "1000", "--m", "100000"],
    ],
)
def test_gen_sparse_draw_on_many_vertices_stays_small(capsys, argv):
    """A graph over the vertex cap is refused before any edge is drawn, so
    gen exits 3 at once in small memory, however many edges it asks for."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["gen", *argv, "--seed", "1"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("expdeg: capacity: ")
    assert peak < 1 << 20 and elapsed < 1.0


def test_bench_bip_on_many_vertices_refuses_at_once(capsys):
    """random_bipartite_min2 refuses a side over the vertex cap before it
    draws, so bench exits 3 at once in small memory."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["bench", "--algo", "count-pm-bip", "--sizes", "10000",
                     "--degrees", "3", "--seeds", "1"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("expdeg: capacity: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert peak < 1 << 20 and elapsed < 1.0


@pytest.mark.parametrize(
    "text, argv, want",
    [
        (None, ["gen", "--model", "gnm", "--n", str(10**300), "--m", "5",
                "--seed", "1"], "vertex count is over 10^18, capacity is 64"),
        (f"# a comment\ngraph {10**300} 0\n", ["stats"],
         "line 2: vertex count is over 10^18, capacity is 64"),
        ("graph 65 0\n", ["stats"], "line 1: vertex count is 65, capacity is 64"),
        ("bigraph 65 0\n", ["count-pm-bip"],
         "line 1: bipartite side size is 65, capacity is 64"),
    ],
)
def test_size_over_capacity_is_one_short_line(capsys, tmp_path, text, argv, want):
    """A size over the vertex capacity exits 3 with one line under 200
    characters, however large the size; the header check words it as the
    constructors do, plus its line."""
    if text is not None:
        path = tmp_path / "big.txt"
        path.write_text(text)
        argv = [*argv, "--input", str(path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"expdeg: capacity: {want}\n" and len(err) < 200


def test_dense_baselines_refuse_past_their_caps(capsys, tmp_path):
    """Held-Karp stops at n = 22 (one 2^n x n table, 720 MB RSS there) and
    Ryser at k = 24; one size more exits 3 at once."""
    cycle = tmp_path / "c23.txt"
    cycle.write_text(serialize_graph(cycle_graph(23)))
    matching = tmp_path / "m25.txt"
    diagonal = BipartiteGraph.from_edges(25, [(i, i) for i in range(25)])
    matching.write_text(serialize_graph(diagonal))
    for argv, cap in (
        (["tsp", "--input", str(cycle), "--baseline"], "n=22"),
        (["count-pm-bip", "--input", str(matching), "--baseline"], "k <= 24"),
    ):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("expdeg: capacity: ") and cap in err, err
        assert main(argv[:-1]) == 0  # the sparse solver takes the same input
        capsys.readouterr()


def test_stats_output(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("graph 6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    code, payload = run_json(capsys, ["stats", "--input", str(path), "--alpha", "1"])
    assert code == 0 and payload["elapsed_ms"] >= 0
    assert payload["avg_degree"] == "5/3"
    assert payload["gap"]["d_threshold"] == 1
    assert payload["gap"]["count_above"] == 1
    k3 = tmp_path / "k3.txt"
    k3.write_text("graph 3 3\n0 1\n0 2\n1 2\n")
    code, payload = run_json(capsys, ["stats", "--input", str(k3)])
    assert payload["deg2_sample"]["count"] == 2
    assert payload["deg2_sample"]["total_subsets"] == 8
    assert payload["deg2_sample"]["ratio"] == "1/4"
    edgeless = tmp_path / "e4.txt"
    edgeless.write_text("graph 4 0\n")
    code, payload = run_json(capsys, ["stats", "--input", str(edgeless)])
    assert payload["avg_degree"] == "0"
    assert payload["gap"]["d_threshold"] == 1


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph 2 1\n0 1\n0 1\n")
    assert main(["count-pm", "--input", str(bad)]) == 2
    dup = tmp_path / "dup.txt"
    dup.write_text("graph 3 2\n0 1\n1 0\n")
    assert main(["count-pm", "--input", str(dup)]) == 2
    big = tmp_path / "big.txt"
    big.write_text("graph 99 0\n")
    assert main(["count-pm", "--input", str(big)]) == 3
    assert main(["count-pm", "--input", str(tmp_path / "missing.txt")]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_byte_order_mark_read_alike_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    """One leading UTF-8 byte-order mark is skipped on either input path;
    stdin is decoded as UTF-8 even where the locale's encoding is not, and
    a mark past the start is a parse error at its line on both paths."""
    plain = b"graph 3 3\n0 1\n1 2\n0 2\n"
    cases = [
        (b"\xef\xbb\xbf" + plain, None),
        (b"graph 3 3\n0 1\n\xef\xbb\xbf1 2\n0 2\n", "line 3"),
        (b"\xef\xbb\xbf\xef\xbb\xbf" + plain, "line 1"),
    ]
    unmarked = tmp_path / "plain.txt"
    unmarked.write_bytes(plain)
    assert main(["tsp", "--input", str(unmarked)]) == 0
    want = json.loads(capsys.readouterr().out)
    keys = ("weight", "order", "states_visited")
    for data, fault in cases:
        path = tmp_path / "marked.txt"
        path.write_bytes(data)
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="cp1252")
        monkeypatch.setattr(sys, "stdin", stdin)
        for source in (str(path), "-"):
            code = main(["tsp", "--input", source])
            out, err = capsys.readouterr()
            if fault is None:
                assert code == 0, (data, source, err)
                got = json.loads(out)
                assert [got[k] for k in keys] == [want[k] for k in keys], source
            else:
                assert code == 2 and fault in err and "Traceback" not in err, (data, source)


@pytest.mark.parametrize("command", [["count-pm", "--algo", "dp"], ["tsp"]])
def test_file_and_stdin_read_the_same_bytes_alike(tmp_path, capsys, monkeypatch, command):
    """The same bytes give the same report (less elapsed_ms), stderr and
    exit code through --input FILE and --input -: CRLF and lone-CR line
    ends, a byte-order mark, and an invalid UTF-8 byte, which fails the
    decode of the whole input even inside a comment."""
    text = "graph 4 4\n# a square\n0 1\n1 2\n2 3\n0 3 5\n"
    crlf = text.replace("\n", "\r\n").encode()
    cases = [
        crlf,
        text.replace("\n", "\r").encode(),
        b"\xef\xbb\xbf" + crlf,
        crlf.replace(b"a square", b"a \xff square"),
        text.encode().replace(b"0 3 5", b"0 3 \xff"),
    ]
    codes = []
    for data in cases:
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        seen = []
        for source in (str(path), "-"):
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="cp1252")
            monkeypatch.setattr(sys, "stdin", stdin)
            code = main([*command, "--input", source])
            out, err = capsys.readouterr()
            report = json.loads(out) if out else {}
            report.pop("elapsed_ms", None)
            seen.append((code, report, err))
        assert seen[0] == seen[1], data
        codes.append(seen[0][0])
    assert codes == [0, 0, 0, 2, 2]


def test_bip_small_alpha_rejected_after_peeling(tmp_path, capsys):
    # peeling empties this instance before any trim plan is made
    path = tmp_path / "pm2.txt"
    path.write_text("bigraph 2 2\n0 0\n1 1\n")
    assert main(["count-pm-bip", "--input", str(path), "--alpha", "2"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_type_mismatch_is_input_error(tmp_path, capsys):
    bip = tmp_path / "b.txt"
    bip.write_text("bigraph 2 1\n0 0\n")
    assert main(["tsp", "--input", str(bip)]) == 2
    gen = tmp_path / "g.txt"
    gen.write_text("graph 2 1\n0 1\n")
    assert main(["count-pm-bip", "--input", str(gen)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--alpha", "1/0"],
        ["count-pm-bip", "--alpha", "1/0"],
        ["bench", "--algo", "count-pm-bip", "--sizes", "6", "--degrees", "3",
         "--seeds", "1", "--alpha", "1/0"],
        ["bench", "--algo", "count-pm-inex", "--sizes", "6", "--degrees", "inf",
         "--seeds", "1"],
        ["bench", "--algo", "count-pm-inex", "--sizes", "6", "--degrees", "nan",
         "--seeds", "1"],
        ["stats", "--alpha", "abc"],
        ["bench", "--algo", "tsp", "--sizes", "10", "--degrees", "1e308",
         "--seeds", "1"],
        ["bench", "--algo", "count-pm-bip", "--sizes", "10", "--degrees", "1e308",
         "--seeds", "1"],
    ],
)
def test_bad_numeric_flags_exit_2(capsys, k4_file, k33_file, argv):
    if argv[0] == "stats":
        argv = [*argv, "--input", k4_file]
    elif argv[0] == "count-pm-bip":
        argv = [*argv, "--input", k33_file]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--algo", "tsp", "--sizes", "10", "--degrees", "1e308",
         "--seeds", "1"],
        ["bench", "--algo", "count-pm-bip", "--sizes", "10", "--degrees", "1e308",
         "--seeds", "1"],
        ["gen", "--model", "gnm", "--n", "10", "--m", str(10**300), "--seed", "1"],
        ["gen", "--model", "bipartite", "--k", "10", "--m", str(10**300),
         "--seed", "1"],
    ],
)
def test_huge_m_error_is_one_short_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "exceeds" in err and err.count("\n") == 1 and len(err) < 200
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--model", "gnm", "--n", str(10**300), "--m", str(10**700),
         "--seed", "1"],
        ["gen", "--model", "regular", "--n", str(10**300), "--d", str(10**300),
         "--seed", "1"],
        ["gen", "--model", "regular", "--n", str(10**300 + 1), "--d", "3",
         "--seed", "1"],
        ["gen", "--model", "regular", "--n", "5", "--d", str(-(10**300)),
         "--seed", "1"],
    ],
)
def test_huge_gen_sizes_error_is_one_short_line(capsys, argv):
    """Every size in a gen error message is abbreviated past 10^18: the
    pair total and n of gnm, and n and d of both regular messages."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("expdeg: error: ") and err.count("\n") == 1
    assert len(err) < 200 and "Traceback" not in err


def test_out_of_memory_exits_3_in_one_line(capsys, monkeypatch, k4_file):
    """A solver that runs out of memory exits 3 with one stderr line."""

    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(expdeg.tsp, "held_karp_cycle", exhausted)
    assert main(["tsp", "--baseline", "--input", k4_file]) == 3
    captured = capsys.readouterr()
    assert captured.err == "expdeg: capacity: out of memory\n"
    assert captured.out == ""


@pytest.mark.parametrize("alpha", ["1e40", "1e400", "3." + "0" * 60 + "1"])
def test_stats_large_alpha_returns(tmp_path, alpha):
    path = tmp_path / "c6.txt"
    path.write_text(serialize_graph(cycle_graph(6)))
    src = str(Path(expdeg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "expdeg", "stats", "--input", str(path),
         "--alpha", alpha],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    gap = json.loads(proc.stdout)["gap"]
    assert gap["d_threshold"] == 2 and gap["count_above"] == 0


# --- bench -------------------------------------------------------------------


def test_bench_model_follows_algo(capsys):
    grid = ["--sizes", "6", "--degrees", "3", "--seeds", "1"]
    for argv in (
        ["--algo", "tsp", "--model", "bipartite"],
        ["--algo", "count-pm-bip", "--model", "regular"],
        ["--algo", "count-pm-bip", "--model", "gnm"],
        # the bipartite model follows from the algo alone
        ["--algo", "count-pm-bip", "--model", "bipartite"],
    ):
        assert main(["bench", *argv, *grid]) == 2
        assert "model" in capsys.readouterr().err
    for argv, model in (
        (["--algo", "count-pm-bip"], "bipartite"),
        (["--algo", "count-pm-dp"], "gnm"),
        (["--algo", "tsp", "--model", "regular"], "regular"),
    ):
        code, payload = run_json(capsys, ["bench", *argv, *grid])
        assert code == 0
        assert [row["model"] for row in payload["rows"]] == [model]
    # the regular model takes whole degrees only
    assert main(["bench", "--algo", "tsp", "--model", "regular", "--sizes", "8",
                 "--degrees", "3.5", "--seeds", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("model", ["foo", "Regular"])
def test_run_bench_refuses_a_model_gen_does_not_know(monkeypatch, model):
    """A model that gen's table does not know is refused in gen's words
    before any graph is drawn, not drawn as gnm under its own name."""

    def drawn(*args):
        raise AssertionError(f"a graph was drawn for {model!r}")

    for name in ("random_gnm", "random_regular"):
        monkeypatch.setattr(generate, name, drawn)
    with pytest.raises(ValueError, match=f"^unknown model '{model}'$"):
        run_bench("tsp", model, [8], [3], [1])


@pytest.mark.parametrize("sizes, seeds", [([], [1]), ([8], [])], ids=["no-sizes", "no-seeds"])
def test_run_bench_refuses_an_unknown_model_on_an_empty_grid(sizes, seeds):
    """The model is checked before the grid is read, so a grid with no rows
    is refused too."""
    with pytest.raises(ValueError, match="^unknown model 'foo'$"):
        run_bench("tsp", "foo", sizes, [3], seeds)


@pytest.mark.parametrize("algo, model", [("tsp", "gnm"), ("count-pm-bip", "bipartite")])
def test_run_bench_model_none_is_the_algos_own(algo, model):
    """model None runs the algo's own model: the rows and summary of that
    model named, elapsed_ms aside."""
    runs = [run_bench(algo, m, [8, 10], [3, 2.5], [2, 1]) for m in (None, model)]
    for rows, _ in runs:
        for row in rows:
            row["elapsed_ms"] = None
    assert runs[0] == runs[1] and len(runs[0][0]) == 8
    assert {row["model"] for row in runs[0][0]} == {model}


def test_bench_rows_and_summary():
    rows, summary = run_bench(
        "count-pm-dp", "gnm", sizes=[10, 12], degrees=[3], seeds=[1, 2]
    )
    assert len(rows) == 4
    assert [list(r) for r in rows] == [BENCH_COLUMNS] * 4
    assert rows == sorted(rows, key=lambda r: (r["n"], r["avg_degree"], r["seed"]))
    assert len(summary) == 2
    for s in summary:
        assert s["instances"] == 2
    # cross-algorithm equality on the same instances
    from expdeg import count_pm_inex as inex
    from expdeg import random_gnm

    for row in rows:
        g = random_gnm(row["n"], row["m"], row["seed"])
        assert row["result"] == str(inex(g))
        # generic key-space cap: cover keys X plus path keys (X, a, b, x)
        k = row["n"] // 2
        assert row["states"] <= (2**k) * (1 + 2 * k * k)


def test_bench_orders_rows_and_summary_by_numeric_degree(capsys):
    argv = ["bench", "--algo", "count-pm-dp", "--sizes", "12", "--degrees", "10",
            "2.5", "3", "--seeds", "2", "1"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [(r["avg_degree"], r["seed"]) for r in payload["rows"]] == [
        ("5/2", 1), ("5/2", 2), ("3", 1), ("3", 2), ("10", 1), ("10", 2)
    ]
    assert [s["avg_degree"] for s in payload["summary"]] == ["5/2", "3", "10"]


def test_bench_degrees_read_rationals(capsys):
    """--degrees reads a rational as --alpha does: 7/2 gives the rows of
    3.5."""
    rows = []
    for degree in ("7/2", "3.5"):
        argv = ["bench", "--algo", "count-pm-dp", "--sizes", "8", "12",
                "--degrees", degree, "--seeds", "1", "2"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        rows.append([{**row, "elapsed_ms": None} for row in payload["rows"]])
    assert rows[0] == rows[1] and len(rows[0]) == 4
    assert {row["avg_degree"] for row in rows[0]} == {"7/2"}


def test_bench_tsp_generic_state_bound():
    rows, _ = run_bench(
        "tsp", "regular", sizes=[16], degrees=[3], seeds=[1, 2, 3, 4, 5]
    )
    assert len(rows) == 5
    for row in rows:
        assert row["states"] <= row["n"] * 2 ** (row["n"] - 1)


def test_bench_tsp_rows_count_the_bounded_dp():
    """A row with a tour reports the states of the bounded DP that tsp_cycle
    ran; a row without one reports 0, as the CLI prints no state count for
    it, and stays out of the summary mean."""
    from expdeg import tsp_cycle

    rows, summary = run_bench("tsp", "gnm", [12], [4], seeds=list(range(1, 11)))
    assert {row["result"] == "" for row in rows} == {True, False}
    for row in rows:
        g = random_gnm(row["n"], row["m"], row["seed"])
        res = tsp_cycle(g)
        if row["result"]:
            assert row["states"] == res.states_visited > 0
        else:
            assert res is None
            assert (row["states"], row["log2_states_ratio"]) == (0, 0.0)
    toured = [row["log2_states_ratio"] for row in rows if row["result"]]
    assert summary == [{"n": 12, "avg_degree": "4", "instances": 10,
                        "mean_log2_states_ratio": round(sum(toured) / len(toured), 6)}]


def test_bench_rows_are_what_the_command_prints(capsys, tmp_path, monkeypatch):
    """Each bench row's result and states equal the fields `main` prints for
    the same graph read from a file, on grids with graphs that have no tour
    (not 2-connected), no perfect matching, and, with the bipartite generator
    swapped for one without the minimum-degree guarantee, bipartite graphs
    with no perfect matching."""
    monkeypatch.setattr(generate, "random_bipartite_min2", random_bipartite)
    cases = [
        ("tsp", "gnm", [12], [4], range(1, 11), ["tsp"], "weight", "states_visited"),
        ("count-pm-dp", "gnm", [8, 10], [2, 3], [1, 2], ["count-pm", "--algo", "dp"],
         "count", "states_visited"),
        ("count-pm-inex", "gnm", [8, 10], [2, 3], [1, 2], ["count-pm", "--algo", "inex"],
         "count", "subsets_processed"),
        ("count-pm-bip", "bipartite", [6], [2, 3], [1, 2, 3], ["count-pm-bip"],
         "count", "stored_states"),
    ]
    for algo, model, sizes, degrees, seeds, command, result_key, states_key in cases:
        rows, _ = run_bench(algo, model, sizes, degrees, list(seeds))
        for row in rows:
            make = random_bipartite if algo == "count-pm-bip" else random_gnm
            path = tmp_path / f"{algo}-{row['n']}-{row['m']}-{row['seed']}.txt"
            path.write_text(serialize_graph(make(row["n"], row["m"], row["seed"])))
            code, payload = run_json(capsys, [*command, "--input", str(path)])
            assert code == 0
            expected = (str(payload.get(result_key, "")), payload.get(states_key, 0))
            assert (row["result"], row["states"]) == expected, (algo, row)
        no_solution = "" if algo == "tsp" else "0"
        assert no_solution in {row["result"] for row in rows}, algo
        assert {row["result"] for row in rows} != {no_solution}, algo


def test_bench_elapsed_ms_times_the_solve_alone(monkeypatch):
    """Generating the graph is not part of a row's elapsed_ms."""

    def slow_gnm(n, m, seed):
        time.sleep(0.2)
        return random_gnm(n, m, seed)

    monkeypatch.setattr(generate, "random_gnm", slow_gnm)
    rows, _ = run_bench("count-pm-dp", "gnm", sizes=[8], degrees=[3], seeds=[1])
    assert rows[0]["elapsed_ms"] < 200


def test_bench_bipartite_state_bound():
    from expdeg import stored_state_bound, random_bipartite_min2, count_pm_bipartite

    rows, _ = run_bench("count-pm-bip", "bipartite", sizes=[12], degrees=[3], seeds=[4])
    row = rows[0]
    g = random_bipartite_min2(12, 36, 4)
    res = count_pm_bipartite(g)
    assert row["states"] == res.stored_states
    assert res.stored_states <= stored_state_bound(
        res.reduced_k, res.reduced_d, res.alpha
    )


def test_bench_csv_format(capsys):
    argv = ["bench", "--algo", "count-pm-inex", "--sizes", "6", "--degrees", "2",
            "--seeds", "1", "--format", "csv"]
    code = main(argv)
    assert code == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 2
    # the JSON rows of the same grid have the header's keys, in its order
    code, payload = run_json(capsys, argv[:-2])
    assert code == 0
    assert [list(row) for row in payload["rows"]] == [lines[0].split(",")]


@pytest.mark.parametrize("algo", ["tsp", "count-pm-bip"])
def test_bench_negative_size_names_sizes(capsys, algo):
    argv = ["bench", "--algo", algo, "--sizes", "8", "-3", "--degrees", "3",
            "--seeds", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("expdeg: error: sizes must be nonnegative")


def test_swap_sides_keeps_the_count(capsys, tmp_path):
    for seed in range(6):
        g = random_bipartite(4, 10, seed)
        path = tmp_path / f"b{seed}.txt"
        path.write_text(serialize_graph(g))
        counts = set()
        for extra in ([], ["--swap-sides"], ["--baseline"],
                      ["--swap-sides", "--baseline"]):
            argv = ["count-pm-bip", "--input", str(path), *extra]
            code, payload = run_json(capsys, argv)
            assert code == 0
            counts.add(payload["count"])
        assert len(counts) == 1, (seed, counts)


# --- argv fuzz ------------------------------------------------------------------

FUZZ_VALUES = [
    "1/0", "0", "-1", "inf", "nan", "1e40", "1e308", "3.55", "abc", "1", "2", "3", "8"
]
FUZZ_SIZES = ["-1", "0", "1", "2", "4", "6", "8", "abc"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A general graph with n = 8, a bipartite graph with k = 4, a malformed
    file and a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "general.txt": serialize_graph(random_gnm(8, 12, 3)),
        "bipartite.txt": serialize_graph(random_bipartite(4, 10, 3)),
        "malformed.txt": "graph 3 2\n0 1\n1 7\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return [str(root / name) for name in files] + [str(root / "missing.txt")]


@st.composite
def fuzz_argv(draw, inputs):
    value = st.sampled_from(FUZZ_VALUES)
    command = draw(
        st.sampled_from(["tsp", "count-pm", "count-pm-bip", "stats", "gen", "bench"])
    )
    argv = [command]
    if command in ("tsp", "count-pm", "count-pm-bip", "stats"):
        argv += ["--input", draw(st.sampled_from(inputs))]
    if command == "tsp":
        if draw(st.booleans()):
            argv += ["--path", draw(value), draw(value)]
        argv += draw(st.sampled_from([[], ["--baseline"], ["--baseline", "oracle"]]))
    elif command == "count-pm":
        argv += ["--algo", draw(st.sampled_from(["inex", "dp", "oracle", "abc"]))]
    elif command in ("count-pm-bip", "stats"):
        if draw(st.booleans()):
            argv += ["--alpha", draw(value)]
        if command == "count-pm-bip":
            argv += draw(st.sampled_from([[], ["--swap-sides"], ["--baseline"]]))
    elif command == "gen":
        # n, k <= 8 keeps the regular model's rejection pairing short
        models = ["gnm", "regular", "regular-3", "bipartite", "tree"]
        argv += ["--model", draw(st.sampled_from(models))]
        for flag in ("--n", "--m", "--d", "--k"):
            if draw(st.booleans()):
                argv += [flag, draw(value)]
        argv += ["--seed", draw(value)]
    else:
        algos = ["tsp", "count-pm-dp", "count-pm-inex", "count-pm-bip"]
        argv += ["--algo", draw(st.sampled_from(algos))]
        if draw(st.booleans()):
            # the algorithm's own model, a valid size and seed, and finite
            # degrees, so the degrees alone decide the outcome (m for 1e308
            # must be computed without overflow)
            finite = [v for v in FUZZ_VALUES if v not in ("1/0", "inf", "nan", "abc")]
            degrees = st.lists(st.sampled_from(finite), min_size=1, max_size=4, unique=True)
            argv += ["--sizes", draw(st.sampled_from(["4", "8"])),
                     "--degrees", *draw(degrees), "--seeds", "1"]
        else:
            if draw(st.booleans()):
                models = ["gnm", "regular", "bipartite"]
                argv += ["--model", draw(st.sampled_from(models))]
            sizes = st.lists(st.sampled_from(FUZZ_SIZES), min_size=1, max_size=2)
            argv += ["--sizes", *draw(sizes)]
            argv += ["--degrees", *draw(st.lists(value, min_size=1, max_size=2))]
            argv += ["--seeds", *draw(st.lists(value, min_size=1, max_size=2))]
        if draw(st.booleans()):
            argv += ["--alpha", draw(value)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_inputs, data):
    argv = data.draw(fuzz_argv(fuzz_inputs), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
