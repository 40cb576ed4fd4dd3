"""CLI dispatch: JSON shapes, exit codes, pipelines, bench determinism."""

import contextlib
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
    main(["gen", "--model", "regular-3", "--n", "12", "--seed", "5"])
    first = capsys.readouterr().out
    main(["gen", "--model", "regular-3", "--n", "12", "--seed", "5"])
    assert capsys.readouterr().out == first


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
    """Sampling indices and unranking them picks the pairs a sample of the
    full pair list picks, so every seeded graph is the one it always was;
    likewise for the extra cells of random_bipartite_min2."""
    for n in range(30):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert [generate._unrank_pair(n, i) for i in range(len(pairs))] == pairs
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
    n = 20000
    total = n * (n - 1) // 2
    for i in (0, 1, n - 2, n - 1, total // 2, total - 1):
        u, v = generate._unrank_pair(n, i)
        assert 0 <= u < v < n and u * n - u * (u + 1) // 2 + v - u - 1 == i


@pytest.mark.parametrize(
    "argv",
    [["--model", "gnm", "--n", "20000"], ["--model", "bipartite", "--k", "10000"]],
)
def test_gen_sparse_draw_on_many_vertices_stays_small(capsys, argv):
    """Drawing 5 edges takes O(5) memory whatever n is; a graph that large is
    over the vertex cap, so gen refuses it at once with exit 3."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["gen", *argv, "--m", "5", "--seed", "1"])
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


def test_stats_output(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("graph 6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    code, payload = run_json(capsys, ["stats", "--input", str(path), "--alpha", "1"])
    assert code == 0
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


def test_bench_rows_and_summary():
    rows, summary = run_bench(
        "count-pm-dp", "gnm", sizes=[10, 12], degrees=[3], seeds=[1, 2]
    )
    assert len(rows) == 4
    assert [set(r) for r in rows] == [set(BENCH_COLUMNS)] * 4
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


def test_bench_tsp_generic_state_bound():
    rows, _ = run_bench(
        "tsp", "regular", sizes=[16], degrees=[3], seeds=[1, 2, 3, 4, 5]
    )
    assert len(rows) == 5
    for row in rows:
        assert row["states"] <= row["n"] * 2 ** (row["n"] - 1)


def test_bench_tsp_rows_count_the_bounded_dp():
    """Rows with and without a tour both report the states of the bounded DP
    that tsp_cycle runs, so their log2 ratios compare like with like."""
    from expdeg import tsp_cycle
    from expdeg.tsp import cycle_dp_states

    rows, _ = run_bench("tsp", "gnm", sizes=[12], degrees=[4], seeds=list(range(1, 11)))
    assert {row["result"] == "" for row in rows} == {True, False}
    for row in rows:
        g = random_gnm(row["n"], row["m"], row["seed"])
        assert row["states"] == cycle_dp_states(g) > 0
        if row["result"]:
            assert row["states"] == tsp_cycle(g).states_visited


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
    code = main(
        [
            "bench",
            "--algo",
            "count-pm-inex",
            "--sizes",
            "6",
            "--degrees",
            "2",
            "--seeds",
            "1",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 2


def test_bench_parallel_matches_serial(monkeypatch):
    serial, _ = run_bench("count-pm-dp", "gnm", sizes=[8], degrees=[2, 3], seeds=[1, 2])
    monkeypatch.setenv("EXPDEG_THREADS", "2")
    parallel, _ = run_bench(
        "count-pm-dp", "gnm", sizes=[8], degrees=[2, 3], seeds=[1, 2]
    )
    # timing fields differ between runs; everything else must be identical
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows
    ]
    assert strip(serial) == strip(parallel)


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

FUZZ_VALUES = ["1/0", "0", "-1", "inf", "nan", "1e40", "3.55", "abc", "1", "2", "3", "8"]
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
            argv += ["--model", draw(st.sampled_from(["gnm", "regular", "bipartite"]))]
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
