"""CLI dispatch: JSON shapes, exit codes, pipelines, bench determinism."""

import json

import pytest

from expdeg import count_pm_inex, generate, parse_graph, serialize_graph
from expdeg.cli import BENCH_COLUMNS, main, run_bench
from conftest import complete_graph


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


# --- bench -------------------------------------------------------------------


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
