"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import instances  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from expdeg import pm_dp, tsp  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = instances.build_mix(workload, 5)
    again = instances.build_mix(workload, 5)
    other = instances.build_mix(workload, 6)
    assert [(i.name, i.text, i.args) for i in first] == [(i.name, i.text, i.args) for i in again]
    assert instances.mix_digest(first) == instances.mix_digest(again)
    assert instances.mix_digest(first) != instances.mix_digest(other)
    # another seed relabels the same structures
    assert sorted(len(i.text.splitlines()) for i in first) == sorted(
        len(i.text.splitlines()) for i in other)


def test_generator_does_not_use_the_programs_generator():
    source = (BENCH / "instances.py").read_text()
    assert "import expdeg" not in source and "from expdeg" not in source


def _tour_instance():
    inst = next(i for i in instances.build_mix("tour", 1, "tiny") if i.family == "cubic")
    g = verify.parse_text(inst.text)
    result = tsp.tsp_cycle(g)
    payload = {"weight": result.weight, "order": list(result.order),
               "states_visited": result.states_visited}
    return inst, payload


def test_verifier_accepts_a_right_tour_and_rejects_corrupted_ones():
    inst, payload = _tour_instance()
    assert verify.check(inst, payload, "tour", {}) is None
    heavier = dict(payload, weight=payload["weight"] + 1)
    assert "weighs" in verify.check(inst, heavier, "tour", {})
    order = payload["order"]
    swapped = dict(payload, order=[order[1], order[0], *order[2:]])
    assert verify.check(inst, swapped, "tour", {}) is not None
    assert "missing" in verify.check(inst, {"weight": payload["weight"]}, "tour", {})
    assert verify.check(inst, {"feasible": False}, "tour", {}) is not None


def test_verifier_rejects_a_wrong_count_and_a_false_reference():
    inst = next(i for i in instances.build_mix("count-cover", 1, "tiny") if i.known is None)
    count = pm_dp.count_pm_dp(verify.parse_text(inst.text))
    payload = {"count": str(count.count), "states_visited": count.states_visited}
    assert verify.check(inst, payload, "count-cover", {}) is None
    wrong = dict(payload, count=str(count.count + 1))
    assert "expected" in verify.check(inst, wrong, "count-cover", {})
    false_ref = {"count-cover": {instances.text_digest(inst.text): str(count.count + 2)}}
    assert "reference" in verify.check(inst, payload, "count-cover", false_ref)


def test_tracer_passes_results_through_and_reports_missing_names():
    tracer = tracing.Tracer()
    tracer.install(("pm_dp.count_pm_dp", "pm_dp.no_such_function"))
    try:
        g = verify.parse_text(instances.build_mix("count-cover", 1, "tiny")[0].text)
        traced = pm_dp.count_pm_dp(g)
    finally:
        tracer.uninstall()
    assert traced == pm_dp.count_pm_dp(g)
    assert "no_such_function" in tracer.absent["pm_dp.no_such_function"]
    (span,) = [s for s in tracer.spans if s[0] == "pm_dp.count_pm_dp"]
    assert span[6] == {"states": traced.states_visited}
    assert not hasattr(pm_dp.count_pm_dp, "__wrapped__")


def test_self_time_excludes_children():
    spans = [("outer", "p", "j", 0.0, 10.0, -1, None), ("inner", "p", "j", 2.0, 5.0, 0, None)]
    summary = tracing.summarize(spans)
    assert summary[("p", "outer")]["self"] == pytest.approx(7.0)
    assert summary[("p", "inner")]["self"] == pytest.approx(3.0)


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_tiny_smoke_run(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "2", "--seconds", "0.2",
                              "--trace", "0", "--tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = last_json(run_bench("--workload", "tour", "--seed", "1", "--seconds", "0.2",
                                "--trace", "0", "--tiny"))
    traced = last_json(run_bench("--workload", "count-bip", "--seed", "1", "--seconds", "0.2",
                                 "--trace", "1", "--tiny"))
    for printed, declared in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert {k: v["unit"] for k, v in printed["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        assert traced["correct"]
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in metrics.END_TO_END]
    assert {w["name"] for w in spec["workloads"]} <= set(instances.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "tour", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
