"""Benchmark entry point: solves seeded instance mixes through `expdeg.cli`.

    python3 perfbench/run.py --workload tour --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads: tour, count-cover,
count-inex, count-bip, or `all` to run the four in turn.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones (see
README.md).  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
SETUP_PROBES = 6  # fresh-interpreter imports before and again after the loop
MIN_PASSES = 3
TRACE_MIN_PASSES = 2  # per phase: untraced, then traced
WORKER_TIMEOUT_S = 160
BASELINE = "--baseline"


def child_env() -> dict:
    """The caller's environment without any EXPDEG_* setting, so the run
    measures the program's defaults, importing expdeg from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXPDEG_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probes(env, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to `expdeg.cli` imported,
    `count` times, each scaled to the nominal machine speed (see
    calibrate.py) by the kernel times measured just before and after it."""
    scaled = []
    kernel_s = calibrate.measure()
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import expdeg.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = calibrate.measure()
        scaled.append(elapsed * calibrate.NOMINAL_S * 2 / (kernel_s + after))
        kernel_s = after
    return scaled


def environment(instance_hash: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "instances_sha256": instance_hash,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "expdeg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_jobs(instances, workdir: Path, extra_args=()) -> list[dict]:
    jobs = []
    for inst in instances:
        path = workdir / f"{inst.name}.txt"
        path.write_text(inst.text, encoding="utf-8")
        jobs.append({"id": inst.name + "".join(extra_args),
                     "argv": [*inst.args, "--input", str(path), *extra_args]})
    return jobs


def run_worker(job: dict, workdir: Path, env) -> dict:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path), str(result_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["expdeg_file"]).resolve().parent != (SRC / "expdeg").resolve():
        raise RuntimeError(f"worker imported expdeg from {result['expdeg_file']}, not {SRC}")
    return result


def verify_all(instances_by_id, records, workload, references) -> tuple[dict, int, int]:
    """Check each distinct instance once.  Returns ({id: None or reason},
    attempted solves, failed solves): every solve of an instance whose
    answer is wrong or unstable counts as failed.  A `--baseline` record
    is checked against the sparse answer for the same instance."""
    verdicts, attempted, failed = {}, 0, 0
    for job_id, rec in records.items():
        inst = instances_by_id[job_id.removesuffix(BASELINE)]
        attempted += rec["attempts"]
        if rec["payload"] is None:
            verdict = f"no answer: {rec['failures'][:1]}"
        elif rec["mismatch"]:
            verdict = "answers differ between passes"
        elif job_id.endswith(BASELINE):
            verdict = verify.check_baseline(inst, rec["payload"], records[inst.name]["payload"])
        else:
            verdict = verify.check(inst, rec["payload"], workload, references)
        verdicts[job_id] = verdict
        failed += rec["attempts"] if verdict else len(rec["failures"])
    return verdicts, attempted, failed


def compare_traced(traced, records, verdicts) -> tuple[int, int]:
    """Traced solves must give the untraced answers, which are already
    checked.  Updates `verdicts`; returns (attempted, failed) solves."""
    attempted = failed = 0
    for job_id, rec in traced.items():
        attempted += rec["attempts"]
        if verdicts[job_id] is None and (rec["mismatch"] or rec["payload"] != records[job_id]["payload"]):
            verdicts[job_id] = "traced answer differs from untraced answer"
        failed += rec["attempts"] if verdicts[job_id] else len(rec["failures"])
    return attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    mix = instances.build_mix(workload, seed, scale)
    report = {"workload": workload, "seed": seed, "trace": trace}
    env = child_env()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = {"mode": "trace" if trace else "plain", "seconds": seconds,
               "min_passes": TRACE_MIN_PASSES if trace else MIN_PASSES,
               "mix": write_jobs(mix, workdir)}
        checked = {inst.name: inst for inst in mix}
        everything = list(mix)
        if trace:
            probe = [inst for other in instances.WORKLOADS if other != workload
                     for inst in instances.build_mix(other, seed, "probe" if scale == "full" else scale)]
            dense = instances.build_dense(seed, scale)
            job["slice"] = write_jobs(probe, workdir)
            job["dense"] = write_jobs(dense, workdir) + write_jobs(dense, workdir, (BASELINE,))
            checked.update({inst.name: inst for inst in probe + dense})
            everything += probe + dense
        setup = setup_probes(env, SETUP_PROBES + 1)[1:]  # the first one warms caches
        result = run_worker(job, workdir, env)
        setup += setup_probes(env, SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    report["env"] = environment(instances.mix_digest(everything))
    references = verify.load_references()
    records, kernel_s = result["solves"]["mix"], result["kernel_s"]
    verdicts, attempted, failed = verify_all(checked, records, workload, references)
    report.update(passes=result["passes"], instances=len(mix),
                  kernel_ms=[round(k * 1000, 1) for k in kernel_s["mix"]])
    if not trace:
        values = metrics.end_to_end(mix, records, kernel_s["mix"], verdicts, result["rss_mb"],
                                    statistics.median(setup), verify.command_of)
        report["metrics"] = {name: (values[name], unit) for name, unit in metrics.END_TO_END}
        report["samples"] = {"setup_s": len(setup), "solves": len(records)}
    else:
        a, f = compare_traced(result["solves"]["traced"], records, verdicts)
        v, a2, f2 = verify_all(checked, result["solves"]["probe"], workload, references)
        verdicts.update(v)
        attempted += a + a2
        failed += f + f2
        untraced = sum(metrics.solve_times(records, kernel_s["mix"]).values())
        traced = sum(metrics.solve_times(result["solves"]["traced"], kernel_s["traced"]).values())
        values, absent, notes = metrics.per_layer(workload, result, traced / untraced - 1)
        report.update(metrics=values, absent=absent, notes=notes)
    report.update(attempted=attempted, failed=failed,
                  failures={k: v for k, v in verdicts.items() if v})
    return report


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"== {report['workload']}  seed={report['seed']}  trace={int(report['trace'])}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"   {report['instances']} instances x {report['passes']} passes, closed loop, "
          f"1 client, 1 thread\n   calibration kernel ms, about once a second: {report['kernel_ms']}")
    samples = report.get("samples", {})
    for name, (value, unit) in report["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {samples['setup_s']} fresh interpreters)"
        elif name.startswith("solve"):
            extra = f"  ({samples['solves']} instances, median of {report['passes']} passes each)"
        elif name in report.get("notes", {}):
            extra = f"  ({report['notes'][name]})"
        print(f"   {name:<44} {value:>16.6g} {unit}{extra}")
    for name, reason in report.get("absent", {}).items():
        print(f"   {name:<44} {'absent':>16}  ({reason})")
    frac = report["failed"] / report["attempted"]
    print(f"   {'failed_frac':<44} {frac:>16.6g} fraction  "
          f"({report['failed']} of {report['attempted']} solves)")
    for name, reason in report["failures"].items():
        print(f"   FAILED {name}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*instances.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: a few small instances per workload")
    args = parser.parse_args(argv)
    names = list(instances.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              "tiny" if args.tiny else "full")
        print_report(report)
        reports.append(report)
    prefix = len(reports) > 1
    out_metrics = {
        (f"{r['workload']}/{name}" if prefix else name): {"value": value, "unit": unit}
        for r in reports for name, (value, unit) in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "expdeg" / "cli.py").is_file():
        print(f"perfbench: no expdeg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import calibrate
    import instances
    import metrics
    import verify

    sys.exit(main())
