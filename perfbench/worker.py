"""Closed-loop solve runner, started in a fresh interpreter per workload.

    python3 perfbench/worker.py JOB.json RESULT.json

One client in one thread calls `expdeg.cli.main(argv)` with stdout
captured, parses the JSON it printed, and issues the next solve only after
the previous one returned.  The job file lists the instances of one pass;
passes repeat until the time budget is spent.  In trace mode the worker
also runs as many traced passes, a probe slice, a dense-reference slice
and a tracemalloc pass over the heaviest instances and the probe slice
(see README.md).  Results go to RESULT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from expdeg import cli

import calibrate
import tracing

# Mix instances solved under tracemalloc: those with the most states.
PEAK_JOBS = 2


class SolveLog:
    """Per instance: one (seconds, kernel index) pair per pass, failures,
    and the first answer.  Later answers are compared with the first one,
    ignoring `elapsed_ms`.

    The calibration kernel is timed whenever CALIBRATE_EVERY_S have passed
    since its last run, outside any solve; a solve's kernel index points at
    the last kernel time before it, and the next one follows it.
    """

    CALIBRATE_EVERY_S = 1.0

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.records: dict[str, dict] = {}
        self.tracer = tracer
        self.kernel_s: list[float] = []
        self._calibrated_at = 0.0

    def calibrate(self) -> None:
        self.kernel_s.append(calibrate.measure())
        self._calibrated_at = time.perf_counter()

    def solve(self, job: dict) -> None:
        if not self.kernel_s or time.perf_counter() - self._calibrated_at >= self.CALIBRATE_EVERY_S:
            self.calibrate()
        if self.tracer is not None:
            self.tracer.job = job["id"]
        rec = self.records.setdefault(
            job["id"],
            {"attempts": 0, "times": [], "failures": [], "payload": None, "mismatch": False},
        )
        rec["attempts"] += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(job["argv"])
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a crash is a failed solve, not the end of the run
            rec["failures"].append(f"exception {exc!r}")
            return
        rec["times"].append((elapsed, len(self.kernel_s) - 1))
        if code != 0:
            rec["failures"].append(f"exit {code}: {err.getvalue().strip()[:200]}")
            return
        try:
            payload = json.loads(out.getvalue())
        except json.JSONDecodeError as exc:
            rec["failures"].append(f"unparseable output: {exc}")
            return
        payload.pop("elapsed_ms", None)
        if rec["payload"] is None:
            rec["payload"] = payload
        elif payload != rec["payload"]:
            rec["mismatch"] = True


def run_passes(jobs, log: SolveLog, seconds: float, min_passes: int) -> int:
    """Whole passes over `jobs`: at least `min_passes`, then more while
    `seconds` have not elapsed.  Returns the number of passes."""
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        for job in jobs:
            log.solve(job)
        passes += 1
    log.calibrate()
    return passes


def _layers(spans) -> dict:
    out = {}
    for (phase, name), agg in tracing.summarize(spans).items():
        out[f"{phase}|{name}"] = {
            "calls": agg["calls"],
            "busy": agg["busy"],
            "self": agg["self"],
            "info": [item for item in agg["calls_info"] if item[2] is not None],
        }
    return out


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    seconds, min_passes = job["seconds"], job["min_passes"]
    result: dict = {"expdeg_file": cli.__file__}
    if job["mode"] == "plain":
        log = SolveLog()
        result["passes"] = run_passes(job["mix"], log, seconds, min_passes)
        result["solves"] = {"mix": log.records}
        result["kernel_s"] = {"mix": log.kernel_s}
    else:
        plain = SolveLog()
        passes = run_passes(job["mix"], plain, seconds / 2, min_passes)
        tracer = tracing.Tracer()
        traced, probes = SolveLog(tracer), SolveLog(tracer)
        tracer.install()
        try:
            tracer.phase = "mix"
            run_passes(job["mix"], traced, 0, passes)
            for phase in ("slice", "dense"):
                tracer.phase = phase
                for item in job[phase]:
                    probes.solve(item)
        finally:
            tracer.uninstall()
        peak = tracing.PeakTracer()
        peak.install()
        heavy = set(tracing.heaviest_jobs(tracer.spans, "mix", PEAK_JOBS))
        try:
            measured = SolveLog()
            for item in [item for item in job["mix"] if item["id"] in heavy] + job["slice"]:
                measured.solve(item)
        finally:
            peak.uninstall()
        result["passes"] = passes
        result["kernel_s"] = {"mix": plain.kernel_s, "traced": traced.kernel_s}
        result["solves"] = {"mix": plain.records, "traced": traced.records, "probe": probes.records}
        result["layers"] = _layers(tracer.spans)
        result["absent"] = {**tracer.absent, **peak.absent}
        result["peak_bytes"] = peak.peak
    # Linux reports ru_maxrss in KiB.
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
