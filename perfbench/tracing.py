"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces every module attribute in the `expdeg` package
that binds a traced function (so `expdeg.cli.parse_graph` is wrapped as
well as `expdeg.graphs.parse_graph`) with a wrapper that records a span
(name, phase, instance, start, end, parent) and passes the result through
unchanged.  Spans stay in memory until the run ends.  A traced name that
no longer exists is recorded as absent with the reason, never as a crash.

A separate `PeakTracer` measures, per call of the top-level solvers, the
`tracemalloc` peak above the allocation level at entry; it runs in its
own pass so that the timing spans stay free of tracemalloc's cost, which
slows the solvers by up to 17x.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

# "module.function" names, module relative to the expdeg package.
TRACED = (
    "cli.main",
    "graphs.parse_graph",
    "tsp.tsp_cycle",
    "tsp.ham_path",
    "tsp.held_karp_cycle",
    "pm_dp.count_pm_dp",
    "pm_dp.build_contracted_graph",
    "pm_dp.run_cover_dp",
    "pm_inex.count_pm_inex",
    "pm_inex.build_arc_graph",
    "pm_inex.inex_accumulators",
    "pm_inex.count_anchored_walks",
    "pm_inex.count_walk_tuples",
    "pm_bipartite.count_pm_bipartite",
    "pm_bipartite.reduce_degree_one",
    "pm_bipartite.plan_trim",
    "pm_bipartite.ryser_permanent",
)
PEAK_TRACED = ("tsp.tsp_cycle", "pm_dp.count_pm_dp", "pm_bipartite.count_pm_bipartite")


def _states(result):
    for attr in ("states_visited", "stored_states"):
        value = getattr(result, attr, None)
        if value is not None:
            return value
    return None


def _bip_info(result):
    info = {"states": _states(result), "pruned": getattr(result, "pruned_calls", None)}
    bound_fn = getattr(sys.modules.get("expdeg.pm_bipartite"), "stored_state_bound", None)
    k = getattr(result, "reduced_k", None)
    if bound_fn is not None and k:
        info["bound"] = bound_fn(k, result.reduced_d, result.alpha)
    return info


# What each wrapper reads off a call that returned normally.
_INFO = {
    "cli.main": lambda args, result: {"exit": result},
    "graphs.parse_graph": lambda args, result: {"bytes": len(args[0].encode())},
    "tsp.tsp_cycle": lambda args, result: {"feasible": result is not None, "states": _states(result)},
    "tsp.ham_path": lambda args, result: {"feasible": result is not None, "states": _states(result)},
    "pm_dp.count_pm_dp": lambda args, result: {"states": _states(result)},
    "pm_inex.count_pm_inex": lambda args, result: {"subsets": 1 << (args[0].n // 2)},
    "pm_bipartite.count_pm_bipartite": lambda args, result: _bip_info(result),
}


def _resolve(name: str):
    """(module, function) for a traced name, or (None, reason)."""
    module_name, func_name = name.split(".")
    try:
        module = importlib.import_module(f"expdeg.{module_name}")
    except ImportError as exc:
        return None, f"module expdeg.{module_name} not importable: {exc}"
    func = getattr(module, func_name, None)
    if not callable(func):
        return None, f"expdeg.{module_name} has no function {func_name}"
    return module, func


class _Patcher:
    """Rebinds every expdeg module attribute that refers to a traced
    function, and restores them all on `uninstall`."""

    def __init__(self):
        self.absent: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def install(self, names, make_wrapper) -> None:
        for name in names:
            module, func = _resolve(name)
            if module is None:
                self.absent[name] = func
                continue
            wrapper = make_wrapper(name, func)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "expdeg" or mod_name.startswith("expdeg.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, func))

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._undo):
            setattr(mod, attr, func)
        self._undo.clear()


class Tracer(_Patcher):
    """Records one span per call of a traced function.

    A span is (name, phase, job, start, end, parent index, info); `phase`
    and `job` are set by the caller before each solve.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[tuple | None] = []
        self.phase = ""
        self.job = ""
        self._stack: list[int] = []

    def install(self, names=TRACED) -> None:
        super().install(names, self._wrap)

    def _wrap(self, name, func):
        info_of = _INFO.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.phase, self.job, start, end, parent, None)
            if info_of is not None:
                try:
                    info = info_of(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    info = {"error": f"{name} result not readable: {exc!r}"}
                spans[index] = spans[index][:6] + (info,)
            return result

        traced.__wrapped__ = func
        return traced


class PeakTracer(_Patcher):
    """Largest tracemalloc peak, in bytes, over each function's calls."""

    def __init__(self):
        super().__init__()
        self.peak: dict[str, int] = {}

    def install(self, names=PEAK_TRACED) -> None:
        tracemalloc.start()
        super().install(names, self._wrap)

    def uninstall(self) -> None:
        super().uninstall()
        tracemalloc.stop()

    def _wrap(self, name, func):
        peak = self.peak

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return func(*args, **kwargs)
            finally:
                used = tracemalloc.get_traced_memory()[1] - base
                peak[name] = max(peak.get(name, 0), used)

        measured.__wrapped__ = func
        return measured


def heaviest_jobs(spans, phase: str, count: int) -> list[str]:
    """The `count` jobs whose PEAK_TRACED calls in `phase` reported the
    most states: the calls with the largest tables."""
    states: dict[str, int] = {}
    for name, span_phase, job, _, _, _, info in filter(None, spans):
        if span_phase == phase and name in PEAK_TRACED and info and info.get("states"):
            states[job] = max(states.get(job, 0), info["states"])
    return sorted(states, key=states.get, reverse=True)[:count]


def summarize(spans) -> dict:
    """Per (phase, name): calls, busy and self seconds, and per-job info.

    Self time is a span's duration minus the time its child spans cover.
    Everything runs in one thread, so children never overlap and that
    covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[5] >= 0:
            child_time[span[5]] += span[4] - span[3]
    out: dict[tuple[str, str], dict] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, phase, job, start, end, _, info = span
        agg = out.setdefault((phase, name), {"calls": 0, "busy": 0.0, "self": 0.0, "calls_info": []})
        agg["calls"] += 1
        agg["busy"] += end - start
        agg["self"] += end - start - child_time[index]
        agg["calls_info"].append((job, end - start, info))
    return out
