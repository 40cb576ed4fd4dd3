"""Metric definitions: names, units and how each is computed.

End-to-end metrics come from an untraced closed-loop run; per-layer
metrics from the worker's traced phases (see README.md for definitions).
"""

from __future__ import annotations

import math
import statistics

import calibrate

# Which solver module each workload owns.
MODULE_OF = {
    "tour": "tsp",
    "count-cover": "pm_dp",
    "count-inex": "pm_inex",
    "count-bip": "pm_bipartite",
}

END_TO_END = (
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_s.p50", "s"),
    ("solve_s.p90", "s"),
    ("peak_rss_mb", "MB"),
    ("log2_states_per_n", "ratio"),
)

# JSON key holding the state count, and the share of n it is divided by.
_STATE_KEY = {"tsp": ("states_visited", 1), "dp": ("states_visited", 2),
              "inex": ("subsets_processed", 2), "count-pm-bip": ("stored_states", 1)}


def solve_times(records: dict, kernel_s: list[float]) -> dict[str, float]:
    """Each instance's median over passes of its solve time, scaled to the
    nominal machine speed (see calibrate.py): a solve's time is multiplied
    by NOMINAL_S over the mean of the kernel times just before and after it."""
    out = {}
    for name, rec in records.items():
        times = [t * calibrate.NOMINAL_S * 2 / (kernel_s[k] + kernel_s[k + 1])
                 for t, k in rec["times"]]
        if times:
            out[name] = statistics.median(times)
    return out


def end_to_end(mix, records, kernel_s, verdicts, rss_mb, setup_s, command_of) -> dict:
    times = sorted(solve_times(records, kernel_s).values())
    verified = sum(1 for inst in mix if verdicts[inst.name] is None)
    ratios = []
    for inst in mix:
        payload = records[inst.name]["payload"] or {}
        key, share = _STATE_KEY[command_of(inst)]
        if payload.get(key):
            ratios.append(math.log2(payload[key]) / (inst.size / share))
    return {
        "setup_s": setup_s,
        "solves_per_s": verified / sum(times),
        "solve_s.p50": statistics.median(times),
        "solve_s.p90": statistics.quantiles(times, n=10)[-1],
        "peak_rss_mb": rss_mb,
        "log2_states_per_n": statistics.fmean(ratios),
    }


class Absent(Exception):
    """A metric that the traced run could not measure; the message says why."""


class LayerView:
    """Reads per-layer numbers out of the worker's span summary.

    Functions of the workload's own module are read from its traced mix
    passes and divided by the pass count; every other module's functions
    from the one probe pass; the dense references from the dense slice.
    """

    def __init__(self, workload: str, result: dict, overhead: float):
        self.module = MODULE_OF[workload]
        self.layers = result["layers"]
        self.passes = result["passes"]
        self.absent = result["absent"]
        self.peak = result["peak_bytes"]
        self.overhead = overhead
        self.base_notes: dict[str, str] = {}

    def _phase(self, name: str) -> str:
        module = name.split(".")[0]
        return "mix" if module in ("cli", "graphs", self.module) else "slice"

    def agg(self, name: str, phase: str | None = None) -> tuple[dict, int]:
        if name in self.absent:
            raise Absent(self.absent[name])
        phase = phase or self._phase(name)
        agg = self.layers.get(f"{phase}|{name}")
        if agg is None:
            raise Absent(f"{name} was not called in the {phase} phase")
        return agg, (self.passes if phase == "mix" else 1)

    def calls(self, name):
        agg, div = self.agg(name)
        return agg["calls"] / div

    def busy(self, name, phase=None):
        agg, div = self.agg(name, phase)
        return agg["busy"] / div

    def self_s(self, name):
        agg, div = self.agg(name)
        return agg["self"] / div

    def info(self, name, key, phase=None, distinct=False):
        """(job, seconds, value) per call; one call per instance if distinct."""
        agg, _ = self.agg(name, phase)
        seen, out = set(), []
        for job, seconds, info in agg["info"]:
            if "error" in info:
                raise Absent(info["error"])
            if distinct and job in seen:
                continue
            seen.add(job)
            out.append((job, seconds, info.get(key)))
        return out

    def states(self, name):
        return sum(v for _, _, v in self.info(name, "states", distinct=True) if v is not None)

    def per_pass(self, name, key):
        agg, div = self.agg(name)
        return sum(v for _, _, v in self.info(name, key)) / div

    def rate(self, name, key):
        return sum(v for _, _, v in self.info(name, key)) / self.busy(name)

    def peak_mb(self, name):
        self.agg(name)
        if name not in self.peak:
            raise Absent(f"{name} made no call in the tracemalloc pass")
        return self.peak[name] / 2**20

    def infeasible_busy(self, name):
        agg, div = self.agg(name)
        return sum(s for _, s, feasible in self.info(name, "feasible") if feasible is False) / div

    def stored_over_bound(self, name):
        worst = None
        for job, _, info in self.agg(name)[0]["info"]:
            if info.get("bound"):
                ratio = info["states"] / info["bound"]
                if worst is None or ratio > worst[0]:
                    worst = (ratio, info["states"], info["bound"], job)
        if worst is None:
            raise Absent(f"{name} reported no stored_state_bound")
        self.base_notes["pm_bipartite.stored_over_bound"] = (
            f"{worst[1]} stored / bound {worst[2]} on {worst[3]}"
        )
        return worst[0]

    def dense_over_sparse(self, metric, dense, sparse):
        dense_s, sparse_s = self.busy(dense, "dense"), self.busy(sparse, "dense")
        self.base_notes[metric] = f"{dense} {dense_s:.4f} s / {sparse} {sparse_s:.4f} s"
        return dense_s / sparse_s


def _spec(v: LayerView):
    """(name, unit, thunk) for every per-layer metric, in report order."""
    T, D, I, B = "tsp.", "pm_dp.", "pm_inex.", "pm_bipartite."
    return (
        ("cli.main.calls", "count", lambda: v.calls("cli.main")),
        ("cli.main.self_s", "s", lambda: v.self_s("cli.main")),
        ("cli.main.nonzero_exits", "count",
         lambda: sum(1 for _, _, e in v.info("cli.main", "exit") if e != 0) / v.passes),
        ("graphs.parse_graph.busy_s", "s", lambda: v.busy("graphs.parse_graph")),
        ("graphs.parse_graph.bytes", "B", lambda: v.per_pass("graphs.parse_graph", "bytes")),
        (T + "tsp_cycle.calls", "count", lambda: v.calls(T + "tsp_cycle")),
        (T + "tsp_cycle.busy_s", "s", lambda: v.busy(T + "tsp_cycle")),
        (T + "tsp_cycle.states", "count", lambda: v.states(T + "tsp_cycle")),
        (T + "tsp_cycle.peak_alloc_mb", "MB", lambda: v.peak_mb(T + "tsp_cycle")),
        (T + "tsp_cycle.infeasible_busy_s", "s", lambda: v.infeasible_busy(T + "tsp_cycle")),
        (T + "ham_path.calls", "count", lambda: v.calls(T + "ham_path")),
        (T + "ham_path.busy_s", "s", lambda: v.busy(T + "ham_path")),
        (T + "ham_path.states", "count", lambda: v.states(T + "ham_path")),
        (D + "count_pm_dp.calls", "count", lambda: v.calls(D + "count_pm_dp")),
        (D + "count_pm_dp.busy_s", "s", lambda: v.busy(D + "count_pm_dp")),
        (D + "count_pm_dp.states", "count", lambda: v.states(D + "count_pm_dp")),
        (D + "count_pm_dp.peak_alloc_mb", "MB", lambda: v.peak_mb(D + "count_pm_dp")),
        (D + "build_contracted_graph.busy_s", "s", lambda: v.busy(D + "build_contracted_graph")),
        (D + "run_cover_dp.self_s", "s", lambda: v.self_s(D + "run_cover_dp")),
        (D + "states_per_s", "1/s", lambda: v.rate(D + "count_pm_dp", "states")),
        (I + "count_pm_inex.calls", "count", lambda: v.calls(I + "count_pm_inex")),
        (I + "count_pm_inex.busy_s", "s", lambda: v.busy(I + "count_pm_inex")),
        (I + "build_arc_graph.busy_s", "s", lambda: v.busy(I + "build_arc_graph")),
        (I + "inex_accumulators.self_s", "s", lambda: v.self_s(I + "inex_accumulators")),
        (I + "count_anchored_walks.calls", "count", lambda: v.calls(I + "count_anchored_walks")),
        (I + "count_anchored_walks.self_s", "s", lambda: v.self_s(I + "count_anchored_walks")),
        (I + "count_walk_tuples.calls", "count", lambda: v.calls(I + "count_walk_tuples")),
        (I + "count_walk_tuples.self_s", "s", lambda: v.self_s(I + "count_walk_tuples")),
        (I + "subsets_per_s", "1/s", lambda: v.rate(I + "count_pm_inex", "subsets")),
        (B + "count_pm_bipartite.calls", "count", lambda: v.calls(B + "count_pm_bipartite")),
        (B + "count_pm_bipartite.busy_s", "s", lambda: v.busy(B + "count_pm_bipartite")),
        (B + "count_pm_bipartite.states", "count", lambda: v.states(B + "count_pm_bipartite")),
        (B + "count_pm_bipartite.pruned_calls", "count",
         lambda: sum(p for _, _, p in v.info(B + "count_pm_bipartite", "pruned", distinct=True))),
        (B + "count_pm_bipartite.peak_alloc_mb", "MB", lambda: v.peak_mb(B + "count_pm_bipartite")),
        (B + "reduce_degree_one.busy_s", "s", lambda: v.busy(B + "reduce_degree_one")),
        (B + "plan_trim.busy_s", "s", lambda: v.busy(B + "plan_trim")),
        (B + "stored_over_bound", "ratio", lambda: v.stored_over_bound(B + "count_pm_bipartite")),
        (T + "held_karp_cycle.busy_s", "s", lambda: v.busy(T + "held_karp_cycle", "dense")),
        (T + "dense_over_sparse", "ratio",
         lambda: v.dense_over_sparse(T + "dense_over_sparse", T + "held_karp_cycle", T + "tsp_cycle")),
        (B + "ryser_permanent.busy_s", "s", lambda: v.busy(B + "ryser_permanent", "dense")),
        (B + "dense_over_sparse", "ratio",
         lambda: v.dense_over_sparse(
             B + "dense_over_sparse", B + "ryser_permanent", B + "count_pm_bipartite")),
        ("trace.overhead_frac", "fraction", lambda: v.overhead),
    )


def per_layer_names() -> tuple[tuple[str, str], ...]:
    return tuple((name, unit) for name, unit, _ in _spec(None))


def per_layer(workload: str, result: dict, overhead: float):
    """({name: (value, unit)}, {name: reason absent}, {name: base note})."""
    view = LayerView(workload, result, overhead)
    values, absent = {}, {}
    for name, unit, thunk in _spec(view):
        try:
            values[name] = (thunk(), unit)
        except (Absent, ZeroDivisionError, KeyError, TypeError) as exc:
            absent[name] = str(exc) or type(exc).__name__
    return values, absent, view.base_notes
