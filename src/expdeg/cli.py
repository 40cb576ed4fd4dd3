"""Command-line front end: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 success, 2 input errors, 3 capacity/budget refusals.
Counts are always emitted as decimal strings so arbitrary-precision values
survive JSON consumers; rationals are emitted as "p/q" strings.

The argument parser is built once per process, on the first `main` call,
and reused by every later call; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import generate, oracles, pm_bipartite, pm_dp, pm_inex, structure, tsp
from .bitset import bits
from .errors import CapacityError, ExpdegError, InputFormatError
from .graphs import BipartiteGraph, Graph, degree_profile, parse_graph, serialize_graph


def _read_graph(path: str) -> Graph | BipartiteGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _elapsed_ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000, 3)


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational such as 3.55, 7/2 or 1e3."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _require_general(g) -> Graph:
    if not isinstance(g, Graph):
        raise ValueError("this command needs a general 'graph' input")
    return g


def _require_bipartite(g) -> BipartiteGraph:
    if not isinstance(g, BipartiteGraph):
        raise ValueError("this command needs a 'bigraph' input")
    return g


def _cmd_tsp(args) -> None:
    if args.path is not None and args.baseline is not None:
        # both baselines solve cycles only
        raise ValueError("--path and --baseline cannot be combined")
    g = _require_general(_read_graph(args.input))
    start = time.perf_counter()
    if args.baseline == "oracle":
        weight = oracles.oracle_tsp(g)
        if weight is None:
            _emit({"feasible": False, "elapsed_ms": _elapsed_ms(start)})
        else:
            _emit({"weight": weight, "elapsed_ms": _elapsed_ms(start)})
        return
    if args.path is not None:
        a, b = args.path
        result = tsp.ham_path(g, a, b)
    elif args.baseline == "held-karp":
        result = tsp.held_karp_cycle(g)
    else:
        result = tsp.tsp_cycle(g)
    if result is None:
        _emit({"feasible": False, "elapsed_ms": _elapsed_ms(start)})
    else:
        _emit(
            {
                "weight": result.weight,
                "order": list(result.order),
                "states_visited": result.states_visited,
                "elapsed_ms": _elapsed_ms(start),
            }
        )


def _cmd_count_pm(args) -> None:
    g = _require_general(_read_graph(args.input))
    start = time.perf_counter()
    if args.algo == "inex":
        count = pm_inex.count_pm_inex(g)
        _emit(
            {
                "count": str(count),
                "subsets_processed": 1 << (g.n // 2) if g.n % 2 == 0 else 0,
                "elapsed_ms": _elapsed_ms(start),
            }
        )
    elif args.algo == "dp":
        result = pm_dp.count_pm_dp(g)
        _emit(
            {
                "count": str(result.count),
                "states_visited": result.states_visited,
                "elapsed_ms": _elapsed_ms(start),
            }
        )
    else:
        count = oracles.oracle_count_pm(g)
        _emit({"count": str(count), "elapsed_ms": _elapsed_ms(start)})


def _cmd_count_pm_bip(args) -> None:
    g = _require_bipartite(_read_graph(args.input))
    if args.swap_sides:
        g = g.transpose()
    start = time.perf_counter()
    if args.baseline:
        count = pm_bipartite.ryser_permanent(g)
        _emit({"count": str(count), "elapsed_ms": _elapsed_ms(start)})
        return
    result = pm_bipartite.count_pm_bipartite(g, args.alpha)
    _emit(
        {
            "count": str(result.count),
            "stored_states": result.stored_states,
            "pruned_calls": result.pruned_calls,
            "b0_size": result.b0_size,
            "elapsed_ms": _elapsed_ms(start),
        }
    )


def _cmd_stats(args) -> None:
    g = _require_general(_read_graph(args.input))
    profile = degree_profile(g)
    gap = structure.find_gap_threshold(g, args.alpha)
    d = max(profile.avg, Fraction(1))
    max_deg = max(profile.max_degree, 1)
    disjoint = structure.find_disjoint_set(g, d, max_deg)
    payload = {
        "n": g.n,
        "m": g.m,
        "avg_degree": str(profile.avg),
        "max_degree": profile.max_degree,
        "histogram": {str(k): v for k, v in sorted(profile.histogram.items())},
        "gap": {
            "alpha": str(args.alpha),
            "d_threshold": gap.d_threshold,
            "count_above": gap.count_above,
            "bound": str(gap.bound),
        },
        "disjoint_set": {
            "d": str(d),
            "max_deg": max_deg,
            "vertices": list(bits(disjoint)),
            "size": disjoint.bit_count(),
            "size_bound": math.ceil(Fraction(g.n, 2 + 4 * d * max_deg)),
        },
    }
    if 2 <= g.n <= 14:
        s, t = 0, g.n - 1
        sets = structure.enumerate_deg2_sets(g, s, t)
        payload["deg2_sample"] = {
            "s": s,
            "t": t,
            "count": len(sets),
            "total_subsets": 1 << g.n,
            "ratio": str(Fraction(len(sets), 1 << g.n)),
        }
    _emit(payload)


def _cmd_gen(args) -> None:
    k = args.k if args.k is not None else args.n  # bipartite takes --k or --n
    g = generate.gen_random_graph(
        args.model, args.seed, n=args.n, m=args.m, d=args.d, k=k
    )
    sys.stdout.write(serialize_graph(g))


BENCH_COLUMNS = [
    "algo",
    "model",
    "n",
    "m",
    "avg_degree",
    "seed",
    "result",
    "states",
    "log2_states_ratio",
    "elapsed_ms",
]


def _bench_instance(task: dict) -> dict:
    """Run one bench instance described by plain parameters (kept picklable
    so instances can run in worker processes)."""
    algo = task["algo"]
    seed = task["seed"]
    start = time.perf_counter()
    if algo in ("tsp", "count-pm-dp", "count-pm-inex"):
        if task["model"] == "regular":
            g = generate.random_regular(task["n"], task["d"], seed)
        else:
            g = generate.random_gnm(task["n"], task["m"], seed)
        n, m = g.n, g.m
        if algo == "tsp":
            res = tsp.tsp_cycle(g)
            result = "" if res is None else str(res.weight)
            states = (
                res.states_visited if res is not None else tsp.cycle_dp_states(g)
            )
            denom = n
        elif algo == "count-pm-dp":
            out = pm_dp.count_pm_dp(g)
            result, states = str(out.count), out.states_visited
            denom = max(n // 2, 1)
        else:
            result = str(pm_inex.count_pm_inex(g))
            states = 1 << (n // 2) if n % 2 == 0 else 0
            denom = max(n // 2, 1)
    else:  # count-pm-bip
        g = generate.random_bipartite_min2(task["k"], task["m"], seed)
        n, m = g.k, g.m
        out = pm_bipartite.count_pm_bipartite(g, task["alpha"])
        result, states = str(out.count), out.stored_states
        denom = max(n, 1)
    if n == 0:
        avg = Fraction(0)
    elif algo == "count-pm-bip":
        avg = Fraction(m, n)
    else:
        avg = Fraction(2 * m, n)
    ratio = round(math.log2(states) / denom, 6) if states > 0 else 0.0
    return {
        "algo": algo,
        "model": task["model"],
        "n": n,
        "m": m,
        "avg_degree": str(avg),
        "seed": seed,
        "result": result,
        "states": states,
        "log2_states_ratio": ratio,
        "elapsed_ms": _elapsed_ms(start),
    }


def run_bench(
    algo: str,
    model: str,
    sizes: list[int],
    degrees: list[float],
    seeds: list[int],
    alpha: Fraction | str = "3.55",
) -> tuple[list[dict], list[dict]]:
    """Build the instance grid, run it (optionally in parallel), and return
    (rows, per-(n, d) summary).  Rows are sorted by (n, d, seed) so worker
    scheduling never changes the artifact.  count-pm-bip runs the
    'bipartite' model, the others 'gnm' or 'regular' (whole degrees)."""
    if (model == "bipartite") != (algo == "count-pm-bip"):
        raise ValueError(f"--algo {algo} does not run the {model!r} model")
    if not all(math.isfinite(d) for d in degrees):
        raise ValueError(f"degrees must be finite, got {degrees}")
    if model == "regular" and any(d != int(d) for d in degrees):
        raise ValueError("the 'regular' model needs whole degrees")
    tasks = []
    for n in sizes:
        for d in degrees:
            for seed in seeds:
                task = {"algo": algo, "model": model, "seed": seed, "alpha": alpha}
                if algo == "count-pm-bip":
                    task["k"] = n
                    task["m"] = max(2 * n, round(n * d))
                elif model == "regular":
                    task["n"] = n
                    task["d"] = int(d)
                else:
                    task["n"] = n
                    task["m"] = round(n * d / 2)
                tasks.append(task)

    workers = int(os.environ.get("EXPDEG_THREADS", "1"))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_instance, tasks))
    else:
        rows = [_bench_instance(t) for t in tasks]
    rows.sort(key=lambda r: (r["n"], r["avg_degree"], r["seed"]))

    groups: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        groups.setdefault((row["n"], row["avg_degree"]), []).append(
            row["log2_states_ratio"]
        )
    summary = [
        {
            "n": n,
            "avg_degree": d,
            "instances": len(vals),
            "mean_log2_states_ratio": round(sum(vals) / len(vals), 6),
        }
        for (n, d), vals in sorted(groups.items())
    ]
    return rows, summary


def _cmd_bench(args) -> None:
    model = args.model or ("bipartite" if args.algo == "count-pm-bip" else "gnm")
    rows, summary = run_bench(
        args.algo, model, args.sizes, args.degrees, args.seeds, args.alpha
    )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        _emit({"rows": rows, "summary": summary})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expdeg",
        description="Exact exponential-time graph algorithms with trimmed state spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tsp = sub.add_parser("tsp", help="smallest-weight Hamiltonian cycle or path")
    p_tsp.add_argument("--input", required=True)
    p_tsp.add_argument("--path", nargs=2, type=int, metavar=("A", "B"))
    p_tsp.add_argument(
        "--baseline", nargs="?", const="held-karp", choices=["held-karp", "oracle"]
    )
    p_tsp.set_defaults(func=_cmd_tsp)

    p_pm = sub.add_parser("count-pm", help="count perfect matchings")
    p_pm.add_argument("--input", required=True)
    p_pm.add_argument("--algo", choices=["inex", "dp", "oracle"], default="inex")
    p_pm.set_defaults(func=_cmd_count_pm)

    p_bip = sub.add_parser("count-pm-bip", help="count bipartite perfect matchings")
    p_bip.add_argument("--input", required=True)
    p_bip.add_argument("--alpha", type=_rational, default="3.55")
    p_bip.add_argument("--swap-sides", action="store_true")
    p_bip.add_argument("--baseline", action="store_true")
    p_bip.set_defaults(func=_cmd_count_pm_bip)

    p_stats = sub.add_parser("stats", help="degree and structural statistics")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--alpha", type=_rational, default="1")
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("gen", help="generate a seeded random graph file")
    p_gen.add_argument("--model", required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="state-count benchmark harness")
    p_bench.add_argument(
        "--algo",
        choices=["tsp", "count-pm-dp", "count-pm-inex", "count-pm-bip"],
        required=True,
    )
    p_bench.add_argument("--model", choices=["gnm", "regular", "bipartite"],
                         help="default: bipartite for count-pm-bip, else gnm")
    p_bench.add_argument("--sizes", type=int, nargs="+", required=True)
    p_bench.add_argument("--degrees", type=float, nargs="+", required=True)
    p_bench.add_argument("--seeds", type=int, nargs="+", required=True)
    p_bench.add_argument("--alpha", type=_rational, default="3.55")
    p_bench.add_argument("--format", choices=["json", "csv"], default="json")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except (InputFormatError, ValueError) as exc:
        print(f"expdeg: error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"expdeg: capacity: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"expdeg: error: {exc}", file=sys.stderr)
        return 2
    except ExpdegError as exc:
        print(f"expdeg: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
