"""Command-line front end: JSON reports on stdout, diagnostics on stderr.

Each report is one JSON object on one line: compact output is what lets
`json.dumps` use CPython's C encoder, which it skips for indented output.

Exit codes: 0 success, 2 input errors, 3 capacity/budget/memory refusals.
Counts are always emitted as decimal strings so arbitrary-precision values
survive JSON consumers; rationals are emitted as "p/q" strings.

`SOLVERS` is the single dispatch point: every solver the CLI runs has one
entry there, naming the solver flags it reads, which `_cmd_solve` (for `tsp`,
`count-pm`, `count-pm-bip` and `stats`) and `bench` call, so a bench row
holds what the command prints for the same graph.

Importing this module loads only the graph types and the argument parser;
each command imports the solver module it runs, and `csv`, `fractions` and
the generators, when it runs, so a one-shot process pays for nothing else.

The argument parser is built once per process, on the first `main` call,
and reused by every later call; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections import namedtuple
from importlib import import_module

from .errors import CapacityError, ExpdegError
from .graphs import (
    BipartiteGraph,
    Graph,
    _digit_cap,
    degree_profile,
    parse_graph,
    serialize_graph,
)


def _read_graph(path: str, kind: type) -> Graph | BipartiteGraph:
    """The graph in the file at `path` ("-": stdin), which must be a `kind`."""
    # a file and stdin are read as bytes and decoded alike, whatever the locale
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    g = parse_graph(data.decode("utf-8"))
    if not isinstance(g, kind):
        wanted = "general 'graph'" if kind is Graph else "'bigraph'"
        raise ValueError(f"this command needs a {wanted} input")
    return g


def _emit(payload: dict) -> None:
    try:
        text = json.dumps(payload)
    except ValueError:  # an int past Python's int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise CapacityError(f"the answer has more than {limit} digits to print") from None
    sys.stdout.write(text + "\n")


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational such as 3.55, 7/2 or 1e3.  A value
    that is refused is echoed in one short line: past 40 characters, its
    first 20 and its length."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    import re

    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    # Fraction reads each run of digits with int(), which has the digit limit
    cap = _digit_cap(re.findall(r"\d+", text))
    what = f"rationals must be written with integers{cap}" if cap else "not a rational number"
    raise argparse.ArgumentTypeError(f"{what}: {shown}")


def _tour(result) -> dict:
    if result is None:
        return {"feasible": False}
    return {
        "weight": result.weight,
        "order": list(result.order),
        "states_visited": result.states_visited,
    }


def _weight(weight) -> dict:
    return {"feasible": False} if weight is None else {"weight": weight}


def _dp_count(result) -> dict:
    return {"count": str(result.count), "states_visited": result.states_visited}


def _stats(structure, g, o) -> dict:
    from fractions import Fraction

    from .bitset import bits

    profile = degree_profile(g)
    gap = structure.find_gap_threshold(g, o.alpha)
    d = max(profile.avg, Fraction(1))
    max_deg = max(profile.max_degree, 1)  # the Delta of the size bound
    disjoint = structure.find_disjoint_set(g, d)
    payload = {
        "n": g.n,
        "m": g.m,
        "avg_degree": str(profile.avg),
        "max_degree": profile.max_degree,
        "histogram": {str(k): v for k, v in sorted(profile.histogram.items())},
        "gap": {
            "alpha": str(o.alpha),
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
    return payload


def _bip_count(pm_bipartite, g, o) -> dict:
    result = pm_bipartite.count_pm_bipartite(g, o.alpha)
    return {
        "count": str(result.count),
        "stored_states": result.stored_states,
        "pruned_calls": result.pruned_calls,
        "b0_size": result.b0_size,
    }


# kind: the graph class the solver reads; module: the expdeg module it
# runs; run: (module, graph, options) -> payload without elapsed_ms;
# states: the payload key of the stored-state count; reads: the solver flags it reads
Solver = namedtuple("Solver", "kind module run states reads", defaults=(None, ()))


# Every solver the CLI runs, by name; the commands and bench dispatch here
# and nowhere else.  `_solve` imports an entry's module when the entry runs,
# and the entry looks its solver up in that module at call time, so a
# module attribute rebound after import is the one called.
SOLVERS = {
    "tsp": Solver(Graph, "tsp", lambda tsp, g, o: _tour(tsp.tsp_cycle(g)), "states_visited"),
    "tsp --path": Solver(
        Graph, "tsp", lambda tsp, g, o: _tour(tsp.ham_path(g, *o.path)),
        "states_visited", ("path",),
    ),
    "tsp --baseline held-karp": Solver(
        Graph, "tsp", lambda tsp, g, o: _tour(tsp.held_karp_cycle(g)),
        "states_visited", ("baseline",),
    ),
    "tsp --baseline oracle": Solver(
        Graph, "oracles", lambda oracles, g, o: _weight(oracles.oracle_tsp(g)),
        reads=("baseline",),
    ),
    "count-pm-inex": Solver(
        Graph,
        "pm_inex",
        lambda pm_inex, g, o: {
            "count": str(pm_inex.count_pm_inex(g)),
            "subsets_processed": pm_inex.inex_subsets(g.n),
        },
        "subsets_processed",
    ),
    "count-pm-dp": Solver(
        Graph, "pm_dp", lambda pm_dp, g, o: _dp_count(pm_dp.count_pm_dp(g)), "states_visited"
    ),
    "count-pm-oracle": Solver(
        Graph, "oracles", lambda oracles, g, o: {"count": str(oracles.oracle_count_pm(g))}
    ),
    "count-pm-bip": Solver(
        BipartiteGraph, "pm_bipartite", _bip_count, "stored_states", ("alpha", "swap_sides")
    ),
    "count-pm-bip --baseline": Solver(
        BipartiteGraph, "pm_bipartite",
        lambda pm_bipartite, g, o: {"count": str(pm_bipartite.ryser_permanent(g))},
        reads=("baseline", "swap_sides"),
    ),
    "stats": Solver(Graph, "structure", _stats, reads=("alpha",)),
}
# every flag some entry reads, in first-seen order
SOLVER_FLAGS = tuple(dict.fromkeys(f for s in SOLVERS.values() for f in s.reads))
# count-pm --algo X runs count-pm-X; bench runs the flagless entries that
# store states.
COUNT_PM_ALGOS = [
    name.removeprefix("count-pm-")
    for name, solver in SOLVERS.items()
    if name.startswith("count-pm-") and solver.kind is Graph
]
BENCH_ALGOS = [
    name for name, solver in SOLVERS.items() if " " not in name and solver.states
]


def _solve(name: str, g, options) -> dict:
    """The payload of SOLVERS[name] on g; elapsed_ms times the solve alone."""
    solver = SOLVERS[name]
    module = import_module(f"{__package__}.{solver.module}")
    start = time.perf_counter()
    payload = solver.run(module, g, options)
    payload["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
    return payload


def _check_flags(name: str, options) -> None:
    """Refuse a solver flag given in `options` that SOLVERS[name] does not
    read; given means neither None nor False, by identity, as 0 == False."""
    for flag in SOLVER_FLAGS:
        value = getattr(options, flag, None)
        if value is not None and value is not False and flag not in SOLVERS[name].reads:
            raise ValueError(f"{name} does not read --{flag.replace('_', '-')}")


def _cmd_solve(args) -> None:
    """Every command but gen and bench: run the SOLVERS entry `pick` names."""
    name = args.pick(args)
    _check_flags(name, args)
    g = _read_graph(args.input, SOLVERS[name].kind)
    if getattr(args, "swap_sides", False):
        g = g.transpose()
    _emit(_solve(name, g, args))


def _cmd_gen(args) -> None:
    from . import generate

    g = generate.gen_random_graph(
        args.model, args.seed, n=args.n, m=args.m, d=args.d, k=args.k
    )
    sys.stdout.write(serialize_graph(g))


BENCH_COLUMNS = ["algo", "model", "n", "m", "avg_degree", "seed", "result", "states",
                 "log2_states_ratio", "elapsed_ms"]


def _bench_row(algo: str, model: str, g, n: int, seed: int, options) -> dict:
    """One bench row, keyed by BENCH_COLUMNS: what the command for `algo`
    prints for g, of size n (the side size k in the bipartite model),
    generated from `seed`."""
    from fractions import Fraction

    payload = _solve(algo, g, options)
    states = payload.get(SOLVERS[algo].states, 0)
    # a bipartite degree is per vertex of one side; log2(states) is per tour
    # vertex, or per matching edge: k in a bipartite graph, n/2 in a general one
    bipartite = model == "bipartite"
    avg = Fraction(g.m if bipartite else 2 * g.m, max(n, 1))
    per = n if algo == "tsp" or bipartite else n // 2
    ratio = round(math.log2(states) / max(per, 1), 6) if states else 0.0
    result = str(payload.get("count", payload.get("weight", "")))
    return dict(zip(BENCH_COLUMNS, (
        algo, model, n, g.m, str(avg), seed, result, states, ratio, payload["elapsed_ms"]
    )))


def run_bench(
    algo: str,
    model: str | None,
    sizes: list[int],
    degrees: list[Fraction | int | float],
    seeds: list[int],
    alpha: Fraction | str | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run the grid sizes x degrees x seeds one instance after another in
    this process, and return (rows, per-(n, d) summary).  model None is the
    algo's own: 'bipartite' for count-pm-bip, where a size is the side size
    k, else 'gnm'; gen_random_graph draws 'gnm' and 'regular' (whole
    degrees), and a model outside its table is refused before the grid is
    read.  A float degree is read by its decimal repr (see exact_fraction).
    alpha None is pm_bipartite.DEFAULT_ALPHA."""
    from fractions import Fraction

    from . import generate
    from .counting import exact_fraction

    options = argparse.Namespace(alpha=alpha)
    _check_flags(algo, options)
    bipartite = SOLVERS[algo].kind is BipartiteGraph
    if model is None:
        model = "bipartite" if bipartite else "gnm"
    if model not in generate.MODEL_PARAMS:  # in gen's words, before any row
        raise ValueError(f"unknown model {model!r}")
    if (model == "bipartite") != bipartite:
        raise ValueError(f"--algo {algo} does not run the {model!r} model")
    if any(n < 0 for n in sizes):
        raise ValueError(f"sizes must be nonnegative, got {sizes}")
    # m in exact arithmetic from the decimal d: a float n * d overflows for
    # a huge d and drifts off an exact half; inf and nan raise here
    degrees = [exact_fraction(d) for d in degrees]
    if any(d < 0 for d in degrees):
        shown = ", ".join(map(str, degrees))  # 5/2, not Fraction(5, 2)
        raise ValueError(f"degrees must be nonnegative, got [{shown}]")
    if model == "regular" and any(d != int(d) for d in degrees):
        raise ValueError("the 'regular' model needs whole degrees")
    rows = []
    for n in sizes:
        for d in degrees:
            for seed in seeds:
                if bipartite:
                    g = generate.random_bipartite_min2(n, max(2 * n, round(n * d)), seed)
                else:
                    size = {"d": int(d)} if model == "regular" else {"m": round(n * d / 2)}
                    g = generate.gen_random_graph(model, seed, n=n, **size)
                rows.append(_bench_row(algo, model, g, n, seed, options))
    # --sizes, --degrees and --seeds may come in any order; d sorts as a
    # number, since as strings "10" would sort before "3" and "5/2"
    rows.sort(key=lambda r: (r["n"], Fraction(r["avg_degree"]), r["seed"]))

    groups: dict[tuple[int, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["n"], row["avg_degree"]), []).append(row)
    summary = []
    for (n, d), group in groups.items():  # in row order
        # the mean skips rows that stored no states (a graph without a tour)
        vals = [row["log2_states_ratio"] for row in group if row["states"] > 0]
        mean = round(sum(vals) / len(vals), 6) if vals else 0.0
        summary.append({"n": n, "avg_degree": d, "instances": len(group),
                        "mean_log2_states_ratio": mean})
    return rows, summary


def _cmd_bench(args) -> None:
    rows, summary = run_bench(
        args.algo, args.model, args.sizes, args.degrees, args.seeds, args.alpha
    )
    if args.format == "csv":
        import csv

        writer = csv.DictWriter(
            sys.stdout, fieldnames=BENCH_COLUMNS, lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
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
    # --baseline picks the entry, which then refuses --path
    p_tsp.set_defaults(func=_cmd_solve, pick=lambda a: (
        f"tsp --baseline {a.baseline}" if a.baseline else "tsp --path" if a.path else "tsp"))

    p_pm = sub.add_parser("count-pm", help="count perfect matchings")
    p_pm.add_argument("--input", required=True)
    p_pm.add_argument("--algo", choices=COUNT_PM_ALGOS, default="inex")
    p_pm.set_defaults(func=_cmd_solve, pick=lambda a: f"count-pm-{a.algo}")

    p_bip = sub.add_parser("count-pm-bip", help="count bipartite perfect matchings")
    p_bip.add_argument("--input", required=True)
    p_bip.add_argument("--alpha", type=_rational)
    p_bip.add_argument("--swap-sides", action="store_true")
    p_bip.add_argument("--baseline", action="store_true")
    p_bip.set_defaults(func=_cmd_solve, pick=lambda a: (
        "count-pm-bip --baseline" if a.baseline else "count-pm-bip"))

    p_stats = sub.add_parser("stats", help="degree and structural statistics")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--alpha", type=_rational, default="1")
    p_stats.set_defaults(func=_cmd_solve, pick=lambda a: "stats")

    p_gen = sub.add_parser("gen", help="generate a seeded random graph file")
    p_gen.add_argument("--model", required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="state-count benchmark harness")
    p_bench.add_argument("--algo", choices=BENCH_ALGOS, required=True)
    p_bench.add_argument("--model", choices=["gnm", "regular"],
                         help="default gnm; count-pm-bip runs the bipartite model")
    p_bench.add_argument("--sizes", type=int, nargs="+", required=True)
    p_bench.add_argument("--degrees", type=_rational, nargs="+", required=True)
    p_bench.add_argument("--seeds", type=int, nargs="+", required=True)
    p_bench.add_argument("--alpha", type=_rational)
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
    except CapacityError as exc:
        print(f"expdeg: capacity: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("expdeg: capacity: out of memory", file=sys.stderr)
        return 3
    except (ExpdegError, ValueError, OSError) as exc:
        print(f"expdeg: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
