"""Exact exponential-time graph algorithms with trimmed state spaces.

Subset-DP Hamiltonian path/cycle solving, three exact perfect-matching
counters (inclusion-exclusion, sparse cycle-cover DP, trimmed bipartite
DP), the structural toolkit behind the trimming, and brute-force oracles
for verification.

Each public name is imported from its module on first access (PEP 562),
so `import expdeg` loads no solver; `from expdeg import tsp_cycle` loads
`expdeg.tsp` and what it imports, and nothing else.
"""

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": ("BudgetExceededError", "CapacityError", "ExpdegError", "InputFormatError"),
    "generate": (
        "gen_random_graph",
        "random_bipartite",
        "random_bipartite_min2",
        "random_gnm",
        "random_regular",
    ),
    "graphs": (
        "BipartiteGraph",
        "DegreeProfile",
        "Graph",
        "degree_profile",
        "pair_partner",
        "parse_graph",
        "serialize_graph",
    ),
    "oracles": ("OracleBudget", "oracle_count_pm", "oracle_tsp"),
    "pm_bipartite": (
        "BipCountResult",
        "count_pm_bipartite",
        "plan_trim",
        "reduce_degree_one",
        "ryser_permanent",
        "stored_state_bound",
    ),
    "pm_dp": ("PmDpResult", "count_pm_dp"),
    "pm_inex": ("count_pm_inex",),
    "structure": (
        "GapResult",
        "deg2_witness",
        "enumerate_deg2_sets",
        "find_disjoint_set",
        "find_gap_threshold",
    ),
    "tsp": ("TourResult", "anchor_vertex", "ham_path", "held_karp_cycle", "tsp_cycle"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    # An unknown name raises AttributeError, which lets `from expdeg import
    # tsp` fall back to importing the submodule.
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
