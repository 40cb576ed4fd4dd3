"""Exact exponential-time graph algorithms with trimmed state spaces.

Subset-DP Hamiltonian path/cycle solving, three exact perfect-matching
counters (inclusion-exclusion, sparse cycle-cover DP, trimmed bipartite
DP), the structural toolkit behind the trimming, and brute-force oracles
for verification.
"""

from .errors import BudgetExceededError, CapacityError, ExpdegError, InputFormatError
from .generate import (
    gen_random_graph,
    random_bipartite,
    random_bipartite_min2,
    random_gnm,
    random_regular,
)
from .graphs import (
    BipartiteGraph,
    DegreeProfile,
    Graph,
    degree_profile,
    pair_partner,
    parse_graph,
    serialize_graph,
)
from .oracles import (
    OracleBudget,
    oracle_alternating_covers,
    oracle_count_pm,
    oracle_permanent,
    oracle_tsp,
)
from .pm_bipartite import (
    BipCountResult,
    count_pm_bipartite,
    plan_trim,
    reduce_degree_one,
    ryser_permanent,
    stored_state_bound,
)
from .pm_dp import (
    PmDpResult,
    count_pm_dp,
)
from .pm_inex import (
    count_pm_inex,
    inex_accumulators,
)
from .structure import (
    Deg2Witness,
    GapResult,
    deg2_witness,
    deg2_witness_multigraph,
    enumerate_deg2_sets,
    find_disjoint_set,
    find_gap_threshold,
)
from .tsp import (
    TourResult,
    anchor_vertex,
    ham_path,
    held_karp_cycle,
    path_dp_states,
    tsp_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "BipCountResult",
    "BipartiteGraph",
    "BudgetExceededError",
    "CapacityError",
    "Deg2Witness",
    "DegreeProfile",
    "ExpdegError",
    "GapResult",
    "Graph",
    "InputFormatError",
    "OracleBudget",
    "PmDpResult",
    "TourResult",
    "anchor_vertex",
    "count_pm_bipartite",
    "count_pm_dp",
    "count_pm_inex",
    "deg2_witness",
    "deg2_witness_multigraph",
    "degree_profile",
    "enumerate_deg2_sets",
    "find_disjoint_set",
    "find_gap_threshold",
    "gen_random_graph",
    "ham_path",
    "held_karp_cycle",
    "inex_accumulators",
    "oracle_alternating_covers",
    "oracle_count_pm",
    "oracle_permanent",
    "oracle_tsp",
    "pair_partner",
    "parse_graph",
    "path_dp_states",
    "plan_trim",
    "random_bipartite",
    "random_bipartite_min2",
    "random_gnm",
    "random_regular",
    "reduce_degree_one",
    "ryser_permanent",
    "serialize_graph",
    "stored_state_bound",
    "tsp_cycle",
]
