"""Distance-r dominating set kernelization for sparse graphs.

Library surface: graph storage and bounded-radius queries, distance and
projection profiles with their complexity counters, weak coloring
numbers, quasi-wideness and closure subroutines, exact and approximate
dominator solvers, and the two-phase kernelization pipeline, together
with deterministic generators and a benchmark harness.
"""

from .domset import (
    DominationInstance,
    DominatorResult,
    bg_approx_dominator,
    enumerate_min_dominators,
    exact_min_dominator,
    greedy_dominator,
    greedy_scattered_lower_bound,
    is_dominator,
)
from .generators import FAMILIES, GenSpec, generate, subdivide
from .graphs import (
    INF,
    Graph,
    ParseError,
    SizeCapError,
    SubgraphMap,
    ball,
    bfs_within,
    bounded_bfs,
    dump_edge_list,
    induced_subgraph,
    is_r_independent,
    load_edge_list,
    multi_source_within,
    shortest_path,
)
from .kernel import (
    CoreState,
    CoreVerificationError,
    KernelResult,
    Rejection,
    RemovalStep,
    annotate_to_plain,
    build_kernel_from_core,
    find_core,
    find_redundant_vertex,
    kernelize,
)
from .orderings import Ordering, degeneracy_order, wcol_exact, wcol_of_order, wreach, wreach_all
from .profiles import (
    Profile,
    SetFamily,
    decode_projection_via_layers,
    distance_profile,
    layered_graph,
    mu_hat_r,
    mu_r,
    nu_hat_r,
    nu_r,
    projection,
    projection_profile,
    sauer_shelah_bound,
    target_traces,
    vc_dimension,
)
from .sparsity import (
    ClosureResult,
    QwResult,
    default_closure_threshold,
    quasi_wide_extract,
    r_closure,
    short_paths_closure,
)

__version__ = "0.1.0"
