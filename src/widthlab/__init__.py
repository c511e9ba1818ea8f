"""Width parameters of graphs (matching width, pathwidth), constructive
conversions between vertex orderings and path decompositions, graph-based
CNF generators and desk-scale decision-diagram size experiments."""

from .graph import (
    CutGraph,
    Graph,
    Ordering,
    cut_graph,
    max_bipartite_matching,
    min_vertex_cover_bipartite,
)
from .width import (
    WidthReport,
    matching_width_exact,
    min_vc_containing,
    mw_of_ordering,
    pathwidth_exact,
    settled_vertex_covers,
)
from .decomposition import (
    TreeDecomposition,
    ctree_decomposition,
    ordering_from_path_decomposition,
    path_decomposition_from_ordering,
    validate_decomposition,
)
from .instances import (
    Cnf,
    cnf_of_graph,
    complete_binary_tree,
    ct_graph,
    f_rk,
    primal_graph,
)
from .bprog import (
    BranchingProgram,
    build_obdd,
    check_c_nsobdd,
    enumerate_computational_paths,
    equivalence_vs_cnf,
    evaluate,
    min_obdd_size_over_orders,
)
from .lbound import (
    WitnessCut,
    assignment_family,
    check_distinctness,
    run_lb_experiment,
    separation_vector,
    verify_size_bound,
    witness_cut,
)

__version__ = "0.1.0"
