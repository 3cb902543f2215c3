"""Connected k-center and k-diameter clustering.

Cluster the points of a metric space into at most k clusters, each of
which must induce a connected subgraph of a separate connectivity
graph.  Provides approximation pipelines for general instances, exact
algorithms for line and tree connectivity, brute-force oracles for
verification, and adversarial instance generators.
"""

from .disjoint import (
    DisjointInvariantError,
    make_disjoint,
    pad_to_k,
    partition_bound,
    solve_assignment_given_centers,
    solve_disjoint,
    solve_two_center_disjoint,
)
from .exact import (
    line_center_nondisjoint,
    line_diameter,
    solve_line_center_nondisjoint,
    solve_line_diameter,
    solve_tree_assignment,
    tree_assignment,
    tree_dp_solve,
)
from .greedy import (
    compute_cluster,
    greedy_clustering,
    greedy_with_given_centers,
    solve_nondisjoint,
)
from .instances import (
    GadgetMeta,
    gen_random,
    gen_sat_gadget,
    gen_worstcase_I,
    gen_worstcase_Iprime,
    s_sequence,
)
from .model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    Instance,
    InstanceFormatError,
    SolveReport,
    Verdict,
    binary_search_min_feasible,
    candidate_radii,
    check_triangle_inequality,
    clustering,
    clustering_cost,
    load_instance,
    load_instance_file,
    make_instance,
    to_dot,
    validate_clustering,
)
from .oracle import (
    OracleLimitError,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center,
    exact_nondisjoint_center_with_witness,
    exact_nondisjoint_diameter,
    exact_nondisjoint_diameter_with_witness,
)
from .wsp import (
    WellSeparatedPartition,
    partition_doubling,
    partition_general_metric,
    partition_lp,
    partition_two_centers,
    verify_wsp,
)

__version__ = "0.1.0"
