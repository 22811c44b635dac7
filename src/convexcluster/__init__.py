"""Weighted sum-of-l1-norm convex clustering toolkit."""

from .core import (
    IndexSets,
    center_columns,
    check_data,
    difference_operator,
    index_sets,
    pair_from_row_index,
    pair_row_index,
)
from .weights import EdgeSet, gaussian_edges, gaussian_weights
from .solver import (
    HALF,
    PAPER,
    SolverConfig,
    SolverState,
    admm_solve,
    kkt_residual,
    objective,
)
from .extraction import (
    Assignment,
    PathPoint,
    PathResult,
    canonical_labels,
    extract_clusters,
    regularization_path,
)
from .baselines import KMeansResult, hierarchical, kmeanspp_init, lloyd
from .metrics import (
    ExactClusteringResult,
    SeparationStats,
    cluster_geometry,
    exact_clustering_check,
    rand_index,
)
from .theory import (
    BallCheck,
    FeasibilityReport,
    GmmSeparationReport,
    SeparationReport,
    ball_condition,
    c_interval_k,
    c_interval_two,
    candidate_c_values,
    feasibility_report,
    gmm_separation_bound,
    r_lower_bound,
    search_feasible_r,
    separation_check,
)
from .datagen import (
    BallModelSpec,
    GmmSpec,
    embedded_circles,
    gaussian_mixture,
    load_csv,
    paper_gaussians,
    save_csv,
    stochastic_ball,
)

__version__ = "0.1.0"
