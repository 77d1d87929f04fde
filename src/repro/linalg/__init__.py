"""Numerical substrate: lasso, covariance estimation, graphical lasso,
triangular factorizations and fill-reducing orderings (no scikit-learn)."""

from .lasso import lasso_coordinate_descent, soft_threshold
from .covariance import (
    correlation_from_covariance,
    empirical_covariance,
    shrunk_covariance,
)
from .glasso import GraphicalLassoResult, graphical_lasso, precision_to_partial_correlation
from .neighborhood import NeighborhoodResult, neighborhood_selection
from .model_selection import (
    DEFAULT_LAMBDA_GRID,
    LambdaSelection,
    constrained_mle,
    ebic_score,
    select_lambda_ebic,
)
from .cholesky import (
    OrderedFactorization,
    factorize_with_order,
    ldl_decompose,
    udu_decompose,
)
from .ordering import (
    ORDERING_METHODS,
    amd_order,
    colamd_order,
    compute_order,
    metis_order,
    minimum_degree_order,
    natural_order,
    nesdis_order,
    rcm_order,
    support_graph,
)

__all__ = [
    "lasso_coordinate_descent",
    "soft_threshold",
    "correlation_from_covariance",
    "empirical_covariance",
    "shrunk_covariance",
    "DEFAULT_LAMBDA_GRID",
    "LambdaSelection",
    "constrained_mle",
    "ebic_score",
    "select_lambda_ebic",
    "NeighborhoodResult",
    "neighborhood_selection",
    "GraphicalLassoResult",
    "graphical_lasso",
    "precision_to_partial_correlation",
    "OrderedFactorization",
    "factorize_with_order",
    "ldl_decompose",
    "udu_decompose",
    "ORDERING_METHODS",
    "amd_order",
    "colamd_order",
    "compute_order",
    "metis_order",
    "minimum_degree_order",
    "natural_order",
    "nesdis_order",
    "rcm_order",
    "support_graph",
]
