"""Entropic regularisation of unbalanced optimal transport on finitely
supported measures: original-space and extended-space formulations, their
lifted reformulations, and the balanced grid-measure identity suite."""

__version__ = "0.1.0"

from .costs import (
    CostMatrix,
    hk_cost,
    hk_matrix,
    perspective_H,
    perspective_H_eps,
    sqeuclidean_matrix,
)
from .entropy import divergence
from .measures import (
    DiscreteMeasure,
    GroundMismatchError,
    GroundSet,
    Plan,
    marginal,
    product,
)
from .solver_x import (
    DualPotentials,
    SolveReport,
    SolverConfig,
    check_remark_identities,
    default_nu_x,
    eval_dual_eps,
    eval_homogeneous_eps,
    eval_primal_eps,
    eval_reverse_eps,
    solve_x_eps,
    solve_x_unreg,
)
from .solver_y import (
    AtomCloud,
    AtomPlan,
    InfeasibleProblemError,
    RadialGrid,
    default_grids,
    default_nu_y,
    extended_ot_value,
    solve_y_eps,
    solve_y_unreg,
)
from .lifting import (
    solve_lifted_balanced,
    solve_lifted_balanced_eps,
    solve_second_order_lift,
    solve_x_extended,
    solve_x_extended_refined,
)
from .identities import (
    GridMeasure,
    balanced_sinkhorn,
    entropy_against_lebesgue,
    grid_measure,
    verify_identities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
