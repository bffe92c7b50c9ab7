"""Non-atomic congestion games: equilibria, the PoA, and its sensitivity."""

__version__ = "0.1.0"

from .costs import (
    BPR,
    Affine,
    Constant,
    CostFunction,
    MonomialLog,
    PiecewiseLinear,
    Polynomial,
    ScaledCost,
    TangentCost,
    TruncatedCost,
    sup_distance,
)
from .games import (
    Game,
    GameValidationError,
    InfeasibleFlowError,
    PathFlow,
    Structure,
    StructureMismatchError,
    arc_flows,
    games_equivalent,
    path_cost,
    total_cost,
)
from .solvers import (
    ApproximationBoundsReport,
    InvariantError,
    SolveReport,
    UnconvergedError,
    approximation_threshold,
    check_approximation_bounds,
    total_cost_sandwich,
    poa,
    poa_upper_bound,
    potential,
    solve_so,
    solve_we,
)
from .metric import (
    MetricAxiomReport,
    MetricValue,
    Perturbation,
    check_metric_axioms,
    dist,
    naive_max_interval_dist,
    sample_ball,
)
from .transforms import (
    cost_normalize,
    demand_normalize,
    metric_shrinking_trace,
    truncate_extend,
)
from .sensitivity import (
    HoelderCertificate,
    HoelderFit,
    SweepRecord,
    certificate_cost_slice,
    certificate_demand_slice,
    certificate_exponent_one,
    check_game,
    fit_hoelder,
    max_delta_by_radius,
    sweep,
)
from .convergence import (
    DemandSchedule,
    RateFit,
    RatePoint,
    converge_down,
    converge_up,
    fit_rate,
    light_traffic_reduction_gap,
    monomial_log_gap_bound,
    normalized_monomial_gap,
    regular_variation_params,
)
