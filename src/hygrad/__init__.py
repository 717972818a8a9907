"""Hypergradient estimation for bilevel programs.

Implicit-differentiation hypergradients with two enhancement families,
preconditioning and change of variables, together with the machinery to
measure how estimation error decays with inner-problem error.
"""

from .bench import (
    DecayTrace,
    RunConfig,
    SweepRecord,
    build_problem,
    emit_csv,
    fit_loglog_slope,
    read_decay_csv,
    render_svg,
    run_decay,
    run_efficiency_sweep,
)
from .efficiency import (
    ComparisonBounds,
    ComparisonTerms,
    EfficiencyReport,
    ReparamDeviations,
    RootContext,
    compare_bounds,
    efficiency_constant,
    estimator_for_kind,
    estimator_jacobian_fd,
    ift_jacobian_analytic,
    newton_reparam_deviations,
    outer_curvature,
    precond_error_factor_at_root,
    precond_gap,
    precond_jacobian_at_root,
    reparam_gap,
    sensitivity_efficiency_constant,
    sensitivity_jacobian_fd,
    sensitivity_term_jacobian_fd,
    super_efficiency_residual_1d,
)
from .errors import (
    CapabilityError,
    ContractViolation,
    DataError,
    DomainError,
    HygradError,
    InsufficientDataError,
    NumericalFailure,
    ParseError,
    SingularMatrixError,
    UsageError,
)
from .estimators import (
    STRATEGIES,
    Estimator,
    PreconditionerOracle,
    Reparameterization,
    SeparableReparam,
    Strategy,
    anchored_reparam,
    diag_preconditioner,
    diag_scaling_reparam,
    exp_family_reparam_1d,
    identity_reparam,
    make_estimator,
    newton_preconditioner,
    newton_separable_reparam,
    reparam_sensitivity,
    scale_separable_r,
    scaled_preconditioner,
    signed_exp_reparam,
    solution_sensitivity,
)
from .linalg import (
    Factorization,
    factor,
    linear_solve,
    solve_transpose,
    spectral_norm,
    top_singular,
)
from .models import (
    PRNG_NAME,
    Dataset,
    OuterVariant,
    linear_1d,
    load_libsvm,
    logistic_inner_value,
    make_logistic,
    make_ridge,
    parse_libsvm,
    rng_from_seed,
    sample_y,
    scalar_ridge,
    serialize_libsvm,
    softplus,
    stable_sigmoid,
    synthetic_classification_dataset,
    synthetic_regression_dataset,
    synthetic_validation_dataset,
)
from .problems import (
    BilevelProblem,
    CallableInnerOracle,
    CallableOuterOracle,
    FDInnerOracle,
    InnerOracle,
    OuterOracle,
    validate_oracles,
)
from .solvers import (
    Trajectory,
    exact_root,
    fd_hypergradient,
    fd_jac_xstar,
    gradient_descent,
    newton_root,
)

__version__ = "0.1.0"
