"""The public names of ``hygrad`` change only on purpose.

A name that disappears from the package breaks callers, so removing one
(or adding one) means editing the list below in the same change, where a
reviewer sees it.
"""

import types

import hygrad as hg

PUBLIC_NAMES = [
    "BilevelProblem", "CallableInnerOracle", "CallableOuterOracle",
    "CapabilityError", "ComparisonBounds", "ContractViolation",
    "DataError", "Dataset", "DecayTrace", "DomainError",
    "Estimator", "FDInnerOracle", "Factorization", "HygradError",
    "InnerOracle", "InsufficientDataError", "NumericalFailure", "OuterOracle",
    "PRNG_NAME", "ParseError", "PreconditionerOracle",
    "Reparameterization", "RootContext", "RunConfig",
    "STRATEGIES", "SeparableReparam", "SingularMatrixError", "Strategy",
    "SweepRecord", "UsageError", "anchored_reparam",
    "build_problem", "compare_bounds", "diag_preconditioner",
    "diag_scaling_reparam", "efficiency_constant", "emit_csv",
    "estimator_jacobian_fd", "exact_root", "exp_family_reparam_1d", "factor",
    "fd_hypergradient", "fd_jac_xstar", "fit_loglog_slope", "gradient_descent",
    "identity_reparam", "linear_1d", "linear_solve",
    "load_libsvm", "logistic_inner_value", "make_estimator", "make_logistic",
    "make_ridge", "newton_preconditioner",
    "newton_root", "newton_separable_reparam", "outer_curvature",
    "parse_libsvm", "precond_error_factor_at_root", "precond_gap",
    "read_decay_csv", "render_svg", "reparam_gap",
    "reparam_sensitivity", "rng_from_seed", "root_jacobian", "run_decay",
    "run_efficiency_sweep", "sample_y", "scalar_ridge", "scale_separable_r",
    "scaled_preconditioner", "sensitivity_efficiency_constant",
    "sensitivity_jacobian", "sensitivity_jacobian_fd",
    "serialize_libsvm", "signed_exp_reparam", "softplus",
    "solution_sensitivity", "solve_transpose", "spectral_norm",
    "stable_sigmoid", "super_efficiency_residual_1d",
    "synthetic_classification_dataset", "synthetic_regression_dataset",
    "synthetic_validation_dataset", "top_singular", "validate_oracles",
]


def test_public_names_match_the_snapshot():
    names = sorted(name for name, value in vars(hg).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)
