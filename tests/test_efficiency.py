"""Efficiency constants, closed-form Jacobians, and comparison bounds."""

from dataclasses import replace

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import UsageError
from hygrad.estimators import resolve_strategy
from hygrad.problems import CallableInnerOracle, CallableOuterOracle

from conftest import assert_same_bits, comparison_terms, seeded_y, shift_problem


def _diagonal_ridge():
    """Ridge whose data Gram matrix is diagonal, so diag(F_1) = F_1."""
    train = hg.Dataset(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 2.0]))
    return hg.make_ridge(train, train, "quadratic")


def _nonsymmetric_problem():
    """F = (A + diag(e^y) + y_0 N) x + b x_0 x_1 e_0 - c with nonsymmetric A
    and N, so neither F_1, dF_1/dx_j nor dF_1/dy_0 is symmetric: the last
    tells (dF_1/dy_e)' u from (dF_1/dy_e) u."""
    a, b = np.array([[2.0, 0.6], [-0.4, 1.5]]), 0.3
    n = np.array([[0.0, 0.5], [-0.2, 0.1]])
    c, t = np.array([1.0, -0.5]), np.array([0.3, 0.7])

    def residual(x, y):
        return (a + np.diag(np.exp(y)) + y[0] * n) @ x \
            + np.array([b * x[0] * x[1], 0.0]) - c

    def jac_x(x, y):
        return a + np.diag(np.exp(y)) + y[0] * n \
            + np.array([[b * x[1], b * x[0]], [0.0, 0.0]])

    def jac_y(x, y):
        f2 = np.diag(np.exp(y) * x)
        f2[:, 0] += n @ x
        return f2

    inner = CallableInnerOracle(
        residual=residual,
        jac_x=jac_x,
        jac_y=jac_y,
        djac_x_dir_x=lambda x, y, u: np.array([[b * u[1], b * u[0]], [0.0, 0.0]]),
        djac_x_dir_y=lambda x, y, e: np.diag(np.exp(y) * e) + e[0] * n,
        exact_root=lambda y: hg.newton_root(lambda x: residual(x, y),
                                            lambda x: jac_x(x, y), np.zeros(2)),
    )
    outer = CallableOuterOracle(
        value=lambda x, y: 0.5 * float(np.sum((x - t) ** 2)),
        grad_x=lambda x, y: x - t,
        grad_y=lambda x, y: np.zeros(2),
        hess_xx=lambda x, y: np.eye(2),
        jac_gradY_x=lambda x, y: np.zeros((2, 2)),
        jac_gradX_y=lambda x, y: np.zeros((2, 2)),
    )
    return hg.BilevelProblem(inner=inner, outer=outer, d_x=2, d_y=2, name="nonsym")


def _sinh_reparam(a):
    """x = e^{y_0} A sinh(z) for a fixed invertible A, a map with phi_2,
    phi_11 and phi_21 all nonzero at the root; no shipped kind has both
    phi_2 and phi_11 there. With a nonsymmetric A, phi_1 = e^{y_0} A
    diag(cosh z) is nonsymmetric, which tells phi_1^{-1} from phi_1^{-T}:
    every shipped phi_1 is diagonal at the root. Like every map, it takes
    one direction w or a stack of them, one per row."""
    def derivatives(z, y, w):
        scale, wa = np.exp(y[0]), w @ a
        p2 = np.zeros((z.shape[0], y.shape[0]))
        czy = np.zeros(w.shape[:-1] + (z.shape[0], y.shape[0]))
        p2[:, 0] = scale * (a @ np.sinh(z))
        czy[..., 0] = wa * scale * np.cosh(z)
        czz = (wa * scale * np.sinh(z))[..., None] * np.eye(z.shape[0])
        return (scale * a * np.cosh(z), p2, czz, czy)

    return hg.Reparameterization(
        forward=lambda z, y: np.exp(y[0]) * (a @ np.sinh(z)),
        inverse=lambda x, y: np.arcsinh(np.linalg.solve(a, x) / np.exp(y[0])),
        derivatives=derivatives)


def _nonsymmetric_mix(d):
    """A fixed, nonsymmetric, well-conditioned d x d matrix for _sinh_reparam."""
    return 1.5 * np.eye(d) + np.triu(np.full((d, d), 0.4), 1) \
        - np.tril(np.full((d, d), 0.3), -1)


def _sensitivity_term_fd(ctx, kind):
    """FD Jacobian at the root of x -> S(x, y) g_1(x*, y), the outer factor
    frozen: the FD Jacobian of S contracted with g_1."""
    g1 = ctx.problem.outer.grad_x(ctx.xstar, ctx.y)
    return np.einsum("ekj,k->ej", hg.sensitivity_jacobian_fd(ctx, kind), g1)


class TestEstimatorJacobianFD:
    def test_vanilla_linear1d(self, linear1d_fixture):
        jac = hg.estimator_jacobian_fd(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), "vanilla")
        assert jac[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_newton_linear1d_super_efficient(self, linear1d_fixture):
        jac = hg.estimator_jacobian_fd(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), "newton")
        assert abs(jac[0, 0]) <= 1e-9

    def test_matches_analytic_on_scalar_ridge(self, scalar_fixture):
        ctx = hg.RootContext.solve(scalar_fixture, np.zeros(1))
        jac = hg.estimator_jacobian_fd(ctx, "vanilla")
        analytic = hg.root_jacobian(ctx, "vanilla")
        assert jac[0, 0] == pytest.approx(analytic[0, 0], rel=1e-5)

    def test_failure_names_probe(self, linear1d_fixture):
        def boom(*args):
            raise hg.NumericalFailure("inner failure")
        bad = hg.PreconditionerOracle(solve=boom, matrix=boom)
        with pytest.raises(hg.NumericalFailure, match="'precond' failed at probe"):
            hg.estimator_jacobian_fd(
                hg.RootContext.solve(linear1d_fixture, np.zeros(1)), bad)


class TestEfficiencyConstant:
    def test_linear1d_vanilla_is_one(self, linear1d_fixture):
        ctx = hg.RootContext.solve(linear1d_fixture, np.zeros(1))
        c_y = hg.efficiency_constant(ctx, "vanilla")
        assert c_y == pytest.approx(1.0, abs=1e-9)
        assert c_y == pytest.approx(
            hg.spectral_norm(hg.root_jacobian(ctx, "vanilla")), abs=1e-12)

    def test_exp_family_super_efficient_on_linear1d(self, linear1d_fixture):
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        c_y = hg.efficiency_constant(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), phi)
        assert c_y <= 1e-8

    def test_newton_family_affine_outer_tiny(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
        y = seeded_y(problem, 14)
        ctx = hg.RootContext.solve(problem, y)
        c_vanilla = hg.efficiency_constant(ctx, "vanilla")
        c_opt = hg.efficiency_constant(ctx, "opt")
        assert c_opt <= 1e-6 * c_vanilla


class TestAnalyticJacobian:
    def test_matches_fd_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 23)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        analytic = hg.root_jacobian(ctx, "vanilla")
        fd = hg.estimator_jacobian_fd(ctx, "vanilla")
        assert hg.spectral_norm(analytic - fd) <= 1e-5 * hg.spectral_norm(analytic)

    def test_super_efficient_case_is_zero(self):
        problem = shift_problem(2)
        jac = hg.root_jacobian(
            hg.RootContext.solve(problem, np.array([0.3, -0.4])), "vanilla")
        assert np.max(np.abs(jac)) == 0.0

    def test_scalar_ridge_value(self, scalar_fixture):
        # closed form: d/dx [-e^y x / (1+e^y) * x] = -x at the root 0.5,
        # so the Jacobian is -0.5 at y = 0
        jac = hg.root_jacobian(
            hg.RootContext.solve(scalar_fixture, np.zeros(1)), "vanilla")
        assert jac[0, 0] == pytest.approx(-0.5, abs=1e-12)


# The Taylor check of root_jacobian against the estimator it describes: along
# a unit v, r1(h) = |e(x* + hv) - e(x*) - h J v| has order 2 in h exactly
# when J is the derivative of e at x*, and order 1 otherwise. Steps are
# these multiples of max(|x*|, 1); the order is the least-squares slope of
# log r1 against log h over all four.
TAYLOR_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)
TAYLOR_ORDER = 1.9
# Where the estimate is affine in x around the root (F is linear in x on
# these problems, and a Newton-like step or map, or a plain estimate with an
# affine outer, follows it exactly), r1 is rounding at every step: at most
# this share of 1 + |e(x*)|. Over seeds 0-19 the largest such r1 was 4.9e-14
# of it, and the smallest second-order r1 at the largest step 1.4e-7.
TAYLOR_FLOOR = 1e-12
ROUNDING_KINDS = {
    "logistic_quadratic": (),
    "ridge_quadratic": ("newton", "opt"),
    "scalar_fixture": ("newton", "diag", "diag-rep", "opt"),
    "linear1d_fixture": ("vanilla", "newton", "diag", "diag-rep", "opt"),
}


def _taylor_remainders(ctx, kind, v):
    """(steps, r1 at each step, |e(x*)|) for root_jacobian(ctx, kind) along v."""
    estimate = hg.make_estimator(ctx.problem, kind)
    jac = hg.root_jacobian(ctx, kind)
    at_root = estimate(ctx.xstar, ctx.y)
    steps = max(float(np.linalg.norm(ctx.xstar)), 1.0) * np.array(TAYLOR_STEPS)
    r1 = np.array([np.linalg.norm(estimate(ctx.xstar + h * v, ctx.y) - at_root
                                  - h * (jac @ v)) for h in steps])
    return steps, r1, float(np.linalg.norm(at_root))


@pytest.mark.parametrize("fixture", sorted(ROUNDING_KINDS))
def test_root_jacobian_is_the_estimators_derivative(fixture, request):
    problem = request.getfixturevalue(fixture)
    low, high = (3.0, 6.0) if fixture == "logistic_quadratic" else (-1.0, 1.0)
    for seed in range(3):
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 600 + seed, low, high))
        v = hg.rng_from_seed(700 + seed).normal(size=problem.d_x)
        v /= np.linalg.norm(v)
        for kind in hg.STRATEGIES:
            steps, r1, size = _taylor_remainders(ctx, kind, v)
            floor = TAYLOR_FLOOR * (1.0 + size)
            if kind in ROUNDING_KINDS[fixture]:
                assert np.all(r1 <= floor), (fixture, seed, kind, r1)
                continue
            assert r1[0] > floor, (fixture, seed, kind, r1)
            order = float(np.polyfit(np.log(steps), np.log(r1), 1)[0])
            assert order >= TAYLOR_ORDER, (fixture, seed, kind, order, r1)


class TestPrecondJacobianAtRoot:
    def test_newton_choice_vanishes(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 3)
        jac = hg.root_jacobian(
            hg.RootContext.solve(ridge_quadratic, y),
            hg.newton_preconditioner(ridge_quadratic))
        assert np.max(np.abs(jac)) <= 1e-10

    def test_scaled_newton_on_linear1d(self, linear1d_fixture):
        precond = hg.scaled_preconditioner(
            hg.newton_preconditioner(linear1d_fixture), 2.0)
        jac = hg.root_jacobian(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), precond)
        assert jac[0, 0] == pytest.approx(-0.5, abs=1e-10)
        assert hg.spectral_norm(jac) == pytest.approx(0.5, abs=1e-10)

    def test_diag_on_diagonal_system_vanishes(self):
        problem = _diagonal_ridge()
        y = np.array([0.1, -0.3])
        jac = hg.root_jacobian(
            hg.RootContext.solve(problem, y), hg.diag_preconditioner(problem))
        assert np.max(np.abs(jac)) <= 1e-12


def _cross_outer_logistic(problem, val):
    """problem's logistic inner with g = 1/2 |A x - b|^2 + y'K x on the
    validation set (A scaled by 1/sqrt(n)), K fixed and nonsymmetric: the
    only outer objective here whose g_21 = K and g_12 = K' are nonzero."""
    a, b = val.features / np.sqrt(val.n), val.labels / np.sqrt(val.n)
    k = _nonsymmetric_mix(problem.d_x)
    outer = CallableOuterOracle(
        value=lambda x, y: 0.5 * float(np.sum((a @ x - b) ** 2)) + float(y @ k @ x),
        grad_x=lambda x, y: a.T @ (a @ x - b) + k.T @ y,
        grad_y=lambda x, y: k @ x,
        hess_xx=lambda x, y: a.T @ a,
        jac_gradY_x=lambda x, y: k,
        jac_gradX_y=lambda x, y: k.T,
    )
    return replace(problem, outer=outer, name="logistic-cross")


# root_jacobian against estimator_jacobian_fd with g_21 != 0: over seeds
# 0-19 at most 2.6e-10 of 1 + max|FD| (newton, seed 13). Only vanilla and
# diag see g_21: newton's Jacobian (D + T) E has E = 0.
CROSS_OUTER_FD_TOL = 1e-8


class TestCrossOuterTerm:
    def test_oracles_match_their_differences(self, logistic_quadratic, cls_val):
        problem = _cross_outer_logistic(logistic_quadratic, cls_val)
        y = seeded_y(problem, 3, 3.0, 6.0)
        x = hg.exact_root(problem, y)
        assert max(hg.validate_oracles(problem, x, y).values()) <= 1e-8

    @pytest.mark.parametrize("kind", ["vanilla", "newton", "diag"])
    def test_root_jacobian_matches_the_fd_jacobian(self, kind, logistic_quadratic,
                                                   cls_val):
        problem = _cross_outer_logistic(logistic_quadratic, cls_val)
        for seed in range(20):
            ctx = hg.RootContext.solve(problem, seeded_y(problem, seed, 3.0, 6.0))
            fd = hg.estimator_jacobian_fd(ctx, kind)
            assert np.max(np.abs(hg.root_jacobian(ctx, kind) - fd)) \
                <= CROSS_OUTER_FD_TOL * (1 + np.max(np.abs(fd))), seed


class TestOuterCurvature:
    def test_affine_outer_is_zero(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
        d = hg.outer_curvature(hg.RootContext.solve(problem, seeded_y(problem, 4)))
        assert np.max(np.abs(d)) == 0.0

    def test_scalar_ridge_value(self, scalar_fixture):
        d = hg.outer_curvature(hg.RootContext.solve(scalar_fixture, np.zeros(1)))
        assert d[0, 0] == pytest.approx(-0.25, abs=1e-12)

    def test_fd_method_agrees(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 5)
        xstar = hg.exact_root(ridge_quadratic, y)
        outer = ridge_quadratic.outer
        analytic = hg.outer_curvature(hg.RootContext.solve(ridge_quadratic, y))
        fd = outer.jac_gradY_x(xstar, y) \
            + hg.fd_jac_xstar(ridge_quadratic, y).T @ outer.hess_xx(xstar, y)
        assert np.max(np.abs(analytic - fd)) <= 1e-5 * (1 + np.max(np.abs(analytic)))

    def test_decomposition_identity(self, ridge_quadratic):
        # full Jacobian = curvature term + sensitivity-term Jacobian, at root
        y = seeded_y(ridge_quadratic, 6)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        full = hg.estimator_jacobian_fd(ctx, "vanilla")
        d = hg.outer_curvature(ctx)
        t = _sensitivity_term_fd(ctx, "vanilla")
        assert hg.spectral_norm(full - (d + t)) <= 1e-5 * (1 + hg.spectral_norm(full))


class TestSensitivityTermJacobian:
    def test_vanilla_linear1d(self, linear1d_fixture):
        t = _sensitivity_term_fd(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), "vanilla")
        assert t[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_exp_family_cancels_on_linear1d(self, linear1d_fixture):
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        t = _sensitivity_term_fd(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), phi)
        assert abs(t[0, 0]) <= 1e-8

    def test_identity_matches_analytic_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 7)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        t_id = _sensitivity_term_fd(ctx, hg.identity_reparam())
        analytic = hg.root_jacobian(ctx, "vanilla") - hg.outer_curvature(ctx)
        assert hg.spectral_norm(t_id - analytic) <= 1e-5 * (
            1 + hg.spectral_norm(analytic))


# The closed-form Jacobian of S against its FD reference, differenced with
# step FD_REFERENCE_STEP * min(1, min_i |x*_i|): exp's S varies like F / x, so
# a fixed step is not small next to a root coordinate near 0. Over seeds 0-19
# of the four fixtures the largest |closed - FD| / (1 + max|FD|) was 4.0e-8
# (exp, logistic seed 17, min|x*_i| = 8.6e-5; 3.9e-8 over seeds 20-59);
# elsewhere it is rounding, below 1e-9.
FD_REFERENCE_STEP = 1e-4
FD_REFERENCE_TOL = 4e-7
# root_jacobian of vanilla and newton, and vanilla's sensitivity_jacobian,
# against their FD references on the nonsymmetric problem: over seeds 0-19
# at most 1.8e-12, 1.6e-12 and 1.2e-12 of 1 + max|FD|. With
# djac_x_y_apply_T swapped for djac_x_y_apply, vanilla's two read 0.23 and 0.27.
NONSYMMETRIC_FD_TOL = 1e-10
# root_jacobian of the caller maps among the reference kinds against
# estimator_jacobian_fd at its default step: over seeds 0-19 of the four
# fixtures at most 1.3e-8 of 1 + max|FD| (the sinh map, ridge seed 3; the
# nonsymmetric one 2.8e-9).
CALLER_MAP_FD_TOL = 1e-7
# The general formula's Jacobian of S for the Newton-like family, zero in
# exact arithmetic, over seeds 0-19 of the five fixtures: at most 2.4e-16 of
# 1 + max|vanilla's| (logistic seed 2); reparam_gap's sigma by that formula
# at most 2.4e-16 of |g_1| (1 + vanilla's sensitivity constant), the same case.
OPT_ROUNDING_TOL = 1e-14


def _reference_kinds(problem):
    kinds = ["vanilla", "exp", "diag-rep", "opt",
             hg.scale_separable_r(hg.newton_separable_reparam(problem), 1.3),
             _sinh_reparam(np.eye(problem.d_x)),
             _sinh_reparam(_nonsymmetric_mix(problem.d_x))]
    if problem.d_x == 1:
        kinds.append(hg.exp_family_reparam_1d(1.0, 1.0))
    return kinds


class TestSensitivityJacobian:
    @pytest.mark.parametrize("fixture", sorted(ROUNDING_KINDS))
    def test_matches_the_fd_reference(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        low, high = (3.0, 6.0) if fixture == "logistic_quadratic" else (-1.0, 1.0)
        for seed in range(20):
            ctx = hg.RootContext.solve(problem, seeded_y(problem, seed, low, high))
            step = FD_REFERENCE_STEP * min(1.0, float(np.min(np.abs(ctx.xstar))))
            for kind in _reference_kinds(problem):
                closed = hg.sensitivity_jacobian(ctx, kind)
                fd = hg.sensitivity_jacobian_fd(ctx, kind, eps=step)
                assert closed.shape == (problem.d_y, problem.d_x, problem.d_x)
                assert np.max(np.abs(closed - fd)) <= FD_REFERENCE_TOL * (
                    1 + np.max(np.abs(fd))), (fixture, seed, kind)

    def test_exp_near_a_zero_root_coordinate(self, logistic_quadratic):
        # min|x*_i| = 6.7e-4 here, where a difference of S at the default
        # step is off by 1.2e-3 relative.
        ctx = hg.RootContext.solve(logistic_quadratic,
                                   seeded_y(logistic_quadratic, 613, 3.0, 6.0))
        fine = hg.outer_curvature(ctx) + np.einsum(
            "ekj,k->ej", hg.sensitivity_jacobian_fd(ctx, "exp", eps=1e-7),
            logistic_quadratic.outer.grad_x(ctx.xstar, ctx.y))
        jac = hg.root_jacobian(ctx, "exp")
        assert hg.spectral_norm(jac - fine) <= 1e-6 * hg.spectral_norm(fine)

    def test_opt_key_is_the_general_formula(self, ridge_quadratic, ridge_affine,
                                            logistic_quadratic, scalar_fixture,
                                            linear1d_fixture):
        # The "opt" shortcut D against D + T_phi of the same family.
        for problem in (ridge_quadratic, ridge_affine, logistic_quadratic,
                        scalar_fixture, linear1d_fixture):
            low, high = (3.0, 6.0) if problem is logistic_quadratic else (-1.0, 1.0)
            for seed in range(20):
                ctx = hg.RootContext.solve(problem, seeded_y(problem, seed, low, high))
                general = hg.root_jacobian(ctx, hg.newton_separable_reparam(problem))
                scale = 1 + hg.spectral_norm(hg.root_jacobian(ctx, "vanilla"))
                assert hg.spectral_norm(general - hg.root_jacobian(ctx, "opt")) \
                    <= 1e-14 * scale, (problem.name, seed)

    def test_opt_key_is_zero(self, ridge_quadratic, ridge_affine, logistic_quadratic,
                             scalar_fixture, linear1d_fixture):
        # The key's zero against the general formula on the same family.
        for problem in (ridge_quadratic, ridge_affine, logistic_quadratic,
                        scalar_fixture, linear1d_fixture):
            low, high = (3.0, 6.0) if problem is logistic_quadratic else (-1.0, 1.0)
            for seed in range(20):
                ctx = hg.RootContext.solve(problem, seeded_y(problem, seed, low, high))
                key = hg.sensitivity_jacobian(ctx, "opt")
                assert key.shape == (problem.d_y, problem.d_x, problem.d_x)
                assert_same_bits(key, np.zeros_like(key))
                general = hg.sensitivity_jacobian(ctx, hg.newton_separable_reparam(problem))
                scale = 1 + np.max(np.abs(hg.sensitivity_jacobian(ctx, "vanilla")))
                assert np.max(np.abs(general)) <= OPT_ROUNDING_TOL * scale, \
                    (problem.name, seed)

    def test_change_of_variables_needs_a_symmetric_f1(self):
        problem = _nonsymmetric_problem()
        ctx = hg.RootContext.solve(problem, np.array([0.2, -0.3]))
        for kind in ("exp", "diag-rep", "opt"):
            for jacobian in (hg.root_jacobian, hg.sensitivity_jacobian):
                with pytest.raises(hg.CapabilityError, match="F_1"):
                    jacobian(ctx, kind)
        for seed in range(20):
            ctx = hg.RootContext.solve(problem, seeded_y(problem, seed))
            assert max(hg.validate_oracles(problem, ctx.xstar, ctx.y).values()) \
                <= 1e-8, seed
            pairs = [(hg.root_jacobian(ctx, kind), hg.estimator_jacobian_fd(ctx, kind))
                     for kind in ("vanilla", "newton")]
            pairs.append((hg.sensitivity_jacobian(ctx, "vanilla"),
                          hg.sensitivity_jacobian_fd(ctx, "vanilla")))
            for i, (closed, fd) in enumerate(pairs):
                assert np.max(np.abs(closed - fd)) \
                    <= NONSYMMETRIC_FD_TOL * (1 + np.max(np.abs(fd))), (seed, i)


@pytest.mark.parametrize("fixture", sorted(ROUNDING_KINDS))
def test_root_jacobian_of_caller_maps_matches_the_fd_jacobian(fixture, request):
    problem = request.getfixturevalue(fixture)
    low, high = (3.0, 6.0) if fixture == "logistic_quadratic" else (-1.0, 1.0)
    kinds = [k for k in _reference_kinds(problem) if not isinstance(k, str)]
    for seed in range(20):
        ctx = hg.RootContext.solve(problem, seeded_y(problem, seed, low, high))
        for kind in kinds:
            fd = hg.estimator_jacobian_fd(ctx, kind)
            assert np.max(np.abs(hg.root_jacobian(ctx, kind) - fd)) \
                <= CALLER_MAP_FD_TOL * (1 + np.max(np.abs(fd))), (fixture, seed, kind)


# root_jacobian, the Jacobian of S g_1 at the one column g_1, against D + the
# g_1 contraction of sensitivity_jacobian, the same formula at the d_x unit
# columns (times E with a P): the term is linear in g, so this checks the
# column batching and the axis layout. Over seeds 0-19 of the four fixtures
# the largest |contracted - full| / (1 + max|full|) was 9.2e-16 (opt,
# logistic seed 8).
CONTRACTION_TOL = 1e-14


@pytest.mark.parametrize("fixture", sorted(ROUNDING_KINDS))
def test_root_jacobian_contracts_the_sensitivity_jacobian(fixture, request):
    problem = request.getfixturevalue(fixture)
    low, high = (3.0, 6.0) if fixture == "logistic_quadratic" else (-1.0, 1.0)
    kinds = [*hg.STRATEGIES,
             *(k for k in _reference_kinds(problem) if not isinstance(k, str))]
    for seed in range(20):
        ctx = hg.RootContext.solve(problem, seeded_y(problem, seed, low, high))
        g1 = problem.outer.grad_x(ctx.xstar, ctx.y)
        for kind in kinds:
            full = hg.outer_curvature(ctx) + np.einsum(
                "ekj,k->ej", hg.sensitivity_jacobian(ctx, kind), g1)
            precond = resolve_strategy(problem, kind).precond
            if precond is not None:
                full = full @ hg.precond_error_factor_at_root(ctx, precond)
            assert np.max(np.abs(hg.root_jacobian(ctx, kind) - full)) \
                <= CONTRACTION_TOL * (1 + np.max(np.abs(full))), (fixture, seed, kind)


def _counting_couplings(problem):
    """problem with every inner djac_x_dir_x call recorded, and the record."""
    calls = []
    djac = problem.inner.djac_x_dir_x

    def counted(x, y, u):
        calls.append(u)
        return djac(x, y, u)

    return replace(problem, inner=replace(problem.inner, djac_x_dir_x=counted)), calls


@pytest.fixture
def no_tensor(monkeypatch):
    """Fail any call that builds the whole Jacobian of S."""
    def refused(ctx, kind):
        raise AssertionError("built the Jacobian of S")
    monkeypatch.setattr(hg.efficiency, "sensitivity_jacobian", refused)


@pytest.fixture
def phi_derivative_calls(monkeypatch):
    """Record every phi.derivatives call of a strategy's change of variables."""
    calls = []
    change_of_variables = hg.Strategy.change_of_variables

    def counted(strategy, x, y):
        phi = change_of_variables(strategy, x, y)
        if phi is None:
            return None

        def derivatives(z, y, w):
            calls.append(w)
            return phi.derivatives(z, y, w)
        return replace(phi, derivatives=derivatives)

    monkeypatch.setattr(hg.Strategy, "change_of_variables", counted)
    return calls


class TestCouplingCallCounts:
    """An efficiency constant contracts g_1 first: one coupling contraction
    per kind, not the d_x slices of the Jacobian of S, which take one each."""

    @pytest.mark.parametrize("kind", ["vanilla", "newton", "diag"])
    def test_one_coupling_call_without_a_phi(self, kind, logistic_quadratic, no_tensor):
        problem, calls = _counting_couplings(logistic_quadratic)
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 5, 3.0, 6.0))
        hg.efficiency_constant(ctx, kind)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["exp", "diag-rep"])
    def test_one_stacked_phi_derivative_call(self, kind, logistic_quadratic,
                                             no_tensor, phi_derivative_calls):
        # The phi prelude contracts every column of F_1 in one call.
        ctx = hg.RootContext.solve(logistic_quadratic,
                                   seeded_y(logistic_quadratic, 5, 3.0, 6.0))
        hg.efficiency_constant(ctx, kind)
        assert len(phi_derivative_calls) == 1
        assert_same_bits(phi_derivative_calls[0],
                         logistic_quadratic.jac_x(ctx.xstar, ctx.y).T)

    def test_ridge_sweep_at_d20(self, monkeypatch):
        train = hg.synthetic_regression_dataset(60, 20, seed=1)
        val = hg.synthetic_validation_dataset(60, 20, seed=2)
        problem, calls = _counting_couplings(hg.make_ridge(train, val, "quadratic"))
        monkeypatch.setattr(hg.bench, "build_problem", lambda config: problem)
        records = hg.run_efficiency_sweep(hg.RunConfig(
            problem="ridge", strategies=hg.STRATEGIES, trials=1, seed=3))
        assert not any(r.error for r in records)
        # One per sweep: the context keeps the g_1 term every kind but opt
        # reads.
        assert len(calls) == 1

    def test_the_tensor_takes_one_per_coordinate(self, logistic_quadratic):
        problem, calls = _counting_couplings(logistic_quadratic)
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 5, 3.0, 6.0))
        hg.sensitivity_jacobian(ctx, "vanilla")
        assert len(calls) == problem.d_x


def test_a_map_without_stacks_is_a_contract_violation(ridge_quadratic):
    # The signed exponential as written for one direction only: on a stack,
    # np.diag returns the diagonal of w e^z, and phi_21 w has no leading m.
    ctx = hg.RootContext.solve(ridge_quadratic, seeded_y(ridge_quadratic, 5))
    signs, d_x = np.sign(ctx.xstar), ridge_quadratic.d_x

    def derivatives(z, y, w):
        e = signs * np.exp(z)
        return (np.diag(e), np.zeros((d_x, y.shape[0])),
                np.diag(w * e), np.zeros((d_x, y.shape[0])))
    phi = hg.Reparameterization(forward=lambda z, y: signs * np.exp(z),
                                inverse=lambda x, y: np.log(x / signs),
                                derivatives=derivatives)
    x = ctx.xstar + 0.01
    assert np.allclose(hg.reparam_sensitivity(ridge_quadratic, phi, x, ctx.y),
                       hg.Strategy(ridge_quadratic, reparam="exp").sensitivity(x, ctx.y),
                       rtol=1e-12, atol=0.0)
    with pytest.raises(hg.ContractViolation,
                       match=rf"derivatives.*expected \({d_x}, {d_x}, {d_x}\)"):
        hg.root_jacobian(ctx, phi)


class TestCompareBounds:
    def test_linear1d_worked_example_tight(self, linear1d_fixture):
        precond = hg.scaled_preconditioner(
            hg.newton_preconditioner(linear1d_fixture), 2.0)
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        bounds = hg.compare_bounds(
            comparison_terms(linear1d_fixture, precond, phi, np.zeros(1)))
        assert bounds.lhs_p_minus_phi == pytest.approx(0.25, abs=1e-8)
        assert bounds.rhs_p_minus_phi == pytest.approx(0.25, abs=1e-8)
        assert abs(np.linalg.norm(bounds.v_p) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(bounds.v_phi) - 1.0) <= 1e-12

    def test_newton_plus_identity_tight(self, linear1d_fixture):
        bounds = hg.compare_bounds(comparison_terms(
            linear1d_fixture, hg.newton_preconditioner(linear1d_fixture),
            hg.identity_reparam(), np.zeros(1)))
        assert bounds.lhs_phi_minus_p == pytest.approx(1.0, abs=1e-8)
        assert bounds.rhs_phi_minus_p == pytest.approx(
            bounds.lhs_phi_minus_p, abs=1e-8)

    def test_holds_on_seeded_ridge_instances(self, ridge_quadratic):
        precond = hg.diag_preconditioner(ridge_quadratic)
        for seed in range(10):
            y = seeded_y(ridge_quadratic, 200 + seed)
            bounds = hg.compare_bounds(
                comparison_terms(ridge_quadratic, precond, "exp", y))
            slack_phi = 1e-6 * (1 + abs(bounds.lhs_phi_minus_p))
            slack_p = 1e-6 * (1 + abs(bounds.lhs_p_minus_phi))
            assert bounds.lhs_phi_minus_p >= bounds.rhs_phi_minus_p - slack_phi
            assert bounds.lhs_p_minus_phi >= bounds.rhs_p_minus_phi - slack_p


class TestComparisonJacobians:
    """Both comparison Jacobians are root_jacobian's, read with the key the
    comparison was given."""

    def test_exp_contracts_g1_first(self, logistic_quadratic, no_tensor):
        problem, calls = _counting_couplings(logistic_quadratic)
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 5, 3.0, 6.0))
        precond = hg.scaled_preconditioner(hg.newton_preconditioner(problem), 1.5)
        terms = hg.ComparisonTerms(ctx, precond, "exp")
        hg.compare_bounds(terms)
        hg.precond_gap(terms)
        # One contraction, which J_P and J_phi read from the context.
        assert len(calls) == 1
        assert_same_bits(terms.jac_phi, hg.root_jacobian(ctx, "exp"))

    def test_diag_rep_trial_runs_one_phi_prelude(self, logistic_quadratic,
                                                 phi_derivative_calls):
        # J_phi and reparam_gap's sigma read one prelude from the context:
        # one phi.derivatives call on the stack F_1', not two.
        ctx = hg.RootContext.solve(logistic_quadratic,
                                   seeded_y(logistic_quadratic, 5, 3.0, 6.0))
        precond = hg.scaled_preconditioner(
            hg.newton_preconditioner(logistic_quadratic), 1.5)
        terms = hg.ComparisonTerms(ctx, precond, "diag-rep")
        hg.compare_bounds(terms)
        hg.precond_gap(terms)
        hg.reparam_gap(terms)
        assert len(phi_derivative_calls) == 1
        assert_same_bits(phi_derivative_calls[0],
                         logistic_quadratic.jac_x(ctx.xstar, ctx.y).T)

    def test_opt_is_the_outer_curvature(self, logistic_quadratic):
        ctx = hg.RootContext.solve(logistic_quadratic,
                                   seeded_y(logistic_quadratic, 5, 3.0, 6.0))
        terms = hg.ComparisonTerms(ctx, hg.diag_preconditioner(logistic_quadratic),
                                   "opt")
        assert_same_bits(terms.jac_phi, hg.outer_curvature(ctx))

    @pytest.mark.parametrize("key", ["diag-rep"])
    def test_reparam_gap_takes_a_key(self, key, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 14)
        precond = hg.diag_preconditioner(ridge_quadratic)
        sigma, lower = hg.reparam_gap(comparison_terms(ridge_quadratic, precond, key, y))
        sep = resolve_strategy(ridge_quadratic, key).reparam
        want_sigma, want_lower = hg.reparam_gap(
            comparison_terms(ridge_quadratic, precond, sep, y))
        assert_same_bits(sigma, want_sigma)
        assert lower == pytest.approx(want_lower, rel=1e-12, abs=1e-12)

    def test_opt_key_sigma_is_zero(self, ridge_quadratic, ridge_affine,
                                   logistic_quadratic, scalar_fixture,
                                   linear1d_fixture):
        # The key's sigma is exactly 0; the family's, by the general formula,
        # is rounding.
        for problem in (ridge_quadratic, ridge_affine, logistic_quadratic,
                        scalar_fixture, linear1d_fixture):
            low, high = (3.0, 6.0) if problem is logistic_quadratic else (-1.0, 1.0)
            precond = hg.diag_preconditioner(problem)
            sep = hg.newton_separable_reparam(problem)
            for seed in range(20):
                y = seeded_y(problem, seed, low, high)
                sigma, _ = hg.reparam_gap(comparison_terms(problem, precond, "opt", y))
                assert_same_bits(sigma, 0.0)
                terms = comparison_terms(problem, precond, sep, y)
                general, _ = hg.reparam_gap(terms)
                g1 = np.linalg.norm(problem.outer.grad_x(terms.ctx.xstar, y))
                assert general <= OPT_ROUNDING_TOL * g1 * (
                    1 + hg.sensitivity_efficiency_constant(terms.ctx, "vanilla")), \
                    (problem.name, seed)

    def test_an_opt_trial_takes_one_coupling_call(self, logistic_quadratic,
                                                  phi_derivative_calls):
        problem, calls = _counting_couplings(logistic_quadratic)
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 5, 3.0, 6.0))
        terms = hg.ComparisonTerms(ctx, hg.diag_preconditioner(problem), "opt")
        hg.compare_bounds(terms)
        hg.precond_gap(terms)
        hg.reparam_gap(terms)
        # J_P's contraction only: the key's Jacobian of S is zero.
        assert len(calls) == 1
        assert phi_derivative_calls == []


def _precond_gap(terms):
    """precond_gap's (delta, lower) and the lhs it bounds, from compare_bounds."""
    return (*hg.precond_gap(terms), hg.compare_bounds(terms).lhs_phi_minus_p)


def _reparam_gap(terms):
    """reparam_gap's (sigma, lower) and the lhs it bounds, from compare_bounds."""
    return (*hg.reparam_gap(terms), hg.compare_bounds(terms).lhs_p_minus_phi)


class TestPrecondGap:
    def test_exact_newton_dominates(self, ridge_quadratic):
        precond = hg.newton_preconditioner(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 9)
        delta, lower, lhs = _precond_gap(
            comparison_terms(ridge_quadratic, precond, "exp", y))
        assert delta <= 1e-10
        assert lhs >= lower - 1e-6 * (1 + abs(lhs))

    def test_slack_vanishes_with_delta(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 33)
        violations = []
        for scale_delta in (1e-3, 1e-4, 1e-5):
            precond = hg.scaled_preconditioner(
                hg.newton_preconditioner(ridge_quadratic), 1.0 + scale_delta)
            delta, lower, lhs = _precond_gap(
                comparison_terms(ridge_quadratic, precond, "exp", y))
            assert delta == pytest.approx(
                scale_delta * hg.spectral_norm(
                    ridge_quadratic.jac_x(hg.exact_root(ridge_quadratic, y), y)),
                rel=1e-6)
            assert lhs >= lower - 1e-2 * lower - 1e-9
            violations.append(max(0.0, lower - lhs))
        assert violations[-1] <= violations[0] + 1e-9

    def test_super_efficient_pair_degenerates(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
        sep = hg.newton_separable_reparam(problem)
        y = seeded_y(problem, 10)
        delta, lower, lhs = _precond_gap(
            comparison_terms(problem, hg.newton_preconditioner(problem), sep, y))
        assert delta <= 1e-10
        assert abs(lower) <= 1e-12
        assert abs(lhs) <= 1e-12


class TestReparamGap:
    def test_newton_family_affine_outer(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
        sep = hg.newton_separable_reparam(problem)
        precond = hg.diag_preconditioner(problem)
        y = seeded_y(problem, 11)
        sigma, lower, lhs = _reparam_gap(comparison_terms(problem, precond, sep, y))
        assert sigma <= 1e-6
        assert lhs >= lower - 1e-6 * (1 + abs(lhs))

    def test_bad_preconditioner_loses(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        bad = hg.scaled_preconditioner(
            hg.newton_preconditioner(ridge_quadratic), 5.0)
        y = seeded_y(ridge_quadratic, 12)
        sigma, lower, lhs = _reparam_gap(
            comparison_terms(ridge_quadratic, bad, sep, y))
        assert lhs > 0.0
        assert lhs >= lower - 1e-6 * (1 + abs(lhs))

    def test_refuses_non_separable_kinds(self, ridge_quadratic):
        # sigma and the lower bound are defined for a localized family only.
        y = seeded_y(ridge_quadratic, 21)
        precond = hg.newton_preconditioner(ridge_quadratic)
        for kind, name in (("exp", "'exp'"),
                           (hg.identity_reparam(), "'Reparameterization'")):
            terms = comparison_terms(ridge_quadratic, precond, kind, y)
            with pytest.raises(UsageError, match=name):
                hg.reparam_gap(terms)


class TestSensitivityEfficiencyConstant:
    def test_constant_sensitivity_is_zero(self):
        problem = shift_problem(2)
        c = hg.sensitivity_efficiency_constant(
            hg.RootContext.solve(problem, np.array([0.2, 0.5])), "vanilla")
        assert c <= 1e-10

    def test_linear1d_is_one(self, linear1d_fixture):
        c = hg.sensitivity_efficiency_constant(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), "vanilla")
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_bound_against_full_constant(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 13)
        xstar = ridge_quadratic.exact_root(y)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        c_full = hg.efficiency_constant(ctx, "vanilla")
        d_norm = hg.spectral_norm(hg.outer_curvature(ctx))
        g1_norm = float(np.linalg.norm(
            ridge_quadratic.outer.grad_x(xstar, y)))
        c_sens = hg.sensitivity_efficiency_constant(ctx, "vanilla")
        assert c_full <= d_norm + g1_norm * c_sens + 1e-6 * (1 + c_full)


class TestAnchoredConstantIdentity:
    def test_localized_equals_frozen_anchor(self, logistic_quadratic):
        # Freezing the anchor at the root must not change the constant.
        sep = hg.diag_scaling_reparam(logistic_quadratic)
        y = seeded_y(logistic_quadratic, 19, low=3.0, high=6.0)
        xstar = logistic_quadratic.exact_root(y)
        ctx = hg.RootContext.solve(logistic_quadratic, y)
        c_localized = hg.efficiency_constant(ctx, sep)
        frozen = hg.anchored_reparam(sep, xstar, y)
        c_frozen = hg.efficiency_constant(ctx, frozen)
        assert abs(c_localized - c_frozen) <= 1e-6 * (1 + abs(c_frozen))


class TestNewtonReparamDeviations:
    def test_newton_family_has_no_deviation(self, ridge_quadratic,
                                            logistic_quadratic):
        for problem, low, high in ((ridge_quadratic, -1.0, 1.0),
                                   (logistic_quadratic, 3.0, 6.0)):
            sep = hg.newton_separable_reparam(problem)
            y = seeded_y(problem, 15, low=low, high=high)
            dev = hg.newton_reparam_deviations(hg.RootContext.solve(problem, y), sep)
            assert (dev.dev_q, dev.dev_q_jac, dev.dev_q_hess, dev.dev_r,
                    dev.dev_r2) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_scaled_r_perturbs_only_r(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 16)
        for eps in (1e-1, 1e-3):
            dev = hg.newton_reparam_deviations(
                hg.RootContext.solve(ridge_quadratic, y),
                hg.scale_separable_r(sep, 1.0 + eps))
            xstar = hg.exact_root(ridge_quadratic, y)
            r_norm = hg.spectral_norm(sep.r(xstar, y))
            assert dev.dev_r == pytest.approx(eps * r_norm, rel=1e-9)
            assert max(dev.dev_q, dev.dev_q_jac, dev.dev_q_hess,
                       dev.dev_r2) <= 1e-12

    def test_right_r2_contraction_alone_is_measured(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)

        def doubled_right(x, y, w, q):
            left, right = sep.r2_contract(x, y, w, q)
            return left, 2.0 * right
        dev = hg.newton_reparam_deviations(
            hg.RootContext.solve(ridge_quadratic, seeded_y(ridge_quadratic, 18)),
            replace(sep, r2_contract=doubled_right))
        assert dev.dev_r2 > 0.0
        assert max(dev.dev_q, dev.dev_q_jac, dev.dev_q_hess, dev.dev_r) <= 1e-12

    def test_constant_scales_linearly(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 17)
        eps_grid = (1e-1, 1e-2, 1e-3, 1e-4)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        cs = [hg.sensitivity_efficiency_constant(
            ctx, hg.scale_separable_r(sep, 1.0 + e)) for e in eps_grid]
        xs = np.log(eps_grid)
        ys = np.log(cs)
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope >= 0.9


class TestScalarResidual:
    def test_exp_map_is_super_efficient(self, linear1d_fixture):
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        r = hg.super_efficiency_residual_1d(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)), phi)
        assert abs(r) <= 1e-12

    def test_identity_leaves_unit_residual(self, linear1d_fixture):
        r = hg.super_efficiency_residual_1d(
            hg.RootContext.solve(linear1d_fixture, np.zeros(1)),
            hg.identity_reparam())
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_two_parameter_family(self, linear1d_fixture):
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                phi = hg.exp_family_reparam_1d(alpha, beta)
                for seed in range(3):
                    y = seeded_y(linear1d_fixture, 70 + seed)
                    r = hg.super_efficiency_residual_1d(
                        hg.RootContext.solve(linear1d_fixture, y), phi)
                    assert abs(r) <= 1e-10, (alpha, beta, seed)

    def test_degenerate_outer_gradient(self):
        inner = hg.linear_1d().inner
        outer = CallableOuterOracle(
            value=lambda x, y: 5.0,
            grad_x=lambda x, y: np.zeros(1),
            grad_y=lambda x, y: np.zeros(1),
            hess_xx=lambda x, y: np.zeros((1, 1)),
            jac_gradY_x=lambda x, y: np.zeros((1, 1)),
            jac_gradX_y=lambda x, y: np.zeros((1, 1)),
        )
        problem = hg.BilevelProblem(inner=inner, outer=outer, d_x=1, d_y=1)
        with pytest.raises(UsageError, match="degenerate"):
            hg.super_efficiency_residual_1d(
                hg.RootContext.solve(problem, np.zeros(1)), hg.identity_reparam())

    def test_needs_one_dimension(self, ridge_quadratic):
        with pytest.raises(UsageError):
            hg.super_efficiency_residual_1d(
                hg.RootContext.solve(ridge_quadratic, np.zeros(7)),
                hg.identity_reparam())
