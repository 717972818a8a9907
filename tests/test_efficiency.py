"""Efficiency constants, closed-form Jacobians, and comparison bounds."""

from dataclasses import replace

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import UsageError
from hygrad.problems import CallableInnerOracle, CallableOuterOracle

from conftest import comparison_terms, seeded_y


def _diagonal_ridge():
    """Ridge whose data Gram matrix is diagonal, so diag(F_1) = F_1."""
    train = hg.Dataset(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 2.0]))
    return hg.make_ridge(train, train, hg.OuterVariant.quadratic())


def _shift_affine_problem():
    """F = x - y with y-independent Jacobian and affine outer objective."""
    inner = CallableInnerOracle(
        residual=lambda x, y: x - y,
        jac_x=lambda x, y: np.eye(2),
        jac_y=lambda x, y: -np.eye(2),
        djac_x_dir_x=lambda x, y, u: np.zeros((2, 2)),
        djac_x_dir_y=lambda x, y, e: np.zeros((2, 2)),
        exact_root=lambda y: y.copy(),
    )
    outer = CallableOuterOracle(
        value=lambda x, y: float(np.sum(x)),
        grad_x=lambda x, y: np.ones(2),
        grad_y=lambda x, y: np.zeros(2),
        hess_xx=lambda x, y: np.zeros((2, 2)),
        jac_gradY_x=lambda x, y: np.zeros((2, 2)),
        jac_gradX_y=lambda x, y: np.zeros((2, 2)),
    )
    return hg.BilevelProblem(inner=inner, outer=outer, d_x=2, d_y=2, name="shift")


class TestEstimatorJacobianFD:
    def test_vanilla_linear1d(self, linear1d_fixture):
        jac = hg.estimator_jacobian_fd(
            linear1d_fixture, hg.make_estimator(linear1d_fixture, "vanilla"),
            np.zeros(1))
        assert jac[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_newton_linear1d_super_efficient(self, linear1d_fixture):
        jac = hg.estimator_jacobian_fd(
            linear1d_fixture, hg.make_estimator(linear1d_fixture, "newton"),
            np.zeros(1))
        assert abs(jac[0, 0]) <= 1e-9

    def test_matches_analytic_on_scalar_ridge(self, scalar_fixture):
        jac = hg.estimator_jacobian_fd(
            scalar_fixture, hg.make_estimator(scalar_fixture, "vanilla"),
            np.zeros(1))
        analytic = hg.ift_jacobian_analytic(scalar_fixture, np.zeros(1))
        assert jac[0, 0] == pytest.approx(analytic[0, 0], rel=1e-5)

    def test_failure_names_probe(self, linear1d_fixture):
        bad = hg.Estimator("boom", lambda x, y: (_ for _ in ()).throw(
            hg.NumericalFailure("inner failure")))
        with pytest.raises(hg.NumericalFailure, match="probe"):
            hg.estimator_jacobian_fd(linear1d_fixture, bad, np.zeros(1))


class TestEfficiencyConstant:
    def test_linear1d_vanilla_is_one(self, linear1d_fixture):
        report = hg.efficiency_constant(
            linear1d_fixture, hg.make_estimator(linear1d_fixture, "vanilla"),
            np.zeros(1))
        assert report.c_y == pytest.approx(1.0, abs=1e-9)
        assert report.c_y == pytest.approx(hg.spectral_norm(report.jacobian),
                                           abs=1e-12)

    def test_exp_family_super_efficient_on_linear1d(self, linear1d_fixture):
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        est = hg.estimator_for_kind(linear1d_fixture, phi, "exp-family")
        report = hg.efficiency_constant(linear1d_fixture, est, np.zeros(1))
        assert report.c_y <= 1e-8

    def test_newton_family_affine_outer_tiny(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.affine())
        y = seeded_y(problem, 14)
        c_vanilla = hg.efficiency_constant(
            problem, hg.make_estimator(problem, "vanilla"), y).c_y
        c_opt = hg.efficiency_constant(
            problem, hg.make_estimator(problem, "opt"), y).c_y
        assert c_opt <= 1e-6 * c_vanilla


class TestAnalyticJacobian:
    def test_matches_fd_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 23)
        analytic = hg.ift_jacobian_analytic(ridge_quadratic, y)
        fd = hg.estimator_jacobian_fd(
            ridge_quadratic, hg.make_estimator(ridge_quadratic, "vanilla"), y)
        assert hg.spectral_norm(analytic - fd) <= 1e-5 * hg.spectral_norm(analytic)

    def test_super_efficient_case_is_zero(self):
        problem = _shift_affine_problem()
        jac = hg.ift_jacobian_analytic(problem, np.array([0.3, -0.4]))
        assert np.max(np.abs(jac)) == 0.0

    def test_scalar_ridge_value(self, scalar_fixture):
        # closed form: d/dx [-e^y x / (1+e^y) * x] = -x at the root 0.5,
        # so the Jacobian is -0.5 at y = 0
        jac = hg.ift_jacobian_analytic(scalar_fixture, np.zeros(1))
        assert jac[0, 0] == pytest.approx(-0.5, abs=1e-12)


class TestPrecondJacobianAtRoot:
    def test_newton_choice_vanishes(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 3)
        jac = hg.precond_jacobian_at_root(
            ridge_quadratic, hg.newton_preconditioner(ridge_quadratic), y)
        assert np.max(np.abs(jac)) <= 1e-10

    def test_scaled_newton_on_linear1d(self, linear1d_fixture):
        precond = hg.scaled_preconditioner(
            hg.newton_preconditioner(linear1d_fixture), 2.0)
        jac = hg.precond_jacobian_at_root(linear1d_fixture, precond, np.zeros(1))
        assert jac[0, 0] == pytest.approx(-0.5, abs=1e-10)
        assert hg.spectral_norm(jac) == pytest.approx(0.5, abs=1e-10)

    def test_diag_on_diagonal_system_vanishes(self):
        problem = _diagonal_ridge()
        y = np.array([0.1, -0.3])
        jac = hg.precond_jacobian_at_root(
            problem, hg.diag_preconditioner(problem), y)
        assert np.max(np.abs(jac)) <= 1e-12


class TestOuterCurvature:
    def test_affine_outer_is_zero(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.affine())
        d = hg.outer_curvature(problem, seeded_y(problem, 4))
        assert np.max(np.abs(d)) == 0.0

    def test_scalar_ridge_value(self, scalar_fixture):
        d = hg.outer_curvature(scalar_fixture, np.zeros(1))
        assert d[0, 0] == pytest.approx(-0.25, abs=1e-12)

    def test_fd_method_agrees(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 5)
        xstar = hg.exact_root(ridge_quadratic, y)
        outer = ridge_quadratic.outer
        analytic = hg.outer_curvature(ridge_quadratic, y)
        fd = outer.jac_gradY_x(xstar, y) \
            + hg.fd_jac_xstar(ridge_quadratic, y).T @ outer.hess_xx(xstar, y)
        assert np.max(np.abs(analytic - fd)) <= 1e-5 * (1 + np.max(np.abs(analytic)))

    def test_decomposition_identity(self, ridge_quadratic):
        # full Jacobian = curvature term + sensitivity-term Jacobian, at root
        y = seeded_y(ridge_quadratic, 6)
        full = hg.estimator_jacobian_fd(
            ridge_quadratic, hg.make_estimator(ridge_quadratic, "vanilla"), y)
        d = hg.outer_curvature(ridge_quadratic, y)
        t = hg.sensitivity_term_jacobian_fd(ridge_quadratic, "vanilla", y)
        assert hg.spectral_norm(full - (d + t)) <= 1e-5 * (1 + hg.spectral_norm(full))


class TestSensitivityTermJacobian:
    def test_vanilla_linear1d(self, linear1d_fixture):
        t = hg.sensitivity_term_jacobian_fd(linear1d_fixture, "vanilla",
                                            np.zeros(1))
        assert t[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_exp_family_cancels_on_linear1d(self, linear1d_fixture):
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        t = hg.sensitivity_term_jacobian_fd(linear1d_fixture, phi, np.zeros(1))
        assert abs(t[0, 0]) <= 1e-8

    def test_identity_matches_analytic_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 7)
        t_id = hg.sensitivity_term_jacobian_fd(ridge_quadratic,
                                               hg.identity_reparam(), y)
        analytic = hg.ift_jacobian_analytic(ridge_quadratic, y) \
            - hg.outer_curvature(ridge_quadratic, y)
        assert hg.spectral_norm(t_id - analytic) <= 1e-5 * (
            1 + hg.spectral_norm(analytic))


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


class TestPrecondGap:
    def test_exact_newton_dominates(self, ridge_quadratic):
        precond = hg.newton_preconditioner(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 9)
        delta, lower, lhs = hg.precond_gap(
            comparison_terms(ridge_quadratic, precond, "exp", y))
        assert delta <= 1e-10
        assert lhs >= lower - 1e-6 * (1 + abs(lhs))

    def test_slack_vanishes_with_delta(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 33)
        violations = []
        for scale_delta in (1e-3, 1e-4, 1e-5):
            precond = hg.scaled_preconditioner(
                hg.newton_preconditioner(ridge_quadratic), 1.0 + scale_delta)
            delta, lower, lhs = hg.precond_gap(
                comparison_terms(ridge_quadratic, precond, "exp", y))
            assert delta == pytest.approx(
                scale_delta * hg.spectral_norm(
                    ridge_quadratic.jac_x(hg.exact_root(ridge_quadratic, y), y)),
                rel=1e-6)
            assert lhs >= lower - 1e-2 * lower - 1e-9
            violations.append(max(0.0, lower - lhs))
        assert violations[-1] <= violations[0] + 1e-9

    def test_super_efficient_pair_degenerates(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.affine())
        sep = hg.newton_separable_reparam(problem)
        y = seeded_y(problem, 10)
        delta, lower, lhs = hg.precond_gap(
            comparison_terms(problem, hg.newton_preconditioner(problem), sep, y))
        assert delta <= 1e-10
        assert abs(lower) <= 1e-12
        assert abs(lhs) <= 1e-12


class TestReparamGap:
    def test_newton_family_affine_outer(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.affine())
        sep = hg.newton_separable_reparam(problem)
        precond = hg.diag_preconditioner(problem)
        y = seeded_y(problem, 11)
        sigma, lower, lhs = hg.reparam_gap(comparison_terms(problem, precond, sep, y))
        assert sigma <= 1e-6
        assert lhs >= lower - 1e-6 * (1 + abs(lhs))

    def test_bad_preconditioner_loses(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        bad = hg.scaled_preconditioner(
            hg.newton_preconditioner(ridge_quadratic), 5.0)
        y = seeded_y(ridge_quadratic, 12)
        sigma, lower, lhs = hg.reparam_gap(
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
        problem = _shift_affine_problem()
        c = hg.sensitivity_efficiency_constant(problem, "vanilla",
                                               np.array([0.2, 0.5]))
        assert c <= 1e-10

    def test_linear1d_is_one(self, linear1d_fixture):
        c = hg.sensitivity_efficiency_constant(linear1d_fixture, "vanilla",
                                               np.zeros(1))
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_bound_against_full_constant(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 13)
        xstar = ridge_quadratic.exact_root(y)
        c_full = hg.efficiency_constant(
            ridge_quadratic, hg.make_estimator(ridge_quadratic, "vanilla"), y).c_y
        d_norm = hg.spectral_norm(hg.outer_curvature(ridge_quadratic, y))
        g1_norm = float(np.linalg.norm(
            ridge_quadratic.outer.grad_x(xstar, y)))
        c_sens = hg.sensitivity_efficiency_constant(ridge_quadratic, "vanilla", y)
        assert c_full <= d_norm + g1_norm * c_sens + 1e-6 * (1 + c_full)


class TestAnchoredConstantIdentity:
    def test_localized_equals_frozen_anchor(self, logistic_quadratic):
        # Freezing the anchor at the root must not change the constant.
        sep = hg.diag_scaling_reparam(logistic_quadratic)
        y = seeded_y(logistic_quadratic, 19, low=3.0, high=6.0)
        xstar = logistic_quadratic.exact_root(y)
        c_localized = hg.efficiency_constant(
            logistic_quadratic,
            hg.estimator_for_kind(logistic_quadratic, sep, "localized"), y).c_y
        frozen = hg.anchored_reparam(sep, xstar, y)
        c_frozen = hg.efficiency_constant(
            logistic_quadratic,
            hg.estimator_for_kind(logistic_quadratic, frozen, "frozen"), y).c_y
        assert abs(c_localized - c_frozen) <= 1e-6 * (1 + abs(c_frozen))


class TestNewtonReparamDeviations:
    def test_newton_family_has_no_deviation(self, ridge_quadratic,
                                            logistic_quadratic):
        for problem, low, high in ((ridge_quadratic, -1.0, 1.0),
                                   (logistic_quadratic, 3.0, 6.0)):
            sep = hg.newton_separable_reparam(problem)
            y = seeded_y(problem, 15, low=low, high=high)
            dev = hg.newton_reparam_deviations(problem, sep, y)
            assert (dev.dev_q, dev.dev_q_jac, dev.dev_q_hess, dev.dev_r,
                    dev.dev_r2) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_scaled_r_perturbs_only_r(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 16)
        for eps in (1e-1, 1e-3):
            dev = hg.newton_reparam_deviations(
                ridge_quadratic, hg.scale_separable_r(sep, 1.0 + eps), y)
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
            ridge_quadratic, replace(sep, r2_contract=doubled_right),
            seeded_y(ridge_quadratic, 18))
        assert dev.dev_r2 > 0.0
        assert max(dev.dev_q, dev.dev_q_jac, dev.dev_q_hess, dev.dev_r) <= 1e-12

    def test_constant_scales_linearly(self, ridge_quadratic):
        sep = hg.newton_separable_reparam(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 17)
        eps_grid = (1e-1, 1e-2, 1e-3, 1e-4)
        cs = [hg.sensitivity_efficiency_constant(
            ridge_quadratic, hg.scale_separable_r(sep, 1.0 + e), y)
            for e in eps_grid]
        xs = np.log(eps_grid)
        ys = np.log(cs)
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope >= 0.9


class TestScalarResidual:
    def test_exp_map_is_super_efficient(self, linear1d_fixture):
        phi = hg.exp_family_reparam_1d(1.0, 1.0)
        r = hg.super_efficiency_residual_1d(linear1d_fixture, phi, np.zeros(1))
        assert abs(r) <= 1e-12

    def test_identity_leaves_unit_residual(self, linear1d_fixture):
        r = hg.super_efficiency_residual_1d(linear1d_fixture,
                                            hg.identity_reparam(), np.zeros(1))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_two_parameter_family(self, linear1d_fixture):
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                phi = hg.exp_family_reparam_1d(alpha, beta)
                for seed in range(3):
                    y = seeded_y(linear1d_fixture, 70 + seed)
                    r = hg.super_efficiency_residual_1d(linear1d_fixture, phi, y)
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
            hg.super_efficiency_residual_1d(problem, hg.identity_reparam(),
                                            np.zeros(1))

    def test_needs_one_dimension(self, ridge_quadratic):
        with pytest.raises(UsageError):
            hg.super_efficiency_residual_1d(ridge_quadratic,
                                            hg.identity_reparam(),
                                            np.zeros(7))
