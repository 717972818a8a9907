"""Gradient descent, Newton root-finding, and the FD ground-truth oracles."""

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import CapabilityError, NumericalFailure, UsageError

from conftest import seeded_y


class TestGradientDescent:
    def test_linear1d_single_step(self, linear1d_fixture):
        traj = hg.gradient_descent(linear1d_fixture, np.zeros(1), np.zeros(1),
                                   steps=1, step_size=0.5)
        assert traj.iterates[1][0] == pytest.approx(0.5, abs=0)

    def test_zero_steps(self, scalar_fixture):
        traj = hg.gradient_descent(scalar_fixture, np.zeros(1),
                                   np.array([0.3]), steps=0)
        assert len(traj.iterates) == 1
        assert traj.iterates[0][0] == 0.3

    def test_scalar_ridge_contracts_monotonically(self, scalar_fixture):
        y = np.zeros(1)
        traj = hg.gradient_descent(scalar_fixture, y, np.array([-2.0]),
                                   steps=25, step_size=0.25)
        errors = [abs(x[0] - 0.5) for x in traj.iterates]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-3

    def test_frozen_step_contracts_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 2)
        x0 = np.ones(ridge_quadratic.d_x)
        xstar = ridge_quadratic.exact_root(y)
        traj = hg.gradient_descent(ridge_quadratic, y, x0, steps=40)
        start = np.linalg.norm(x0 - xstar)
        for x in traj.iterates:
            assert np.linalg.norm(x - xstar) <= start + 1e-12

    def test_divergence_reports_step(self, scalar_fixture):
        with pytest.raises(NumericalFailure) as exc:
            hg.gradient_descent(scalar_fixture, np.zeros(1), np.array([1.0]),
                                steps=50, step_size=1e160)
        assert exc.value.step is not None

    def test_negative_steps_rejected(self, scalar_fixture):
        with pytest.raises(UsageError):
            hg.gradient_descent(scalar_fixture, np.zeros(1), np.zeros(1), steps=-1)


class TestNewtonRoot:
    def test_logistic_root_tolerance(self, logistic_quadratic):
        y = seeded_y(logistic_quadratic, 4, low=3.0, high=6.0)
        root = logistic_quadratic.exact_root(y)
        resid = np.linalg.norm(logistic_quadratic.residual(root, y))
        assert resid <= 1e-13 * (1.0 + np.linalg.norm(root))

    def test_scalar_equation(self):
        root = hg.newton_root(lambda x: np.array([x[0] ** 3 - 8.0]),
                              lambda x: np.array([[3.0 * x[0] ** 2]]),
                              np.array([1.0]))
        assert root[0] == pytest.approx(2.0, abs=1e-12)

    def test_stall_at_rounding_floor_returns_root(self):
        # Over 20000 rows the rounding floor of F lies just above ROOT_TOL;
        # the line search stalls there on a Newton step below one ulp of x.
        train = hg.synthetic_classification_dataset(20000, 5, seed=1711)
        val = hg.synthetic_classification_dataset(20000, 5, seed=1712)
        problem = hg.make_logistic(train, val, hg.OuterVariant.quadratic())
        y = hg.sample_y(5, 3, 6, 855)
        root = hg.exact_root(problem, y)
        resid = np.linalg.norm(problem.residual(root, y))
        assert resid <= 1e-11 * (1.0 + np.linalg.norm(root))

    def test_stall_on_a_long_step_raises(self):
        # A Jacobian of the wrong sign points every step uphill.
        with pytest.raises(NumericalFailure, match="stalled"):
            hg.newton_root(lambda x: x - 1.0, lambda x: -np.eye(1), np.zeros(1))


class TestFDHypergradient:
    def test_scalar_ridge_value(self, scalar_fixture):
        got = hg.fd_hypergradient(scalar_fixture, np.zeros(1), eps=1e-6)
        assert got[0] == pytest.approx(-0.125, abs=1e-9)

    def test_linear1d_value(self, linear1d_fixture):
        got = hg.fd_hypergradient(linear1d_fixture, np.zeros(1), eps=1e-6)
        assert got[0] == pytest.approx(-1.0, abs=1e-9)

    def test_affine_outer_matches_chain_rule(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.affine())
        y = seeded_y(problem, 6)
        grad = hg.fd_hypergradient(problem, y)
        a = problem.outer.grad_x(np.zeros(problem.d_x), y)
        chained = hg.fd_jac_xstar(problem, y).T @ a
        assert np.linalg.norm(grad - chained) <= 1e-8 * (1 + np.linalg.norm(grad))

    def test_step_robustness(self, scalar_fixture):
        values = [hg.fd_hypergradient(scalar_fixture, np.zeros(1), eps=e)[0]
                  for e in (1e-4, 1e-5, 1e-6)]
        spread = max(values) - min(values)
        assert spread <= 1e-6 * (1 + abs(values[0]))

    def test_step_that_moves_no_coordinate_is_usage_error(self, scalar_fixture):
        # 0.5 + 1e-18 == 0.5, so the quotient would be exactly 0.
        with pytest.raises(UsageError, match=r"1e-18 .* coordinate 0 \(value 0\.5\)"):
            hg.fd_hypergradient(scalar_fixture, [0.5], eps=1e-18)

    def test_requires_exact_root(self):
        adapter = hg.FDInnerOracle(residual_fn=lambda x, y: x - y, d_x=1, d_y=1)
        problem = hg.BilevelProblem(inner=adapter,
                                    outer=hg.scalar_ridge().outer, d_x=1, d_y=1)
        with pytest.raises(CapabilityError):
            hg.fd_hypergradient(problem, np.zeros(1))


class TestFDJacXstar:
    def test_scalar_ridge(self, scalar_fixture):
        got = hg.fd_jac_xstar(scalar_fixture, np.zeros(1), eps=1e-6)
        assert got[0, 0] == pytest.approx(-0.25, abs=1e-9)

    def test_linear1d(self, linear1d_fixture):
        got = hg.fd_jac_xstar(linear1d_fixture, np.zeros(1), eps=1e-6)
        assert got[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_matches_implicit_identity_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 8)
        xstar = ridge_quadratic.exact_root(y)
        fd = hg.fd_jac_xstar(ridge_quadratic, y)
        implicit = -hg.linear_solve(ridge_quadratic.jac_x(xstar, y),
                                    ridge_quadratic.jac_y(xstar, y))
        scale = np.max(np.abs(implicit))
        assert np.max(np.abs(fd - implicit)) <= 1e-6 * (1 + scale)
