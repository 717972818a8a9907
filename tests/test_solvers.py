"""Gradient descent, Newton root-finding, and the FD ground-truth oracles."""

from dataclasses import replace

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import CapabilityError, NumericalFailure, UsageError

from conftest import seeded_y, shift_problem


class TestGradientDescent:
    def test_linear1d_single_step(self, linear1d_fixture):
        iterates = hg.gradient_descent(linear1d_fixture, np.zeros(1), np.zeros(1),
                                       steps=1, step_size=0.5)
        assert iterates[1][0] == pytest.approx(0.5, abs=0)

    def test_zero_steps(self, scalar_fixture):
        iterates = hg.gradient_descent(scalar_fixture, np.zeros(1),
                                       np.array([0.3]), steps=0)
        assert len(iterates) == 1
        assert iterates[0][0] == 0.3

    def test_scalar_ridge_contracts_monotonically(self, scalar_fixture):
        y = np.zeros(1)
        iterates = hg.gradient_descent(scalar_fixture, y, np.array([-2.0]),
                                       steps=25, step_size=0.25)
        errors = [abs(x[0] - 0.5) for x in iterates]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-3

    def test_frozen_step_contracts_on_ridge(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 2)
        x0 = np.ones(ridge_quadratic.d_x)
        xstar = ridge_quadratic.exact_root(y)
        iterates = hg.gradient_descent(ridge_quadratic, y, x0, steps=40)
        start = np.linalg.norm(x0 - xstar)
        for x in iterates:
            assert np.linalg.norm(x - xstar) <= start + 1e-12

    def test_divergence_reports_step(self, scalar_fixture):
        with pytest.raises(NumericalFailure) as exc:
            hg.gradient_descent(scalar_fixture, np.zeros(1), np.array([1.0]),
                                steps=50, step_size=1e160)
        assert exc.value.step is not None

    def test_zero_jacobian_has_no_step_size(self):
        problem = shift_problem(2)
        flat = replace(problem, inner=replace(problem.inner,
                                              jac_x=lambda x, y: np.zeros((2, 2))))
        with pytest.raises(NumericalFailure, match="zero Jacobian"):
            hg.gradient_descent(flat, np.zeros(2), np.ones(2), steps=3)

    def test_negative_steps_rejected(self, scalar_fixture):
        with pytest.raises(UsageError):
            hg.gradient_descent(scalar_fixture, np.zeros(1), np.zeros(1), steps=-1)

    @pytest.mark.parametrize("step_size", [-1.0, 0.0, np.nan, np.inf])
    def test_step_size_must_be_positive_and_finite(self, scalar_fixture, step_size):
        # A negative step would run ascent, and NaN would fail only at step 1.
        with pytest.raises(UsageError, match="step size must be positive and finite"):
            hg.gradient_descent(scalar_fixture, np.zeros(1), np.zeros(1), steps=3,
                                step_size=step_size)


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
        # Over 20000 rows the rounding floor of F (2e-13 to 1e-12) straddles
        # ROOT_TOL (1 + |x|), about 4e-13. With the column-major features the
        # root at y seed 855 reaches tolerance, while at y seed 14 F stays
        # above it and Newton stops on a step below 4 eps (1 + |x|).
        train = hg.synthetic_classification_dataset(20000, 5, seed=1711)
        val = hg.synthetic_classification_dataset(20000, 5, seed=1712)
        problem = hg.make_logistic(train, val, "quadratic")
        for y_seed in (855, 14):
            y = hg.sample_y(5, 3, 6, y_seed)
            root = hg.exact_root(problem, y)
            resid = np.linalg.norm(problem.residual(root, y))
            assert resid <= 1e-11 * (1.0 + np.linalg.norm(root)), y_seed

    def test_step_below_rounding_floor_stops_before_line_search(self):
        # F has a rounding floor of 5e-13 to 9e-13 that depends on the bits
        # of x, above ROOT_TOL (1 + |x|) = 2e-13 at the root x = 1, while
        # J = 1e5 I makes the Newton step there below 1e-17, far below
        # 4 eps (1 + |x|). Every trial along that step rounds back to x, so a
        # line search would spend all its 40 trials there.
        points = []

        def residual_fn(x):
            points.append(x[0])
            floor = 5e-13 * (1.0 + (x.view(np.uint64) % np.uint64(7)) / 8.0)
            return 1e5 * (x - 1.0) + floor

        root = hg.newton_root(residual_fn, lambda x: 1e5 * np.eye(1), np.zeros(1))
        # F at x0, then at the accepted full step, and no trial after it.
        assert points == [0.0, 1.0] and root[0] == 1.0
        assert np.linalg.norm(residual_fn(root)) > 1e-13 * (1.0 + np.linalg.norm(root))

    def test_stall_on_a_long_step_raises(self):
        # A Jacobian of the wrong sign points every step uphill.
        with pytest.raises(NumericalFailure,
                           match=r"stalled at iteration 1: \|F\| = 1\.000e\+00 "
                                 r"against tolerance 1\.000e-13") as exc:
            hg.newton_root(lambda x: x - 1.0, lambda x: -np.eye(1), np.zeros(1))
        assert exc.value.step == 1

    def test_iteration_cap_raises(self):
        # J = 1e3 I shrinks each accepted step of F(x) = x to x / 1000.
        with pytest.raises(NumericalFailure,
                           match=r"did not reach tolerance in 100 iterations: "
                                 r"\|F\| = 9\.048e-01 against tolerance 1\.905e-13"
                           ) as exc:
            hg.newton_root(lambda x: x, lambda x: 1e3 * np.eye(1), np.ones(1))
        assert exc.value.step == hg.solvers.NEWTON_MAX_ITER == 100

    def test_residual_once_per_point(self, logistic_quadratic):
        # F at x0, then at each line-search trial; an accepted trial's value
        # is carried into the next iteration, never computed again.
        y = seeded_y(logistic_quadratic, 4, low=3.0, high=6.0)
        seen, jac_points = [], []

        def residual_fn(x):
            seen.append(x.tobytes())
            return logistic_quadratic.inner.residual(x, y)

        def jac_fn(x):
            jac_points.append(x.tobytes())
            return logistic_quadratic.inner.jac_x(x, y)
        x0 = np.zeros(logistic_quadratic.d_x)
        root = hg.newton_root(residual_fn, jac_fn, x0)
        trials = set(seen) - {x0.tobytes()}      # each trial is a new point
        assert seen[0] == x0.tobytes() and len(seen) == 1 + len(trials)
        assert len(trials) >= len(jac_points) >= 2
        assert set(jac_points) <= set(seen) and root.tobytes() in seen


class TestFDHypergradient:
    def test_scalar_ridge_value(self, scalar_fixture):
        got = hg.fd_hypergradient(scalar_fixture, np.zeros(1), eps=1e-6)
        assert got[0] == pytest.approx(-0.125, abs=1e-9)

    def test_linear1d_value(self, linear1d_fixture):
        got = hg.fd_hypergradient(linear1d_fixture, np.zeros(1), eps=1e-6)
        assert got[0] == pytest.approx(-1.0, abs=1e-9)

    def test_affine_outer_matches_chain_rule(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
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
        adapter = hg.FDInnerOracle(residual_fn=lambda x, y: x - y)
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
