"""Oracle contracts: finite-difference validation and shape checking."""

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import ContractViolation
from hygrad.problems import CallableInnerOracle, CallableOuterOracle, fd_step

from conftest import seeded_y


def _shift_problem():
    """F(x, y) = x - y with an affine outer objective; all derivatives exact."""
    d = 3
    inner = CallableInnerOracle(
        residual=lambda x, y: x - y,
        jac_x=lambda x, y: np.eye(d),
        jac_y=lambda x, y: -np.eye(d),
        djac_x_dir_x=lambda x, y, u: np.zeros((d, d)),
        djac_x_dir_y=lambda x, y, e: np.zeros((d, d)),
        exact_root=lambda y: y.copy(),
    )
    outer = CallableOuterOracle(
        value=lambda x, y: float(np.sum(x)),
        grad_x=lambda x, y: np.ones(d),
        grad_y=lambda x, y: np.zeros(d),
        hess_xx=lambda x, y: np.zeros((d, d)),
        jac_gradY_x=lambda x, y: np.zeros((d, d)),
        jac_gradX_y=lambda x, y: np.zeros((d, d)),
    )
    return hg.BilevelProblem(inner=inner, outer=outer, d_x=d, d_y=d, name="shift")


class TestValidateOracles:
    def test_affine_map_is_exact(self):
        problem = _shift_problem()
        rng = np.random.default_rng(0)
        report = hg.validate_oracles(problem, rng.normal(size=3),
                                     rng.normal(size=3), step=1e-5)
        assert max(report.values()) <= 1e-10

    def test_scalar_fixture_close(self, scalar_fixture):
        report = hg.validate_oracles(scalar_fixture, np.array([0.3]),
                                     np.array([0.0]), step=1e-5)
        assert max(report.values()) <= 1e-8

    def test_shipped_problems_within_tolerance(self, scalar_fixture,
                                               linear1d_fixture,
                                               ridge_quadratic, ridge_affine,
                                               logistic_quadratic, cls_train,
                                               cls_val):
        logistic_affine = hg.make_logistic(
            cls_train, cls_val,
            hg.OuterVariant.affine(np.linspace(-1.0, 1.0, cls_train.d_x)))
        for problem in (scalar_fixture, linear1d_fixture, ridge_quadratic,
                        ridge_affine, logistic_quadratic, logistic_affine):
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                x = rng.normal(size=problem.d_x)
                y = rng.uniform(-1.0, 1.0, size=problem.d_y)
                report = hg.validate_oracles(problem, x, y, step=1e-5)
                worst = max(report.values())
                assert worst <= 1e-6, (problem.name, seed, report)

    def test_wrong_shape_raises(self, scalar_fixture):
        broken = hg.BilevelProblem(
            inner=CallableInnerOracle(
                residual=lambda x, y: np.zeros(2),  # d_x is 1
                jac_x=scalar_fixture.inner.jac_x,
                jac_y=scalar_fixture.inner.jac_y,
                djac_x_dir_x=scalar_fixture.inner.djac_x_dir_x,
                djac_x_dir_y=scalar_fixture.inner.djac_x_dir_y,
            ),
            outer=scalar_fixture.outer, d_x=1, d_y=1)
        with pytest.raises(ContractViolation):
            hg.validate_oracles(broken, np.array([0.3]), np.array([0.0]))

    def test_rejects_nonpositive_step(self, scalar_fixture):
        with pytest.raises(ContractViolation):
            hg.validate_oracles(scalar_fixture, np.array([0.3]),
                                np.array([0.0]), step=0.0)

    @pytest.mark.parametrize("step", [np.nan, np.inf])
    def test_rejects_non_finite_step(self, scalar_fixture, step):
        # A NaN or infinite step used to surface as non-finite residuals.
        with pytest.raises(ContractViolation, match="step must be"):
            hg.validate_oracles(scalar_fixture, np.array([0.3]),
                                np.array([0.0]), step=step)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_fd_step_rejects_bad_eps(self, linear1d_fixture, eps):
        with pytest.raises(hg.UsageError, match="eps"):
            fd_step(np.zeros(1), eps, 1e-5)
        estimator = hg.make_estimator(linear1d_fixture, "vanilla")
        with pytest.raises(hg.UsageError, match="eps"):
            hg.efficiency_constant(hg.RootContext.solve(linear1d_fixture, np.zeros(1)),
                                   estimator, eps=eps)


class TestProblemInvariants:
    def test_ridge_exact_root_residual(self, ridge_quadratic):
        for seed in range(10):
            y = seeded_y(ridge_quadratic, seed)
            root = ridge_quadratic.exact_root(y)
            resid = np.linalg.norm(ridge_quadratic.residual(root, y))
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(root))

    def test_outer_second_derivative_symmetry(self, ridge_quadratic,
                                              logistic_quadratic):
        for problem in (ridge_quadratic, logistic_quadratic):
            y = seeded_y(problem, 3)
            x = problem.exact_root(y) + 0.1
            hess = problem.outer.hess_xx(x, y)
            assert np.max(np.abs(hess - hess.T)) <= 1e-12 * (1 + np.max(np.abs(hess)))
            cross = problem.outer.jac_gradY_x(x, y)
            assert np.allclose(cross, problem.outer.jac_gradX_y(x, y).T, atol=1e-10)

    def test_dimensions_must_be_positive(self, scalar_fixture):
        with pytest.raises(ContractViolation):
            hg.BilevelProblem(inner=scalar_fixture.inner,
                              outer=scalar_fixture.outer, d_x=0, d_y=1)


class TestConcurrentEvaluation:
    def test_shared_problem_is_thread_safe(self, ridge_quadratic):
        from concurrent.futures import ThreadPoolExecutor
        y = seeded_y(ridge_quadratic, 55)
        rng = np.random.default_rng(56)
        points = [rng.normal(size=ridge_quadratic.d_x) for _ in range(16)]
        serial = [hg.Strategy(ridge_quadratic).estimate(x, y) for x in points]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda x: hg.Strategy(ridge_quadratic).estimate(x, y), points))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestFDAdapter:
    def test_matches_analytic_ridge(self, reg_train, reg_val):
        analytic = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.quadratic())
        adapter = hg.FDInnerOracle(
            residual_fn=analytic.inner.residual,
            d_x=analytic.d_x, d_y=analytic.d_y)
        rng = np.random.default_rng(5)
        x = rng.normal(size=analytic.d_x)
        y = rng.uniform(-1, 1, size=analytic.d_y)
        assert np.allclose(adapter.jac_x(x, y), analytic.jac_x(x, y),
                           atol=1e-6, rtol=1e-6)
        assert np.allclose(adapter.jac_y(x, y), analytic.jac_y(x, y),
                           atol=1e-6, rtol=1e-6)

    def test_directional_derivatives_close(self, scalar_fixture):
        adapter = hg.FDInnerOracle(
            residual_fn=scalar_fixture.inner.residual, d_x=1, d_y=1)
        x, y, u = np.array([0.4]), np.array([0.2]), np.array([1.0])
        got = adapter.djac_x_dir_y(x, y, u)
        want = scalar_fixture.inner.djac_x_dir_y(x, y, u)
        assert np.allclose(got, want, atol=1e-4)

    def test_no_root_capability(self):
        adapter = hg.FDInnerOracle(residual_fn=lambda x, y: x - y, d_x=2, d_y=2)
        assert adapter.exact_root(np.zeros(2)) is None
