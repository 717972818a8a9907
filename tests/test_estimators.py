"""The estimation formula, its building blocks, and the strategy table."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hygrad as hg
from hygrad import efficiency
from hygrad.errors import DomainError, SingularMatrixError
from hygrad.efficiency import JACOBIAN_FD_STEP
from hygrad.estimators import resolve_strategy
from hygrad.problems import CallableInnerOracle, fd_jacobian

from conftest import (COUPLINGS, assert_same_bits, nonsymmetric_problem, rel_err,
                      seeded_y, shift_problem)


def shipped_problems(scalar_fixture, linear1d_fixture, ridge_quadratic,
                     logistic_quadratic):
    return (scalar_fixture, linear1d_fixture, ridge_quadratic, logistic_quadratic)


class TestSolutionSensitivity:
    def test_linear1d_value(self, linear1d_fixture):
        s = hg.solution_sensitivity(linear1d_fixture, np.array([0.3]), np.zeros(1))
        assert s[0, 0] == pytest.approx(-0.3, abs=1e-15)

    def test_shift_map(self):
        d = 2
        inner = CallableInnerOracle(
            residual=lambda x, y: x - y,
            jac_x=lambda x, y: np.eye(d),
            jac_y=lambda x, y: -np.eye(d),
            djac_x_dir_x=lambda x, y, u: np.zeros((d, d)),
            djac_x_dir_y=lambda x, y, e: np.zeros((d, d)),
            exact_root=lambda y: y.copy(),
        )
        problem = hg.BilevelProblem(inner=inner, outer=hg.scalar_ridge().outer,
                                    d_x=d, d_y=d)
        s = hg.solution_sensitivity(problem, np.zeros(d), np.zeros(d))
        assert np.array_equal(s, np.eye(d))

    def test_transpose_matches_solution_jacobian(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 1)
        xstar = ridge_quadratic.exact_root(y)
        sens = hg.solution_sensitivity(ridge_quadratic, xstar, y)
        fd = hg.fd_jac_xstar(ridge_quadratic, y)
        assert np.max(np.abs(sens.T - fd)) <= 1e-6 * (1 + np.max(np.abs(fd)))

    def test_singular_jacobian_raises(self):
        inner = CallableInnerOracle(
            residual=lambda x, y: np.zeros(1),
            jac_x=lambda x, y: np.zeros((1, 1)),
            jac_y=lambda x, y: np.ones((1, 1)),
            djac_x_dir_x=lambda x, y, u: np.zeros((1, 1)),
            djac_x_dir_y=lambda x, y, e: np.zeros((1, 1)),
        )
        problem = hg.BilevelProblem(inner=inner, outer=hg.scalar_ridge().outer,
                                    d_x=1, d_y=1)
        with pytest.raises(SingularMatrixError):
            hg.solution_sensitivity(problem, np.zeros(1), np.zeros(1))


class TestIftEstimate:
    def test_scalar_ridge_at_root(self, scalar_fixture):
        y = np.zeros(1)
        got = hg.Strategy(scalar_fixture).estimate(scalar_fixture.exact_root(y), y)
        assert got[0] == pytest.approx(-0.125, abs=1e-10)

    def test_linear1d_off_root(self, linear1d_fixture):
        got = hg.Strategy(linear1d_fixture).estimate(np.array([0.9]), np.zeros(1))
        assert got[0] == pytest.approx(-0.9, abs=1e-15)

    def test_consistency_everywhere(self, scalar_fixture, linear1d_fixture,
                                    ridge_quadratic, logistic_quadratic):
        for problem in shipped_problems(scalar_fixture, linear1d_fixture,
                                        ridge_quadratic, logistic_quadratic):
            low, high = (3.0, 6.0) if problem.name == "logistic" else (-1.0, 1.0)
            y = seeded_y(problem, 17, low=low, high=high)
            truth = hg.fd_hypergradient(problem, y)
            got = hg.Strategy(problem).estimate(problem.exact_root(y), y)
            assert np.linalg.norm(got - truth) <= 1e-6 * (1 + np.linalg.norm(truth))


class TestPreconditionedEstimate:
    def test_newton_step_exact_on_affine(self, linear1d_fixture):
        precond = hg.newton_preconditioner(linear1d_fixture)
        got = hg.Strategy(linear1d_fixture, precond=precond).estimate(
            np.array([0.3]), np.zeros(1))
        assert got[0] == pytest.approx(-1.0, abs=1e-14)

    def test_newton_step_exact_on_scalar_ridge(self, scalar_fixture):
        precond = hg.newton_preconditioner(scalar_fixture)
        got = hg.Strategy(scalar_fixture, precond=precond).estimate(
            np.zeros(1), np.zeros(1))
        assert got[0] == pytest.approx(-0.125, abs=1e-14)

    def test_any_preconditioner_consistent_at_root(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 3)
        xstar = ridge_quadratic.exact_root(y)
        base = hg.Strategy(ridge_quadratic).estimate(xstar, y)
        for precond in (hg.diag_preconditioner(ridge_quadratic),
                        hg.scaled_preconditioner(
                            hg.newton_preconditioner(ridge_quadratic), 3.0)):
            got = hg.Strategy(ridge_quadratic, precond=precond).estimate(xstar, y)
            assert np.linalg.norm(got - base) <= 1e-10 * (1 + np.linalg.norm(base))

    def test_newton_recovers_truth_from_any_start_on_ridge(self, reg_train,
                                                           reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "quadratic")
        precond = hg.newton_preconditioner(problem)
        y = seeded_y(problem, 77)
        truth = hg.Strategy(problem).estimate(problem.exact_root(y), y)
        rng = np.random.default_rng(78)
        for _ in range(5):
            x = rng.normal(scale=3.0, size=problem.d_x)
            got = hg.Strategy(problem, precond=precond).estimate(x, y)
            assert np.linalg.norm(got - truth) <= 1e-9 * (1 + np.linalg.norm(truth))

    def test_diag_equals_newton_in_1d(self, scalar_fixture):
        x, y = np.array([0.2]), np.array([0.4])
        newton = hg.Strategy(scalar_fixture,
                             precond=hg.newton_preconditioner(scalar_fixture))
        diag = hg.Strategy(scalar_fixture,
                           precond=hg.diag_preconditioner(scalar_fixture))
        assert newton.estimate(x, y)[0] == diag.estimate(x, y)[0]


class TestReparameterizedEstimate:
    def test_identity_matches_vanilla(self, scalar_fixture, linear1d_fixture,
                                      ridge_quadratic, logistic_quadratic):
        phi = hg.identity_reparam()
        rng = np.random.default_rng(21)
        for problem in shipped_problems(scalar_fixture, linear1d_fixture,
                                        ridge_quadratic, logistic_quadratic):
            x = rng.normal(size=problem.d_x)
            y = rng.uniform(-1, 1, size=problem.d_y)
            a = hg.Strategy(problem, reparam=phi).estimate(x, y)
            b = hg.Strategy(problem).estimate(x, y)
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(b)))

    def test_linear1d_exp_hand_value(self, linear1d_fixture):
        got = hg.Strategy(linear1d_fixture,
                          reparam=hg.exp_family_reparam_1d(1.0, 1.0)).estimate(
            np.array([0.9]), np.zeros(1))
        # closed form -x^2/(2x - 1) at x = 0.9
        assert got[0] == pytest.approx(-0.81 / 0.8, abs=1e-12)

    def test_consistent_at_root(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 5)
        xstar = ridge_quadratic.exact_root(y)
        base = hg.Strategy(ridge_quadratic).estimate(xstar, y)
        got = hg.Strategy(ridge_quadratic,
                          reparam=hg.signed_exp_reparam(xstar)).estimate(xstar, y)
        assert np.linalg.norm(got - base) <= 1e-9 * (1 + np.linalg.norm(base))

    def test_sensitivity_equals_plain_at_root(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 9)
        xstar = ridge_quadratic.exact_root(y)
        plain = hg.solution_sensitivity(ridge_quadratic, xstar, y)
        reparam = hg.reparam_sensitivity(ridge_quadratic,
                                         hg.signed_exp_reparam(xstar), xstar, y)
        assert np.max(np.abs(plain - reparam)) <= 1e-9 * (1 + np.max(np.abs(plain)))


class TestLocalizedEstimate:
    def test_consistent_at_root(self, ridge_quadratic, logistic_quadratic):
        for problem in (ridge_quadratic, logistic_quadratic):
            low, high = (3.0, 6.0) if problem.name == "logistic" else (-1.0, 1.0)
            y = seeded_y(problem, 31, low=low, high=high)
            xstar = problem.exact_root(y)
            base = hg.Strategy(problem).estimate(xstar, y)
            for sep in (hg.diag_scaling_reparam(problem),
                        hg.newton_separable_reparam(problem)):
                got = hg.Strategy(problem, reparam=sep).estimate(xstar, y)
                assert np.linalg.norm(got - base) <= 1e-8 * (1 + np.linalg.norm(base))

    def test_diag_family_newton_exact_in_1d(self, linear1d_fixture):
        sep = hg.diag_scaling_reparam(linear1d_fixture)
        got = hg.Strategy(linear1d_fixture, reparam=sep).estimate(
            np.array([0.9]), np.zeros(1))
        assert got[0] == pytest.approx(-1.0, abs=1e-12)

    def test_newton_family_exact_anywhere_affine_outer(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "affine")
        sep = hg.newton_separable_reparam(problem)
        y = seeded_y(problem, 40)
        truth = hg.fd_hypergradient(problem, y)
        rng = np.random.default_rng(41)
        for _ in range(3):
            x = rng.normal(size=problem.d_x)
            got = hg.Strategy(problem, reparam=sep).estimate(x, y)
            assert np.linalg.norm(got - truth) <= 1e-8 * (1 + np.linalg.norm(truth))

    def test_newton_family_sensitivity_exact_on_ridge(self, ridge_quadratic):
        # With an affine residual the anchored Newton-like family reproduces
        # the exact solution-map Jacobian transpose at every query point.
        sep = hg.newton_separable_reparam(ridge_quadratic)
        y = seeded_y(ridge_quadratic, 43)
        truth = hg.fd_jac_xstar(ridge_quadratic, y).T
        x = np.linspace(-1.0, 1.0, ridge_quadratic.d_x)
        got = hg.Strategy(ridge_quadratic, reparam=sep).sensitivity(x, y)
        assert np.max(np.abs(got - truth)) <= 1e-6 * (1 + np.max(np.abs(truth)))


@pytest.fixture(scope="module")
def nonsymmetric():
    return nonsymmetric_problem()


# Largest relative gap between a closed-form S and the generic formula's
# over the cases below: 2.1e-15, exp on logistic. A solve against F_1 where
# the formula solves against F_1' fails the nonsymmetric case at its first
# point, by 2.1e-4 in opt's F_1^{-T} F, 0.11 in diag-rep's V solve and 0.55
# in exp's.
CLOSED_FORM_RTOL = 1e-13

# exp_family_reparam_1d's (alpha, beta) and a point of the map's range.
EXP_1D_CASES = [(1.0, 1.0, 0.9), (-1.5, 0.7, -0.4), (2.0, -0.3, 0.25)]


def _generic_separable(problem, family, x, y):
    """reparam_sensitivity of the family, its closed form cleared, anchored
    at (x, y)."""
    phi = hg.anchored_reparam(replace(family, sensitivity=None), x, y)
    return hg.reparam_sensitivity(problem, phi, x, y)


class TestClosedFormSensitivity:
    """Each shipped change of variables against ``reparam_sensitivity`` of
    the same map with its closed form cleared, at seeded points off the
    root, near and far."""

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic",
                                         "nonsymmetric"])
    def test_matches_the_generic_formula(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        low, high = (3.0, 6.0) if problem.name == "logistic" else (-1.0, 1.0)
        families = {"diag-rep": hg.diag_scaling_reparam(problem),
                    "opt": hg.newton_separable_reparam(problem)}
        for seed in range(4):
            y = seeded_y(problem, seed, low=low, high=high)
            rng = np.random.default_rng(seed)
            for scale in (1e-3, 1e-1):
                x = problem.exact_root(y) + rng.normal(scale=scale, size=problem.d_x)
                for name, family in families.items():
                    gap = rel_err(family.sensitivity(x, y),
                                  _generic_separable(problem, family, x, y))
                    assert gap <= CLOSED_FORM_RTOL, (name, seed, scale, gap)
                phi = hg.signed_exp_reparam(x)
                gap = rel_err(phi.sensitivity(problem, x, y), hg.reparam_sensitivity(
                    problem, replace(phi, sensitivity=None), x, y))
                assert gap <= CLOSED_FORM_RTOL, ("exp", seed, scale, gap)

    @pytest.mark.parametrize("fixture", ["scalar_fixture", "linear1d_fixture"])
    def test_exp_family_1d_matches_the_generic_formula(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        y = np.array([0.3])
        for alpha, beta, x in EXP_1D_CASES:
            phi = hg.exp_family_reparam_1d(alpha, beta)
            x = np.array([x])
            gap = rel_err(phi.sensitivity(problem, x, y), hg.reparam_sensitivity(
                problem, replace(phi, sensitivity=None), x, y))
            assert gap <= CLOSED_FORM_RTOL, (alpha, beta, gap)

    def test_strategy_calls_the_closed_form(self, ridge_quadratic):
        x, y = _off_root_point(ridge_quadratic, 92)
        marker = np.full((ridge_quadratic.d_y, ridge_quadratic.d_x), 7.0)
        for reparam in (
                replace(hg.signed_exp_reparam(x), sensitivity=lambda p, x, y: marker),
                replace(hg.newton_separable_reparam(ridge_quadratic),
                        sensitivity=lambda x, y: marker)):
            assert hg.Strategy(ridge_quadratic, reparam=reparam).sensitivity(x, y) \
                is marker

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_scaled_family_takes_the_generic_path(self, fixture, request):
        # Scaling R makes the family no longer Newton-like, so the Newton
        # closed form must not ride along on the copy.
        problem = request.getfixturevalue(fixture)
        x, y = _off_root_point(problem, 93)
        family = hg.newton_separable_reparam(problem)
        scaled = hg.scale_separable_r(family, 1.5)
        assert scaled.sensitivity is None
        got = hg.Strategy(problem, reparam=scaled).sensitivity(x, y)
        assert np.array_equal(got, hg.reparam_sensitivity(
            problem, hg.anchored_reparam(scaled, x, y), x, y))
        assert rel_err(got, hg.Strategy(problem, reparam=family).sensitivity(x, y)) \
            > 1e-6


class TestClosedFormDomain:
    """The exponential closed form raises DomainError exactly where the
    generic formula's inverse does."""

    @staticmethod
    def _paths(problem, phi):
        generic = replace(phi, sensitivity=None)
        return (lambda x, y: phi.sensitivity(problem, x, y),
                lambda x, y: hg.reparam_sensitivity(problem, generic, x, y))

    def _assert_both_refuse(self, problem, phi, x, y):
        for path in self._paths(problem, phi):
            with pytest.raises(DomainError):
                path(x, y)

    def test_signed_map_refuses_zero_and_flipped_coordinates(self, ridge_quadratic):
        problem = ridge_quadratic
        x, y = _off_root_point(problem, 94)
        phi = hg.signed_exp_reparam(x)
        for j in (0, problem.d_x - 1):
            for bad in (0.0, -0.0, -x[j]):
                moved = x.copy()
                moved[j] = bad
                self._assert_both_refuse(problem, phi, moved, y)
        # The "exp" key anchors at the point itself, so it refuses a zero.
        moved = x.copy()
        moved[1] = 0.0
        with pytest.raises(DomainError):
            hg.Strategy(problem, reparam="exp").sensitivity(moved, y)

    @pytest.mark.parametrize("fixture", ["scalar_fixture", "linear1d_fixture"])
    def test_family_1d_refuses_the_other_half_line(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        y = np.array([0.3])
        for alpha, beta, inside in EXP_1D_CASES:
            phi = hg.exp_family_reparam_1d(alpha, beta)
            for x in (0.0, -0.0, -inside, -1e-300 * inside):
                self._assert_both_refuse(problem, phi, np.array([x]), y)
            for path in self._paths(problem, phi):
                assert np.isfinite(path(np.array([inside]), y)).all()


class TestConstructors:
    def test_exp_round_trip_mixed_signs(self):
        anchor = np.array([0.5, -2.0, 3.0])
        phi = hg.signed_exp_reparam(anchor)
        x = np.array([0.1, -0.7, 5.0])
        y = np.zeros(3)
        assert np.allclose(phi.forward(phi.inverse(x, y), y), x,
                           rtol=1e-10, atol=0)

    def test_exp_zero_coordinate_rejected(self):
        with pytest.raises(DomainError):
            hg.signed_exp_reparam(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exp_non_finite_anchor_rejected(self, bad):
        with pytest.raises(hg.ContractViolation, match="anchor"):
            hg.signed_exp_reparam(np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exp_inverse_rejects_non_finite_points(self, bad):
        y = np.zeros(1)
        with pytest.raises(hg.ContractViolation, match="non-finite"):
            hg.signed_exp_reparam(np.array([1.0, 2.0])).inverse(
                np.array([bad, 1.0]), y)
        with pytest.raises(hg.ContractViolation, match="non-finite"):
            hg.exp_family_reparam_1d(1.0, 1.0).inverse(np.array([bad]), y)

    def test_exp_sign_mismatch_rejected(self):
        phi = hg.signed_exp_reparam(np.array([1.0]))
        with pytest.raises(DomainError):
            phi.inverse(np.array([-1.0]), np.zeros(1))
        with pytest.raises(DomainError):
            hg.exp_family_reparam_1d(-1.5, 0.7).inverse(np.array([0.4]), np.zeros(1))

    def test_preconditioner_solve_matches_matrix(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 2)
        x = np.zeros(ridge_quadratic.d_x)
        for precond in (hg.newton_preconditioner(ridge_quadratic),
                        hg.diag_preconditioner(ridge_quadratic)):
            v = np.arange(1.0, 8.0)
            solved = precond.solve(x, y, v)
            assert np.allclose(precond.matrix(x, y) @ solved, v, atol=1e-10)

    def test_separable_anchoring_round_trip(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 12)
        anchor = np.linspace(0.1, 0.7, ridge_quadratic.d_x)
        for sep in (hg.diag_scaling_reparam(ridge_quadratic),
                    hg.newton_separable_reparam(ridge_quadratic)):
            phi = hg.anchored_reparam(sep, anchor, y)
            z = phi.inverse(anchor, y)
            assert np.allclose(phi.forward(z, y), anchor, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("fixture", ["logistic_quadratic", "ridge_quadratic"],
                             ids=["logistic", "ridge"])
    def test_newton_family_needs_root(self, fixture, request):
        # Inverting Q has one path, Newton seeded at the exact root, so an
        # affine residual without exact_root is refused like a nonlinear one.
        base = request.getfixturevalue(fixture)
        problem = replace(base, inner=replace(base.inner, exact_root=lambda y: None))
        sep = hg.newton_separable_reparam(problem)
        with pytest.raises(hg.CapabilityError):
            hg.Strategy(problem, reparam=sep).estimate(np.ones(base.d_x),
                                                       np.zeros(base.d_y))

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_scale_factor_must_be_finite(self, ridge_quadratic, factor):
        with pytest.raises(hg.UsageError):
            hg.scaled_preconditioner(hg.newton_preconditioner(ridge_quadratic), factor)
        with pytest.raises(hg.UsageError):
            hg.scale_separable_r(hg.newton_separable_reparam(ridge_quadratic), factor)

    @pytest.mark.parametrize("alpha,beta", [(np.nan, 1.0), (np.inf, 1.0),
                                            (1.0, np.nan), (1.0, -np.inf)])
    def test_exp_family_parameters_must_be_finite(self, alpha, beta):
        with pytest.raises(hg.UsageError, match="finite and nonzero"):
            hg.exp_family_reparam_1d(alpha, beta)

    def test_make_estimator_rejects_unknown(self, scalar_fixture):
        with pytest.raises(hg.UsageError):
            hg.make_estimator(scalar_fixture, "bogus")

    def test_strategy_registry_complete(self, scalar_fixture):
        # Scaling F by 1e-15 moves neither the root nor the hypergradient,
        # and every strategy checks its matrices by one relative singularity
        # rule, so the scaled problem runs every strategy too. Every
        # derivative is scaled, the closed-form y-couplings included.
        s = 1e-15
        inner = scalar_fixture.inner
        tiny = replace(scalar_fixture, inner=replace(
            inner,
            residual=lambda x, y: s * inner.residual(x, y),
            jac_x=lambda x, y: s * inner.jac_x(x, y),
            jac_y=lambda x, y: s * inner.jac_y(x, y),
            djac_x_dir_x=lambda x, y, u: s * inner.djac_x_dir_x(x, y, u),
            djac_x_dir_y=lambda x, y, e: s * inner.djac_x_dir_y(x, y, e),
            djac_x_y_apply=lambda x, y, v: s * inner.djac_x_y_apply(x, y, v),
            djac_x_y_apply_T=lambda x, y, v: s * inner.djac_x_y_apply_T(x, y, v),
            djac_x_y_diag=lambda x, y: s * inner.djac_x_y_diag(x, y)))
        y = np.zeros(1)
        assert max(hg.validate_oracles(tiny, np.array([0.3]), y).values()) <= 1e-8
        for problem in (scalar_fixture, tiny):
            xstar = problem.exact_root(y)
            for strategy in hg.STRATEGIES:
                est = hg.make_estimator(problem, strategy)
                got = est(xstar, y)
                assert got.shape == (1,)
                assert abs(got[0] - (-0.125)) <= 1e-8, (problem is tiny, strategy)


def _relative_gap(got, want):
    scale = max(np.max(np.abs(got)), np.max(np.abs(want)))
    return np.max(np.abs(got - want)) / scale if scale > 0 else 0.0


class TestDerivatives:
    # Worst gap measured over these cases at the 1e-5 step: 2.6e-10 (opt's
    # phi_2 on ridge); a wrong term or operand order is off by O(1).
    TOL = 1e-8

    def _check(self, phi, z, y):
        w = np.random.default_rng(3).normal(size=z.shape[0])
        got = phi.derivatives(z, y, w)
        want = (fd_jacobian(lambda zz: phi.forward(zz, y), z, JACOBIAN_FD_STEP),
                fd_jacobian(lambda yy: phi.forward(z, yy), y, JACOBIAN_FD_STEP),
                fd_jacobian(lambda zz: phi.derivatives(zz, y, w)[0].T @ w, z,
                            JACOBIAN_FD_STEP),
                fd_jacobian(lambda yy: phi.derivatives(z, yy, w)[0].T @ w, y,
                            JACOBIAN_FD_STEP))
        for name, g, f in zip(("phi_1", "phi_2", "phi_11 w", "phi_21 w"), got, want):
            assert g.shape == f.shape, name
            assert _relative_gap(g, f) <= self.TOL, name
        # A stack of three directions: phi_1 and phi_2 as for one, and each
        # contraction's slice k with the bits of the call on row k alone.
        stack = np.random.default_rng(4).normal(size=(3, z.shape[0]))
        stacked = phi.derivatives(z, y, stack)
        singles = [phi.derivatives(z, y, v) for v in stack]
        for i in (0, 1):
            assert np.array_equal(stacked[i], singles[0][i])
        for i in (2, 3):
            assert np.array_equal(stacked[i], np.stack([t[i] for t in singles]))
        return got

    def test_closed_form_maps_match_forward(self):
        y = np.array([0.3, -0.2])
        self._check(hg.identity_reparam(), np.array([0.4, -1.1, 2.0]), y)
        self._check(hg.signed_exp_reparam(np.array([0.5, -2.0, 3.0])),
                    np.array([0.3, -0.4, 0.8]), y)
        self._check(hg.exp_family_reparam_1d(-1.5, 0.7), np.array([0.4]), y[:1])

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_anchored_families_match_forward(self, fixture, request):
        # Anchored just off the root, with z moved off the anchor's own z so
        # that Q(z, ybar) = -F is nonzero and opt's phi_2 is not trivially 0.
        problem = request.getfixturevalue(fixture)
        x, y = _off_root_point(problem, 71)
        for family in (hg.diag_scaling_reparam, hg.newton_separable_reparam):
            phi = hg.anchored_reparam(family(problem), x, y)
            z = phi.inverse(x, y) + np.linspace(-0.1, 0.1, problem.d_x)
            assert np.any(self._check(phi, z, y)[1] != 0.0)


# Each strategy key and the public building blocks it must reduce to.
FORMULAS = {
    "vanilla": lambda p, x, y: hg.Strategy(p).estimate(x, y),
    "newton": lambda p, x, y: hg.Strategy(
        p, precond=hg.newton_preconditioner(p)).estimate(x, y),
    "diag": lambda p, x, y: hg.Strategy(
        p, precond=hg.diag_preconditioner(p)).estimate(x, y),
    "exp": lambda p, x, y: hg.Strategy(
        p, reparam=hg.signed_exp_reparam(x)).estimate(x, y),
    "diag-rep": lambda p, x, y: hg.Strategy(
        p, reparam=hg.diag_scaling_reparam(p)).estimate(x, y),
    "opt": lambda p, x, y: hg.Strategy(
        p, reparam=hg.newton_separable_reparam(p)).estimate(x, y),
}


def _off_root_point(problem, seed):
    low, high = (3.0, 6.0) if problem.name == "logistic" else (-1.0, 1.0)
    y = seeded_y(problem, seed, low=low, high=high)
    x = problem.exact_root(y) + np.linspace(0.05, 0.15, problem.d_x)
    assert np.all(x != 0.0) and np.linalg.norm(problem.residual(x, y)) > 0.0
    return x, y


def _per_estimate_counts(problem, lu_calls, root_context):
    """Per strategy, the (jac_x, djac_x_dir_y, y-coupling, LU check) counts
    of one estimate at the seed-61 point just off the root, built from the
    problem or from its root context at that y. Each strategy gets a fresh
    counting problem, so no estimate reads blocks or factorizations that an
    earlier one left in the problem's memo."""
    x, y = _off_root_point(problem, 61)
    calls = []

    def counted(name):
        oracle = getattr(problem.inner, name)

        def call(*args):
            calls.append(name)
            return oracle(*args)
        return call
    inner = replace(problem.inner, jac_x=counted("jac_x"),
                    djac_x_dir_y=counted("djac_x_dir_y"),
                    **{name: counted(name) for name in COUPLINGS})
    counts = {}
    for key in hg.STRATEGIES:
        counting = replace(problem, inner=inner)
        if root_context:
            counting = hg.RootContext.solve(counting, y).problem
        estimator = hg.make_estimator(counting, key)
        calls.clear()
        before = len(lu_calls)
        estimator(x, y)
        counts[key] = (calls.count("jac_x"), calls.count("djac_x_dir_y"),
                       sum(map(calls.count, COUPLINGS)), len(lu_calls) - before)
    return counts


# opt evaluates F_1 at the root too where V has a djac_x_dir_x term: not on
# ridge, whose dF_1 is zero.
OPT_JAC_X = {"ridge_quadratic": 1, "logistic_quadratic": 2}


def _expected_counts(opt_jac_x, opt_lu):
    # The problem evaluates F_1 once per point: diag-rep needs it at x only,
    # opt at x and, where V has a djac_x_dir_x term, at the root. Neither
    # differentiates F_1 along a one-hot y-direction: diag-rep reads its
    # y-coupling from one closed-form diagonal call, opt from one call each
    # of the two closed-form contractions.
    return {"vanilla": (1, 0, 0, 1), "newton": (2, 0, 0, 2),
            "diag": (2, 0, 0, 1), "exp": (1, 0, 0, 1),
            "diag-rep": (1, 0, 1, 1), "opt": (opt_jac_x, 0, 2, opt_lu)}


class TestStrategyTable:
    def test_keys(self):
        assert hg.STRATEGIES == tuple(FORMULAS)

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    @pytest.mark.parametrize("strategy", sorted(FORMULAS))
    def test_matches_building_blocks(self, strategy, fixture, request):
        problem = request.getfixturevalue(fixture)
        x, y = _off_root_point(problem, 51)
        got = hg.make_estimator(problem, strategy)(x, y)
        assert np.array_equal(got, FORMULAS[strategy](problem, x, y))

    @pytest.mark.parametrize("strategy,family", [
        ("diag-rep", hg.diag_scaling_reparam),
        ("opt", hg.newton_separable_reparam),
    ])
    def test_kind_functions_accept_separable_keys(self, ridge_quadratic, strategy,
                                                  family):
        x, y = _off_root_point(ridge_quadratic, 52)
        est = efficiency.estimator_for_kind(ridge_quadratic, strategy)
        assert est.name == strategy
        assert np.array_equal(est(x, y),
                              hg.make_estimator(ridge_quadratic, strategy)(x, y))
        sens = resolve_strategy(ridge_quadratic, strategy).sensitivity
        assert np.array_equal(sens(x, y), hg.Strategy(
            ridge_quadratic, reparam=family(ridge_quadratic)).sensitivity(x, y))

    def test_oracle_kinds_named_by_type(self, ridge_quadratic):
        # The tracer labels the comparison's preconditioned side "precond".
        problem = ridge_quadratic
        assert hg.make_estimator(problem, hg.newton_preconditioner(problem)).name \
            == "precond"
        for kind in (hg.identity_reparam(), hg.newton_separable_reparam(problem)):
            assert hg.make_estimator(problem, kind).name == "reparam"

    def test_constructors_looked_up_when_built(self, ridge_quadratic, monkeypatch):
        # Profilers rebind the module attribute; the table must call it.
        import hygrad.estimators as estimators
        built = []
        original = estimators.newton_separable_reparam

        def counting(problem):
            built.append(problem)
            return original(problem)
        monkeypatch.setattr(estimators, "newton_separable_reparam", counting)
        hg.make_estimator(ridge_quadratic, "opt")
        assert built == [ridge_quadratic]

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_lu_factorizations_per_estimate(self, fixture, request, lu_calls):
        # Every solve against one matrix shares one factorization, F_1's
        # kept per point by the problem, and a change of variables evaluates
        # its terms once per point. From a plain problem opt also solves the
        # root x*: one solve on ridge, three Newton steps on logistic. On
        # ridge dF_1 is zero, so opt's V is F_1 itself and F_1(x*) is not
        # needed; on logistic opt checks F_1, F_1(x*) and V.
        problem = request.getfixturevalue(fixture)
        opt_lu = {"ridge_quadratic": 2, "logistic_quadratic": 6}[fixture]
        assert _per_estimate_counts(problem, lu_calls, root_context=False) \
            == _expected_counts(OPT_JAC_X[fixture], opt_lu)

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_opt_lu_factorizations_from_root_context(self, fixture, request,
                                                     lu_calls):
        # From a root context opt reads the stored root and runs no Newton,
        # so it checks only F_1 (once, for both solves against it), and on
        # logistic F_1(x*) and V; on ridge V is F_1.
        problem = request.getfixturevalue(fixture)
        opt_lu = {"ridge_quadratic": 1, "logistic_quadratic": 3}[fixture]
        assert _per_estimate_counts(problem, lu_calls, root_context=True) \
            == _expected_counts(OPT_JAC_X[fixture], opt_lu)

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_diag_f1_checked_once_per_point(self, fixture, request, monkeypatch):
        # diag-rep's R, R's solve and R_2 read one check of diag(F_1) per
        # point from the problem, and none where diag's P has checked it;
        # its V is F_1, read from the problem's check of F_1 there.
        import hygrad.problems as problems
        checked = []
        original = problems.factor

        def counting(a, what="matrix"):
            checked.append(what)
            return original(a, what)
        monkeypatch.setattr(problems, "factor", counting)
        problem = replace(request.getfixturevalue(fixture))     # an empty memo
        x, y = _off_root_point(problem, 81)
        hg.make_estimator(problem, "diag-rep")(x, y)
        assert checked == ["R", "V"]
        x = x + 0.01
        checked.clear()
        hg.make_estimator(problem, "diag")(x, y)
        assert checked == ["P", "F_1"]      # F_1 at diag's corrected point
        checked.clear()
        hg.make_estimator(problem, "diag-rep")(x, y)
        assert checked == ["V"]

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_diag_rep_one_dense_check_per_point(self, fixture, request, lu_calls):
        # diag-rep's Q is the identity, so phi_11 F is zero and V is F_1: a
        # point where vanilla has checked F_1 needs no second dense check.
        problem = replace(request.getfixturevalue(fixture))     # an empty memo
        x, y = _off_root_point(problem, 82)
        lu_calls.clear()        # the checks of the root solve
        hg.make_estimator(problem, "vanilla")(x, y)
        hg.make_estimator(problem, "diag-rep")(x, y)
        assert len(lu_calls) == 1

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_r2_contractions_match_per_direction_solves(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        x, y = _off_root_point(problem, 62)
        rng = np.random.default_rng(62)
        w, q = rng.normal(size=problem.d_x), rng.normal(size=problem.d_x)
        f1 = problem.jac_x(x, y)
        t = hg.solve_transpose(f1, w, what="F_1")
        s = hg.linear_solve(f1, q, what="F_1")
        left, right = [], []
        for e in range(problem.d_y):
            direction = np.zeros(problem.d_y)
            direction[e] = 1.0
            g_e = problem.inner.djac_x_dir_y(x, y, direction)
            left.append(-hg.solve_transpose(f1, g_e.T @ t, what="F_1"))
            right.append(-hg.linear_solve(f1, g_e @ s, what="F_1"))
        # One matrix right-hand side and one solve per direction round
        # differently in the last bits only.
        sep = hg.newton_separable_reparam(problem)
        for got, want in zip(sep.r2_contract(x, y, w, q),
                             (np.stack(left, axis=1), np.stack(right, axis=1))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # A stack of directions runs them one at a time: each slice has the
        # bits of its single call, and the right contraction is unchanged.
        stack = np.stack([w, q, w - q])
        got_left, got_right = sep.r2_contract(x, y, stack, q)
        singles = [sep.r2_contract(x, y, v, q) for v in stack]
        assert np.array_equal(got_left, np.stack([t[0] for t in singles]))
        assert np.array_equal(got_right, singles[0][1])
        assert np.array_equal(sep.q_hess_contract(x, y, stack),
                              np.stack([sep.q_hess_contract(x, y, v) for v in stack]))

    def test_unknown_kind_rejected(self, scalar_fixture):
        for kind in ("bogus", 3, None):
            with pytest.raises(hg.UsageError):
                resolve_strategy(scalar_fixture, kind)


# --------------------------------------------------------------------------
# stacks of points

@pytest.mark.parametrize("name", ["ridge_quadratic", "logistic_quadratic", "nonsymmetric"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 7), seed=st.integers(0, 2 ** 16))
def test_stacked_rows_have_the_bits_of_single_calls(request, name, m, seed):
    # Every shipped strategy on a seeded stack of points near the root: the
    # stacked call raises exactly when some row's call does, and otherwise
    # row k has the bits of the call with row k alone.
    problem = request.getfixturevalue(name)
    rng = np.random.default_rng(seed)
    y = seeded_y(problem, seed)
    xstar = hg.exact_root(problem, y)
    x = xstar + 0.05 * (1.0 + np.abs(xstar)) * rng.standard_normal((m, problem.d_x))
    for key in hg.STRATEGIES:
        estimator = hg.make_estimator(problem, key)
        singles = []
        for row in x:
            try:
                singles.append(estimator(row, y))
            except hg.HygradError as err:
                singles.append(err)
        if any(isinstance(single, hg.HygradError) for single in singles):
            with pytest.raises(hg.HygradError):
                estimator(x, y)
            continue
        stacked = estimator(x, y)
        assert stacked.shape == (m, problem.d_y), key
        for k, single in enumerate(singles):
            assert_same_bits(stacked[k], single)


def _singular_at_one(problem):
    """The problem with F_1 = [[1, x_0], [x_0, 1]], singular where x_0 = 1."""
    return replace(problem, inner=replace(
        problem.inner, jac_x=lambda x, y: np.array([[1.0, x[0]], [x[0], 1.0]])))


class TestStacks:
    def test_one_singular_row_makes_the_stack_raise(self):
        problem = _singular_at_one(shift_problem(2))
        y = np.zeros(2)
        x = np.array([[0.5, 0.1], [1.0, 0.2], [0.2, 0.3]])
        estimator = hg.make_estimator(problem, "vanilla")
        with pytest.raises(SingularMatrixError, match=r"F_1 \(row 1\) is singular") as err:
            estimator(x, y)
        assert err.value.what == "F_1 (row 1)"
        with pytest.raises(SingularMatrixError, match="^F_1 is singular"):
            estimator(x[1], y)
        rest = estimator(x[[0, 2]], y)
        assert_same_bits(rest[0], estimator(x[0], y))
        assert_same_bits(rest[1], estimator(x[2], y))

    def test_one_row_out_of_exp_domain_makes_the_stack_raise(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 5)
        x = np.tile(hg.exact_root(ridge_quadratic, y), (3, 1)) + 0.01
        x[1, 2] = 0.0
        estimator = hg.make_estimator(ridge_quadratic, "exp")
        with pytest.raises(DomainError):
            estimator(x, y)
        with pytest.raises(DomainError):
            estimator(x[1], y)
        for k in (0, 2):
            estimator(x[k], y)

    def test_a_caller_map_without_closed_form_runs_row_by_row(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 6)
        x = hg.exact_root(ridge_quadratic, y) + np.linspace(0.1, 0.3, 2)[:, None]
        family = replace(hg.diag_scaling_reparam(ridge_quadratic), sensitivity=None)
        estimator = hg.make_estimator(ridge_quadratic, family)
        stacked = estimator(x, y)
        for k in range(2):
            assert_same_bits(stacked[k], estimator(x[k], y))

    @pytest.mark.parametrize("block", ["grad_x", "grad_y"])
    def test_outer_gradients_are_validated_per_point(self, reg_train, reg_val, block):
        # A column for a vector broadcast through g_2 + S g_1 unnoticed.
        train = hg.Dataset(reg_train.features[:, :3], reg_train.labels)
        val = hg.Dataset(reg_val.features[:, :3], reg_val.labels)
        problem = hg.make_ridge(train, val, "quadratic")
        gradient = getattr(problem.outer, block)
        problem = replace(problem, outer=replace(
            problem.outer, **{block: lambda x, y: gradient(x, y)[:, None]}))
        y = seeded_y(problem, 3)
        x = hg.exact_root(problem, y) + 0.1
        for key in hg.STRATEGIES:
            for point in (x, np.stack([x, x + 0.1])):
                with pytest.raises(hg.ContractViolation, match=f"{block} must be 1-d"):
                    hg.make_estimator(problem, key)(point, y)
        if block == "grad_x":
            with pytest.raises(hg.ContractViolation, match="grad_x must be 1-d"):
                hg.efficiency_constant(hg.RootContext.solve(problem, y), "vanilla")

    @pytest.mark.parametrize("bad, match", [
        (lambda m: m[:, :1], r"djac_x_dir_x must have shape \(3, 3\), got \(3, 1\)"),
        (lambda m: m * np.nan, "djac_x_dir_x contains non-finite entries")],
        ids=["column", "nan"])
    def test_djac_x_dir_x_is_validated(self, bad, match):
        # A (3, 1) slice broadcast through S (dF_1/dx_j) u unnoticed, and a
        # NaN was reported against the matrix it reached.
        problem = hg.make_logistic(hg.synthetic_classification_dataset(60, 3, seed=1),
                                   hg.synthetic_classification_dataset(60, 3, seed=2),
                                   "quadratic")
        dhess = problem.inner.djac_x_dir_x
        problem = replace(problem, inner=replace(
            problem.inner, djac_x_dir_x=lambda x, y, u: bad(dhess(x, y, u))))
        y = np.full(3, 0.5)
        ctx = hg.RootContext.solve(problem, y)
        with pytest.raises(hg.ContractViolation, match=match):
            hg.efficiency_constant(ctx, "vanilla")
        x = ctx.xstar + 0.1
        for point in (x, np.stack([x, x + 0.1])):
            with pytest.raises(hg.ContractViolation, match=match):
                hg.make_estimator(problem, "opt")(point, y)
        family = hg.newton_separable_reparam(problem)
        for w in (x, np.stack([x, x + 0.1])):
            with pytest.raises(hg.ContractViolation, match=match):
                family.q_hess_contract(ctx.xstar, y, w)

    @pytest.mark.parametrize("block", ["hess_xx", "jac_gradY_x"])
    def test_root_context_validates_the_outer_curvature(self, ridge_quadratic, block):
        matrix = getattr(ridge_quadratic.outer, block)
        problem = replace(ridge_quadratic, outer=replace(
            ridge_quadratic.outer, **{block: lambda x, y: matrix(x, y)[:, :-1]}))
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 2))
        with pytest.raises(hg.ContractViolation, match=f"{block} must have shape"):
            hg.efficiency_constant(ctx, "vanilla")
