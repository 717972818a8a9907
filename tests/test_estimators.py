"""The estimation formula, its building blocks, and the strategy table."""

from dataclasses import replace

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import DomainError, SingularMatrixError
from hygrad.efficiency import JACOBIAN_FD_STEP
from hygrad.estimators import resolve_strategy
from hygrad.problems import CallableInnerOracle, fd_jacobian

from conftest import seeded_y


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
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.quadratic())
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
        problem = hg.make_ridge(reg_train, reg_val, hg.OuterVariant.affine())
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

    def test_exp_sign_mismatch_rejected(self):
        phi = hg.signed_exp_reparam(np.array([1.0]))
        with pytest.raises(DomainError):
            phi.inverse(np.array([-1.0]), np.zeros(1))

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

    def test_make_estimator_rejects_unknown(self, scalar_fixture):
        with pytest.raises(hg.UsageError):
            hg.make_estimator(scalar_fixture, "bogus")

    def test_strategy_registry_complete(self, scalar_fixture):
        # Scaling F by 1e-15 moves neither the root nor the hypergradient,
        # and every strategy checks its matrices by one relative singularity
        # rule, so the scaled problem runs every strategy too.
        s = 1e-15
        inner = scalar_fixture.inner
        tiny = replace(scalar_fixture, inner=replace(
            inner,
            residual=lambda x, y: s * inner.residual(x, y),
            jac_x=lambda x, y: s * inner.jac_x(x, y),
            jac_y=lambda x, y: s * inner.jac_y(x, y),
            djac_x_dir_x=lambda x, y, u: s * inner.djac_x_dir_x(x, y, u),
            djac_x_dir_y=lambda x, y, e: s * inner.djac_x_dir_y(x, y, e)))
        y = np.zeros(1)
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


@pytest.fixture
def lu_calls(monkeypatch):
    """Every matrix the dense singularity check sees from here on. Counting
    through the module attribute also checks that linalg looks the check up
    when it factors, as profilers that rebind it need."""
    import hygrad.linalg as linalg
    calls = []
    original = linalg.check_nonsingular

    def counting(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)
    monkeypatch.setattr(linalg, "check_nonsingular", counting)
    return calls


def _per_estimate_counts(problem, lu_calls, root_context):
    """Per strategy, the (jac_x, djac_x_dir_y, LU check) counts of one
    estimate at the seed-61 point just off the root, built from the problem
    or from its root context at that y."""
    x, y = _off_root_point(problem, 61)
    calls = []

    def counted(name):
        oracle = getattr(problem.inner, name)

        def call(*args):
            calls.append(name)
            return oracle(*args)
        return call
    inner = replace(problem.inner, jac_x=counted("jac_x"),
                    djac_x_dir_y=counted("djac_x_dir_y"))
    counting = replace(problem, inner=inner)
    if root_context:
        counting = hg.RootContext.solve(counting, y).problem
    counts = {}
    for key in hg.STRATEGIES:
        estimator = hg.make_estimator(counting, key)
        calls.clear()
        before = len(lu_calls)
        estimator(x, y)
        counts[key] = (calls.count("jac_x"), calls.count("djac_x_dir_y"),
                       len(lu_calls) - before)
    return counts


def _expected_counts(problem, opt_lu):
    # diag-rep and opt differentiate F_1 along each y-direction once, for
    # both R_2 contractions.
    return {"vanilla": (1, 0, 1), "newton": (2, 0, 2), "diag": (2, 0, 1),
            "exp": (1, 0, 1), "diag-rep": (4, problem.d_y, 1),
            "opt": (5, problem.d_y, opt_lu)}


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
        est = hg.estimator_for_kind(ridge_quadratic, strategy)
        assert est.name == strategy
        assert np.array_equal(est(x, y),
                              hg.make_estimator(ridge_quadratic, strategy)(x, y))
        sens = resolve_strategy(ridge_quadratic, strategy).sensitivity
        assert np.array_equal(sens(x, y), hg.Strategy(
            ridge_quadratic, reparam=family(ridge_quadratic)).sensitivity(x, y))

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

    @pytest.mark.parametrize("fixture,opt_lu", [("ridge_quadratic", 5),
                                                ("logistic_quadratic", 7)])
    def test_lu_factorizations_per_estimate(self, fixture, opt_lu, request,
                                            lu_calls):
        # Every solve against one matrix shares one factorization, and a
        # change of variables evaluates its terms once per point. From a plain
        # problem opt also solves the root that seeds q_inverse: one solve on
        # ridge, three Newton steps on logistic.
        problem = request.getfixturevalue(fixture)
        assert _per_estimate_counts(problem, lu_calls, root_context=False) \
            == _expected_counts(problem, opt_lu)

    @pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
    def test_opt_lu_factorizations_from_root_context(self, fixture, request,
                                                     lu_calls):
        # From a root context q_inverse is seeded at the stored root and its
        # Newton run stops at the first residual check, so opt factors only
        # R = F_1^{-1}, F_1 for both R_2 contractions, phi_1 and V.
        problem = request.getfixturevalue(fixture)
        assert _per_estimate_counts(problem, lu_calls, root_context=True) \
            == _expected_counts(problem, 4)

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

    def test_unknown_kind_rejected(self, scalar_fixture):
        for kind in ("bogus", 3, None):
            with pytest.raises(hg.UsageError):
                resolve_strategy(scalar_fixture, kind)
