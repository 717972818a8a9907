"""One root per (problem, y): the root context and what it keeps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hygrad as hg
from hygrad import cli
from hygrad.estimators import resolve_strategy

from conftest import assert_same_bits, seeded_y

SEPARABLE_KEYS = ("exp", "diag-rep", "opt")
# compare_bounds' rhs against |J v|^2 - sigma^2, as a share of
# sigma_P^2 + sigma_phi^2: over seeds 0-19, diag and scaled-Newton P and the
# three keys on both fixtures, the largest gap was 3.0e-15.
RHS_ROUNDING = 1e-13


def _logistic_y(problem, seed):
    return seeded_y(problem, seed, 3.0, 6.0)


def _counting(problem):
    """problem with every exact root solve recorded, and the record."""
    solves = []
    solve = problem.inner.exact_root

    def counted(y):
        solves.append(np.array(y))
        return solve(y)

    return replace(problem, inner=replace(problem.inner, exact_root=counted)), solves


@pytest.fixture
def counting_logistic(logistic_quadratic):
    """The logistic fixture with every exact root solve recorded."""
    return _counting(logistic_quadratic)


# Every at-root analysis, called on a context; estimators, families and
# preconditioners are built from ``ctx.problem``, the caller's problem, which
# keeps the root the context solved.
AT_ROOT = {
    "efficiency_constant": lambda ctx: hg.efficiency_constant(ctx, "opt"),
    "estimator_jacobian_fd": lambda ctx: hg.estimator_jacobian_fd(ctx, "opt"),
    "sensitivity_jacobian": lambda ctx: hg.sensitivity_jacobian(ctx, "opt"),
    "sensitivity_jacobian_fd": lambda ctx: hg.sensitivity_jacobian_fd(ctx, "opt"),
    "sensitivity_efficiency_constant":
        lambda ctx: hg.sensitivity_efficiency_constant(ctx, "opt"),
    "outer_curvature": hg.outer_curvature,
    "precond_error_factor_at_root": lambda ctx: hg.precond_error_factor_at_root(
        ctx, hg.newton_preconditioner(ctx.problem)),
    "root_jacobian": lambda ctx: hg.root_jacobian(
        ctx, hg.newton_preconditioner(ctx.problem)),
    "super_efficiency_residual_1d": lambda ctx: hg.super_efficiency_residual_1d(
        ctx, hg.exp_family_reparam_1d(1.0, 1.0)),
}


class TestRootContext:
    def test_stored_root_answers_its_y_only(self, counting_logistic):
        problem, solves = counting_logistic
        y = _logistic_y(problem, 3)
        given_y = y.copy()
        ctx = hg.RootContext.solve(problem, given_y)
        given_y[0] += 1.0        # the context keeps its own copy
        assert len(solves) == 1
        assert ctx.problem is problem
        assert np.array_equal(ctx.problem.exact_root(y), ctx.xstar)
        assert np.array_equal(hg.exact_root(ctx.problem, y), problem.exact_root(y))
        assert len(solves) == 1  # the caller's problem kept the root

        other = y * (1.0 + 1e-6)
        got = ctx.problem.exact_root(other)
        assert len(solves) == 2
        assert np.array_equal(got, problem.exact_root(other))
        assert not np.array_equal(got, ctx.xstar)

    def test_returned_arrays_cannot_change_later_calls(self, ridge_quadratic):
        y = seeded_y(ridge_quadratic, 4)
        ctx = hg.RootContext.solve(ridge_quadratic, y)
        root = ctx.problem.exact_root(y)
        root[:] = 0.0
        assert np.array_equal(ctx.problem.exact_root(y),
                              ridge_quadratic.exact_root(y))
        for stored in (ctx.y, ctx.xstar):
            with pytest.raises(ValueError):
                stored[0] = 1.0

        precond = hg.diag_preconditioner(ridge_quadratic)
        bounds = hg.compare_bounds(ctx, precond, "exp")
        v_p = bounds.v_p.copy()
        bounds.v_p[:] = 0.0
        # root_jacobian hands out a copy of the Jacobian the context keeps.
        hg.root_jacobian(ctx, precond)[:] = 0.0
        again = hg.compare_bounds(ctx, precond, "exp")
        assert np.array_equal(again.v_p, v_p)
        assert again.rhs_phi_minus_p == bounds.rhs_phi_minus_p
        for stored in _kept_arrays(vars(ctx)):
            with pytest.raises(ValueError):
                stored.flat[0] = 1.0


FIVE_FIXTURES = ("ridge_quadratic", "ridge_affine", "logistic_quadratic",
                 "scalar_fixture", "linear1d_fixture")


def _fixture_y(request, fixture, seed):
    problem = request.getfixturevalue(fixture)
    return problem, (_logistic_y(problem, seed) if fixture.startswith("logistic")
                     else seeded_y(problem, seed))


def _kept_arrays(value):
    """Every array a context keeps, through its tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _kept_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _kept_arrays(item)


class TestKeptRootBlocks:
    """A context computes each strategy-independent root block once; what it
    keeps is what a fresh context computes, and read-only."""

    @pytest.mark.parametrize("fixture", FIVE_FIXTURES)
    def test_shared_context_equals_fresh_contexts(self, request, fixture):
        problem, y = _fixture_y(request, fixture, 17)
        shared = hg.RootContext.solve(problem, y)
        precond = hg.diag_preconditioner(problem)

        def fresh():
            return hg.RootContext.solve(problem, y)

        for key in hg.STRATEGIES:
            assert_same_bits(hg.root_jacobian(shared, key),
                             hg.root_jacobian(fresh(), key))
            assert_same_bits(hg.sensitivity_jacobian(shared, key),
                             hg.sensitivity_jacobian(fresh(), key))
        for key in ("diag-rep", "opt"):
            assert hg.reparam_gap(shared, precond, key) \
                == hg.reparam_gap(fresh(), precond, key), key
        # A second read returns what the first kept.
        for key in hg.STRATEGIES:
            assert_same_bits(hg.root_jacobian(shared, key),
                             hg.root_jacobian(fresh(), key))

    def test_kept_arrays_are_read_only(self, logistic_quadratic):
        ctx = hg.RootContext.solve(logistic_quadratic,
                                   _logistic_y(logistic_quadratic, 3))
        before = {key: hg.root_jacobian(ctx, key) for key in hg.STRATEGIES}
        hg.sensitivity_jacobian(ctx, "diag-rep")
        for key in hg.STRATEGIES:
            hg.efficiency_constant(ctx, key)
        kept = list(_kept_arrays(vars(ctx)))
        # y, x*, S, D, g_1, u, the g_1 term, czz, czy, W for exp and diag-rep,
        # and each kind's Jacobian and top singular vector.
        assert len(kept) == 7 + 2 * 3 + 2 * len(hg.STRATEGIES)
        for array in kept:
            with pytest.raises(ValueError):
                array.flat[0] = 1.0
        with pytest.raises(ValueError):
            hg.outer_curvature(ctx)[0, 0] = 1.0
        for key in hg.STRATEGIES:
            assert_same_bits(hg.root_jacobian(ctx, key), before[key])

    def test_one_svd_of_j_p_per_context(self, logistic_quadratic, monkeypatch):
        # c_y and the three comparison functions read the top pair of J_P
        # that the context keeps, whoever asks first.
        problem = logistic_quadratic
        ctx = hg.RootContext.solve(problem, _logistic_y(problem, 3))
        precond = hg.scaled_preconditioner(hg.newton_preconditioner(problem), 1.5)
        jac_p = hg.root_jacobian(ctx, precond)
        svds = []
        top_singular = hg.linalg.top_singular

        def counted(m):
            svds.append(np.array(m))
            return top_singular(m)
        monkeypatch.setattr(hg.linalg, "top_singular", counted)
        monkeypatch.setattr(hg.efficiency, "top_singular", counted)
        sigma_p = hg.efficiency_constant(ctx, precond)
        hg.compare_bounds(ctx, precond, "opt")
        hg.precond_gap(ctx, precond, "opt")
        hg.reparam_gap(ctx, precond, "opt")
        assert sum(np.array_equal(m, jac_p) for m in svds) == 1
        assert sigma_p == top_singular(jac_p)[0]

    def test_an_opt_compare_trial_takes_no_svd_of_a_zero_matrix(
            self, logistic_quadratic, monkeypatch):
        # The opt key's Jacobian of S is zero, so its sigma is 0.0 with no
        # SVD: a trial takes those of J_P, J_opt and P - F_1 only.
        problem = logistic_quadratic
        precond = hg.scaled_preconditioner(hg.newton_preconditioner(problem), 1.5)
        svds = []
        top_singular = hg.linalg.top_singular

        def counted(m):
            svds.append(np.array(m))
            return top_singular(m)
        monkeypatch.setattr(hg.linalg, "top_singular", counted)
        monkeypatch.setattr(hg.efficiency, "top_singular", counted)
        ctx = hg.RootContext.solve(problem, _logistic_y(problem, 4))
        hg.compare_bounds(ctx, precond, "opt")
        hg.precond_gap(ctx, precond, "opt")
        sigma, _ = hg.reparam_gap(ctx, precond, "opt")
        assert_same_bits(sigma, 0.0)
        assert len(svds) == 3 and all(m.any() for m in svds), \
            [m.shape for m in svds]

    def test_precond_gap_of_the_newton_p_takes_no_svd(self, monkeypatch):
        # With P = F_1, P - F_1 is exactly zero, so delta is 0.0 with no SVD;
        # J_P's top pair is already kept by the context.
        problem = hg.make_ridge(hg.synthetic_regression_dataset(60, 3, seed=1),
                                hg.synthetic_validation_dataset(60, 3, seed=2),
                                "quadratic")
        precond = hg.newton_preconditioner(problem)
        ctx = hg.RootContext.solve(problem, np.full(3, 0.3))
        hg.efficiency_constant(ctx, precond)
        svds = []
        top_singular = hg.linalg.top_singular

        def counted(m):
            svds.append(np.array(m))
            return top_singular(m)
        monkeypatch.setattr(hg.linalg, "top_singular", counted)
        monkeypatch.setattr(hg.efficiency, "top_singular", counted)
        delta, _ = hg.precond_gap(ctx, precond, "opt")
        assert_same_bits(delta, 0.0)
        assert svds == []


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_context_estimators_equal_plain_ones(ridge_quadratic, logistic_quadratic,
                                             reg_train, reg_val, cls_train, cls_val,
                                             seed):
    """Every strategy built from the context's problem gives the bits of the
    one built from a freshly made problem on the same datasets, off the root
    and off the context's y."""
    for problem, y, fresh in (
            (ridge_quadratic, seeded_y(ridge_quadratic, seed),
             lambda: hg.make_ridge(reg_train, reg_val, "quadratic")),
            (logistic_quadratic, _logistic_y(logistic_quadratic, seed),
             lambda: hg.make_logistic(cls_train, cls_val, "quadratic"))):
        ctx = hg.RootContext.solve(problem, y)
        x = ctx.xstar + hg.sample_y(problem.d_x, -0.1, 0.1, seed + 1)
        other_y = y + hg.sample_y(problem.d_y, -1e-3, 1e-3, seed + 2)
        for key in hg.STRATEGIES:
            shared = hg.make_estimator(ctx.problem, key)
            plain = hg.make_estimator(fresh(), key)
            for yy in (y, other_y):
                assert np.array_equal(shared(x, yy), plain(x, yy)), (key, yy)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_all_strategies_consistent_at_context_root(ridge_quadratic,
                                                   logistic_quadratic, seed):
    """At the stored root every strategy gives the plain implicit gradient.

    Over seeds 0-199 on both fixtures the largest relative gap measured was
    1.8e-14; the tolerance leaves a factor of about 50 above it.
    """
    for problem, y in ((ridge_quadratic, seeded_y(ridge_quadratic, seed)),
                       (logistic_quadratic, _logistic_y(logistic_quadratic, seed))):
        ctx = hg.RootContext.solve(problem, y)
        ref = hg.Strategy(problem).estimate(ctx.xstar, y)
        scale = 1.0 + float(np.max(np.abs(ref)))
        for key in hg.STRATEGIES:
            got = hg.make_estimator(ctx.problem, key)(ctx.xstar, y)
            assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale, key


@pytest.mark.parametrize("fixture", ["ridge_quadratic", "logistic_quadratic"])
@pytest.mark.parametrize("key", SEPARABLE_KEYS)
def test_shared_terms_equal_standalone_calls(request, fixture, key):
    """The terms one context keeps for the three comparison functions give
    the bits of a fresh context for each function alone. For a diagonal and
    a scaled Newton P, the kept top singular value of J_P is root_jacobian's
    norm, and each rhs is |J v|^2 - sigma^2."""
    problem = request.getfixturevalue(fixture)
    y = seeded_y(problem, 21) if fixture.startswith("ridge") \
        else _logistic_y(problem, 21)
    precond = hg.scaled_preconditioner(hg.newton_preconditioner(problem), 1.5)

    def fresh_args(precond=precond):
        ctx = hg.RootContext.solve(problem, y)
        return ctx, precond, resolve_strategy(ctx.problem, key).reparam

    # reparam_gap is defined for the localized (separable) families only.
    localized = key != "exp"
    bounds = hg.compare_bounds(*fresh_args())
    gap_p = hg.precond_gap(*fresh_args())
    gap_r = hg.reparam_gap(*fresh_args()) if localized else None

    args = fresh_args()
    # The context fills its entries in the order they are first read; any
    # order gives the same bits.
    if localized:
        assert hg.reparam_gap(*args) == gap_r
    assert hg.precond_gap(*args) == gap_p
    got = hg.compare_bounds(*args)
    for field in ("lhs_phi_minus_p", "rhs_phi_minus_p", "lhs_p_minus_phi",
                  "rhs_p_minus_phi"):
        assert getattr(got, field) == getattr(bounds, field), field
    assert np.array_equal(got.v_p, bounds.v_p)
    assert np.array_equal(got.v_phi, bounds.v_phi)

    for precond in (hg.diag_preconditioner(problem), precond):
        ctx, _, reparam = args = fresh_args(precond)
        got = hg.compare_bounds(*args)
        v_p, v_phi = got.v_p, got.v_phi
        jac_p, jac_phi = hg.root_jacobian(ctx, precond), hg.root_jacobian(ctx, reparam)
        sigma_p = hg.efficiency_constant(ctx, precond)
        sigma_phi = hg.efficiency_constant(ctx, reparam)
        assert sigma_p == hg.spectral_norm(jac_p)
        tol = RHS_ROUNDING * (sigma_p ** 2 + sigma_phi ** 2)
        assert abs(got.rhs_phi_minus_p - (np.linalg.norm(jac_phi @ v_p) ** 2
                                          - sigma_p ** 2)) <= tol
        assert abs(got.rhs_p_minus_phi - (np.linalg.norm(jac_p @ v_phi) ** 2
                                          - sigma_phi ** 2)) <= tol


class TestRootSolveCounts:
    """Each runner solves the inner root once per y it fixes, and an analysis
    given a context solves none."""

    @pytest.mark.parametrize("name", sorted(AT_ROOT))
    def test_analysis_solves_no_root(self, name, logistic_quadratic,
                                     linear1d_fixture):
        one_dim = name == "super_efficiency_residual_1d"
        problem, solves = _counting(linear1d_fixture if one_dim
                                    else logistic_quadratic)
        ctx = hg.RootContext.solve(problem, seeded_y(problem, 5) if one_dim
                                   else _logistic_y(problem, 5))
        assert len(solves) == 1
        AT_ROOT[name](ctx)
        assert len(solves) == 1, name

    def test_ode1d_solves_once_per_trial(self, linear1d_fixture, monkeypatch,
                                         tmp_path):
        problem, solves = _counting(linear1d_fixture)
        monkeypatch.setattr(cli, "build_problem", lambda config: problem)
        code = cli.cli_main(["ode1d", "--problem", "linear1d", "--trials", "3",
                             "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert len(solves) == 3

    def test_compare_trial_solves_once(self, counting_logistic, monkeypatch,
                                       tmp_path):
        problem, solves = counting_logistic
        monkeypatch.setattr(cli, "build_problem", lambda config: problem)
        reparams = []
        sensitivity = hg.Strategy.sensitivity

        def counted(strategy, x, y):
            reparams.append(strategy.reparam)
            return sensitivity(strategy, x, y)

        monkeypatch.setattr(hg.Strategy, "sensitivity", counted)
        code = cli.cli_main(["compare", "--problem", "logistic", "--reparam", "opt",
                             "--trials", "1", "--y-low", "3", "--y-high", "6",
                             "--seed", "8", "--out", str(tmp_path / "c.csv")])
        assert code == 0
        assert len(solves) == 1
        # The trial's Jacobians of S are closed forms: nothing evaluates S.
        assert reparams == []

    def test_decay_solves_once(self, counting_logistic, monkeypatch):
        problem, solves = counting_logistic
        monkeypatch.setattr(hg.bench, "build_problem", lambda config: problem)
        traces = hg.run_decay(hg.RunConfig(problem="logistic",
                                           strategies=hg.STRATEGIES, steps=8,
                                           y_low=3.0, y_high=6.0, seed=2))
        assert [t.strategy for t in traces] == list(hg.STRATEGIES)
        assert not any(k.startswith("aborted") for t in traces for k in t.metadata)
        assert len(solves) == 1

    def test_efficiency_sweep_solves_once_per_trial(self, counting_logistic,
                                                    monkeypatch):
        problem, solves = counting_logistic
        monkeypatch.setattr(hg.bench, "build_problem", lambda config: problem)
        records = hg.run_efficiency_sweep(hg.RunConfig(
            problem="logistic", strategies=hg.STRATEGIES, trials=2,
            y_low=3.0, y_high=6.0, seed=4))
        assert len(records) == 2 * len(hg.STRATEGIES)
        assert not any(r.error for r in records)
        assert len(solves) == 2

    def test_efficiency_sweep_reads_the_kept_blocks(self, logistic_quadratic,
                                                    monkeypatch):
        # The g_1 term (one djac_x_dir_x call) and D (one hess_xx call) are
        # computed once per context, whichever of the six kinds reads them.
        calls = []

        def counted(oracle, method):
            original = getattr(oracle, method)

            def call(*args):
                calls.append(method)
                return original(*args)
            return replace(oracle, **{method: call})

        problem = replace(logistic_quadratic,
                          inner=counted(logistic_quadratic.inner, "djac_x_dir_x"),
                          outer=counted(logistic_quadratic.outer, "hess_xx"))
        monkeypatch.setattr(hg.bench, "build_problem", lambda config: problem)
        records = hg.run_efficiency_sweep(hg.RunConfig(
            problem="logistic", strategies=hg.STRATEGIES, trials=2,
            y_low=3.0, y_high=6.0, seed=4))
        assert not any(r.error for r in records)
        assert sorted(calls) == ["djac_x_dir_x"] * 2 + ["hess_xx"] * 2
