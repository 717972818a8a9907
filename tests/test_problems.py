"""Oracle contracts: finite-difference validation and shape checking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hygrad as hg
from hygrad.errors import ContractViolation, SingularMatrixError
from hygrad.problems import CallableInnerOracle, fd_step, one_hot_coupling

from conftest import COUPLINGS, assert_same_bits, seeded_y, shift_problem


class TestValidateOracles:
    def test_affine_map_is_exact(self):
        problem = shift_problem(3)
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
        logistic_affine = hg.make_logistic(cls_train, cls_val, "affine")
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

    @pytest.mark.parametrize("method, block, match", [
        ("residual", np.zeros((3, 1)), "residual must be 1-d"),
        ("jac_x", np.zeros(3), "jac_x must be 2-d"),
        ("jac_x", np.zeros((3, 2)), r"jac_x must have shape \(3, 3\)"),
        ("jac_x", np.full((3, 3), np.nan), "jac_x contains non-finite"),
    ])
    def test_problem_checks_its_oracles_blocks(self, method, block, match):
        problem = shift_problem(3)
        broken = replace(problem, inner=replace(problem.inner,
                                                **{method: lambda x, y: block}))
        with pytest.raises(ContractViolation, match=match):
            getattr(broken, method)(np.zeros(3), np.zeros(3))

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
        with pytest.raises(hg.UsageError, match="eps"):
            hg.sensitivity_jacobian_fd(
                hg.RootContext.solve(linear1d_fixture, np.zeros(1)), "vanilla", eps=eps)


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
        analytic = hg.make_ridge(reg_train, reg_val, "quadratic")
        adapter = hg.FDInnerOracle(residual_fn=analytic.inner.residual)
        rng = np.random.default_rng(5)
        x = rng.normal(size=analytic.d_x)
        y = rng.uniform(-1, 1, size=analytic.d_y)
        assert np.allclose(adapter.jac_x(x, y), analytic.jac_x(x, y),
                           atol=1e-6, rtol=1e-6)
        assert np.allclose(adapter.jac_y(x, y), analytic.jac_y(x, y),
                           atol=1e-6, rtol=1e-6)

    def test_directional_derivatives_close(self, scalar_fixture):
        adapter = hg.FDInnerOracle(residual_fn=scalar_fixture.inner.residual)
        x, y, u = np.array([0.4]), np.array([0.2]), np.array([1.0])
        got = adapter.djac_x_dir_y(x, y, u)
        want = scalar_fixture.inner.djac_x_dir_y(x, y, u)
        assert np.allclose(got, want, atol=1e-4)

    def test_no_root_capability(self):
        adapter = hg.FDInnerOracle(residual_fn=lambda x, y: x - y)
        assert adapter.exact_root(np.zeros(2)) is None


# Largest validate_oracles mismatch allowed at a random point. Over seeds
# 0-1499 on the six problems below, x normal and y uniform in [-1, 6), the
# largest was 9.4e-10 (logistic djac_x_dir_x) and the 99.9th percentile 7.1e-10.
ORACLE_FD_MISMATCH = 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_shipped_oracles_match_their_finite_differences(
        seed, scalar_fixture, linear1d_fixture, ridge_quadratic, ridge_affine,
        logistic_quadratic, cls_train, cls_val):
    """Every analytic oracle of the four shipped problems, under both outer
    objectives, matches its central difference at a seeded random point."""
    logistic_affine = hg.make_logistic(cls_train, cls_val, "affine")
    for problem in (scalar_fixture, linear1d_fixture, ridge_quadratic,
                    ridge_affine, logistic_quadratic, logistic_affine):
        rng = hg.rng_from_seed(seed)
        x, y = rng.normal(size=problem.d_x), rng.uniform(-1.0, 6.0, problem.d_y)
        report = hg.validate_oracles(problem, x, y)
        assert max(report.values()) <= ORACLE_FD_MISMATCH, (problem.name, report)


def _fd_directional(fn, at, direction, step):
    """The directional central difference that validate_oracles and
    FDInnerOracle computed before they shared fd_jacobian's loop."""
    hi = at + step * direction
    lo = at - step * direction
    return (np.asarray(fn(hi), float) - np.asarray(fn(lo), float)) / (2 * step)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_directional_differences_keep_their_bits(seed, ridge_quadratic,
                                                 logistic_quadratic):
    """One fd_jacobian column along a direction gives the bits of the
    two-point formula: x + (-h) d rounds exactly like x - h d."""
    rng = np.random.default_rng(seed)
    for problem in (ridge_quadratic, logistic_quadratic):
        x, y = rng.normal(size=problem.d_x), rng.uniform(-1.0, 1.0, problem.d_y)
        u, e = rng.normal(size=problem.d_x), rng.normal(size=problem.d_y)
        step = float(rng.uniform(1e-6, 1e-3))
        adapter = hg.FDInnerOracle(problem.inner.residual)
        assert_same_bits(
            adapter.djac_x_dir_x(x, y, u),
            _fd_directional(lambda xx: adapter.jac_x(xx, y), x, u,
                            fd_step(x, None, 1e-4)))
        assert_same_bits(
            adapter.djac_x_dir_y(x, y, e),
            _fd_directional(lambda yy: adapter.jac_x(x, yy), y, e,
                            fd_step(y, None, 1e-4)))
        # An oracle that returns the old formula's values shows no mismatch
        # at all in validate_oracles, probed in x and in y.
        old = hg.BilevelProblem(inner=CallableInnerOracle(
            residual=problem.inner.residual, jac_x=problem.inner.jac_x,
            jac_y=problem.inner.jac_y,
            djac_x_dir_x=lambda xx, yy, uu: _fd_directional(
                lambda p: problem.jac_x(p, yy), xx, uu, step),
            djac_x_dir_y=lambda xx, yy, ee: _fd_directional(
                lambda q: problem.jac_x(xx, q), yy, ee, step),
        ), outer=problem.outer, d_x=problem.d_x, d_y=problem.d_y)
        report = hg.validate_oracles(old, x, y, step=step)
        assert report["djac_x_dir_x"] == 0.0 and report["djac_x_dir_y"] == 0.0


# --------------------------------------------------------------------------
# the per-point memo

MEMO_PROBLEMS = ("ridge", "logistic", "scalar-ridge", "linear-1d", "fd-ridge")


@pytest.fixture(scope="session")
def fresh_problem(reg_train, reg_val, cls_train, cls_val):
    """Builds a new problem, with an empty memo, of each name in MEMO_PROBLEMS:
    the four shipped problems and a ridge residual differenced by
    FDInnerOracle."""
    def fd_ridge():
        ridge = hg.make_ridge(reg_train, reg_val, "quadratic")
        inner = hg.FDInnerOracle(ridge.inner.residual,
                                 exact_root_fn=ridge.inner.exact_root)
        return hg.BilevelProblem(inner=inner, outer=ridge.outer, d_x=ridge.d_x,
                                 d_y=ridge.d_y, name="fd-ridge")
    builders = {
        "ridge": lambda: hg.make_ridge(reg_train, reg_val, "quadratic"),
        "logistic": lambda: hg.make_logistic(cls_train, cls_val, "quadratic"),
        "scalar-ridge": hg.scalar_ridge,
        "linear-1d": hg.linear_1d,
        "fd-ridge": fd_ridge,
    }
    return lambda name: builders[name]()


def _call(problem, method, x, y):
    if method == "exact_root":
        return problem.exact_root(y)
    if method == "jac_x_factor":
        return problem.jac_x_factor(x, y).solve(np.linspace(1.0, 2.0, problem.d_x))
    return getattr(problem, method)(x, y)


@pytest.mark.parametrize("name", MEMO_PROBLEMS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_results_do_not_depend_on_call_history(name, fresh_problem, data):
    """Any sequence of calls gives, call by call, the bits of a new problem."""
    problem = fresh_problem(name)
    rng = np.random.default_rng(23)
    # Six x and five y, more than the memo holds; 0.0 and -0.0 differ in bits.
    points = [rng.normal(size=problem.d_x) for _ in range(4)]
    points += [np.zeros(problem.d_x), -np.zeros(problem.d_x)]
    ys = [rng.uniform(-1.0, 1.0, problem.d_y) for _ in range(3)]
    ys += [np.zeros(problem.d_y), -np.zeros(problem.d_y)]
    calls = data.draw(st.lists(st.tuples(
        st.integers(0, len(points) - 1), st.integers(0, len(ys) - 1),
        st.sampled_from(["residual", "jac_x", "jac_y", "jac_x_factor",
                         "exact_root"])),
        min_size=1, max_size=20))
    for i, j, method in calls:
        assert_same_bits(_call(problem, method, points[i].copy(), ys[j].copy()),
                         _call(fresh_problem(name), method, points[i], ys[j]))


@pytest.mark.parametrize("name", MEMO_PROBLEMS)
def test_caller_writes_do_not_reach_the_memo(name, fresh_problem):
    problem = fresh_problem(name)
    rng = np.random.default_rng(24)
    x, y = rng.normal(size=problem.d_x), rng.uniform(-1.0, 1.0, problem.d_y)
    kept_x, kept_y = x.copy(), y.copy()
    methods = ("residual", "jac_x", "jac_y", "jac_x_factor", "exact_root")
    before = [_call(problem, m, x, y) for m in methods]
    x[:], y[:] = 1.0, 0.5
    for method, first in zip(methods, before):
        assert_same_bits(_call(problem, method, kept_x, kept_y), first)
        assert_same_bits(_call(problem, method, x, y),
                         _call(fresh_problem(name), method, x, y))


def test_blocks_are_read_only_and_last_five_points_kept():
    handed, solved = [], []

    def residual(x, y):
        handed.append(2.0 * x + y)
        return handed[-1]

    def exact_root(y):
        solved.append(-y)
        return solved[-1]
    inner = CallableInnerOracle(
        residual=residual, jac_x=lambda x, y: 2.0 * np.eye(2),
        jac_y=lambda x, y: np.eye(2),
        djac_x_dir_x=lambda x, y, u: np.zeros((2, 2)),
        djac_x_dir_y=lambda x, y, e: np.zeros((2, 2)), exact_root=exact_root)
    problem = hg.BilevelProblem(inner=inner, outer=shift_problem(2).outer,
                                d_x=2, d_y=2)
    y = np.ones(2)
    points = [np.full(2, float(k)) for k in range(6)]
    first = problem.residual(points[0], y)
    assert not first.flags.writeable and handed[0].flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    for x in points[1:5]:
        problem.residual(x, y)
    assert problem.residual(points[0].copy(), y) is first and len(handed) == 5
    problem.residual(points[5], y)           # evicts points[1]
    problem.residual(points[1], y)
    assert len(handed) == 7

    ys = [np.full(2, float(k)) for k in range(5)]
    root = problem.exact_root(ys[0])
    assert root.flags.writeable and solved[0].flags.writeable
    root[:] = 7.0
    again = problem.exact_root(ys[0])
    assert np.array_equal(again, -ys[0]) and again is not root
    for other in ys[1:4]:
        problem.exact_root(other)
    problem.exact_root(ys[0])
    assert len(solved) == 4
    problem.exact_root(ys[4])                # evicts ys[1]
    problem.exact_root(ys[1])
    assert len(solved) == 6


@pytest.mark.parametrize("method", ["jac_x_factor", "jac_x_diagonal"])
def test_one_factorization_per_point(method):
    problem = hg.scalar_ridge()
    x, y = np.array([0.3]), np.array([0.2])
    kept = getattr(problem, method)(x, y)
    assert getattr(problem, method)(x, y) is kept
    with pytest.raises(ContractViolation, match="the matrix has 1 rows"):
        kept.solve(np.ones(2))


@pytest.mark.parametrize("method, what", [
    ("jac_x_factor", "F_1"), ("jac_x_diagonal", "diag(F_1)")])
def test_singular_f1_raises_on_every_call(method, what):
    shift = shift_problem(2)
    problem = replace(shift, inner=replace(
        shift.inner, jac_x=lambda x, y: np.diag([1.0, 0.0])))
    x, y = np.zeros(2), np.ones(2)
    for _ in range(3):
        with pytest.raises(SingularMatrixError) as err:
            getattr(problem, method)(x, y)
        assert err.value.what == what
        assert str(err.value).startswith(f"{what} is singular")


# --------------------------------------------------------------------------
# the y-coupling contractions

def _coupling_args(method, v):
    return () if method == "djac_x_y_diag" else (v,)


@pytest.mark.parametrize("name", ("ridge", "logistic", "scalar-ridge", "linear-1d"))
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_closed_form_couplings_equal_the_one_hot_loop(name, fresh_problem, seed):
    """Every shipped problem's closed-form contraction equals the loop over
    djac_x_dir_y along each one-hot y-direction, at random points and
    vectors with some exact zeros."""
    problem = fresh_problem(name)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.d_x) * 10.0 ** rng.uniform(-3, 3)
    y = rng.uniform(-5.0, 5.0, problem.d_y)
    v = rng.normal(size=problem.d_x) * 10.0 ** rng.uniform(-3, 3)
    v[rng.random(problem.d_x) < 0.3] = 0.0
    for method in COUPLINGS:
        assert getattr(problem.inner, method) is not None
        got = getattr(problem, method)(x, y, *_coupling_args(method, v))
        want = one_hot_coupling(problem.inner, method, x, y, problem.d_y,
                                *_coupling_args(method, v))
        assert got.shape == (problem.d_x, problem.d_y)
        assert np.array_equal(got, want), method


def test_validation_flags_a_stale_closed_form(ridge_quadratic, fresh_problem):
    """Swapping djac_x_dir_y alone leaves the closed forms behind, and
    validate_oracles names all three; an oracle without closed forms gets
    the one-hot loop, which matches itself."""
    rng = np.random.default_rng(25)
    x = rng.normal(size=ridge_quadratic.d_x)
    y = rng.uniform(-1.0, 1.0, ridge_quadratic.d_y)
    inner = ridge_quadratic.inner
    stale = replace(ridge_quadratic, inner=replace(
        inner, djac_x_dir_y=lambda xx, yy, e: 2.0 * inner.djac_x_dir_y(xx, yy, e)))
    report = hg.validate_oracles(stale, x, y)
    assert all(report[method] >= 0.1 for method in COUPLINGS), report
    fd = fresh_problem("fd-ridge")
    report = hg.validate_oracles(fd, x, y)
    assert all(report[method] == 0.0 for method in COUPLINGS), report
    v = rng.normal(size=fd.d_x)
    for method in COUPLINGS:
        assert_same_bits(getattr(fd, method)(x, y, *_coupling_args(method, v)),
                         one_hot_coupling(fd.inner, method, x, y, fd.d_y,
                                          *_coupling_args(method, v)))
