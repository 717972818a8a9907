"""Shared fixtures: synthetic datasets, problems, and LIBSVM files on disk."""

import numpy as np
import pytest

import hygrad as hg

# Dataset shapes mirror the regression/classification benchmarks: a 392 x 7
# regression set and a 145/200 x 5 binary classification pair.
REGRESSION_SHAPE = (392, 7)
CLASSIFICATION_TRAIN_SHAPE = (145, 5)
CLASSIFICATION_VAL_SHAPE = (200, 5)

REG_SEED = 2024
REG_VAL_SEED = 2025
CLS_TRAIN_SEED = 11
CLS_VAL_SEED = 12

# The inner oracle's optional closed-form y-coupling contractions.
COUPLINGS = ("djac_x_y_apply", "djac_x_y_apply_T", "djac_x_y_diag")


@pytest.fixture(scope="session")
def reg_train():
    return hg.synthetic_regression_dataset(*REGRESSION_SHAPE, seed=REG_SEED)


@pytest.fixture(scope="session")
def reg_val():
    return hg.synthetic_validation_dataset(*REGRESSION_SHAPE, seed=REG_VAL_SEED)


@pytest.fixture(scope="session")
def cls_train():
    return hg.synthetic_classification_dataset(*CLASSIFICATION_TRAIN_SHAPE,
                                               seed=CLS_TRAIN_SEED)


@pytest.fixture(scope="session")
def cls_val():
    return hg.synthetic_classification_dataset(*CLASSIFICATION_VAL_SHAPE,
                                               seed=CLS_VAL_SEED)


@pytest.fixture(scope="session")
def ridge_quadratic(reg_train, reg_val):
    return hg.make_ridge(reg_train, reg_val, "quadratic")


@pytest.fixture(scope="session")
def ridge_affine(reg_train, reg_val):
    return hg.make_ridge(reg_train, reg_val, "affine")


@pytest.fixture(scope="session")
def logistic_quadratic(cls_train, cls_val):
    return hg.make_logistic(cls_train, cls_val, "quadratic")


@pytest.fixture(scope="session")
def scalar_fixture():
    return hg.scalar_ridge()


@pytest.fixture(scope="session")
def linear1d_fixture():
    return hg.linear_1d()


@pytest.fixture(scope="session")
def libsvm_dir(tmp_path_factory, reg_train, reg_val, cls_train, cls_val):
    """Directory with the synthetic datasets serialized as LIBSVM files."""
    root = tmp_path_factory.mktemp("libsvm")
    (root / "reg_train.libsvm").write_text(hg.serialize_libsvm(reg_train))
    (root / "reg_val.libsvm").write_text(hg.serialize_libsvm(reg_val))
    (root / "cls_train.libsvm").write_text(hg.serialize_libsvm(cls_train))
    (root / "cls_val.libsvm").write_text(hg.serialize_libsvm(cls_val))
    return root


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


def shift_problem(d):
    """F(x, y) = x - y with the affine outer objective 1'x: every derivative
    is exact and the root, x* = y, has a constant sensitivity."""
    inner = hg.CallableInnerOracle(
        residual=lambda x, y: x - y,
        jac_x=lambda x, y: np.eye(d),
        jac_y=lambda x, y: -np.eye(d),
        djac_x_dir_x=lambda x, y, u: np.zeros((d, d)),
        djac_x_dir_y=lambda x, y, e: np.zeros((d, d)),
        exact_root=lambda y: y.copy(),
    )
    outer = hg.CallableOuterOracle(
        value=lambda x, y: float(np.sum(x)),
        grad_x=lambda x, y: np.ones(d),
        grad_y=lambda x, y: np.zeros(d),
        hess_xx=lambda x, y: np.zeros((d, d)),
        jac_gradY_x=lambda x, y: np.zeros((d, d)),
        jac_gradX_y=lambda x, y: np.zeros((d, d)),
    )
    return hg.BilevelProblem(inner=inner, outer=outer, d_x=d, d_y=d, name="shift")


def nonsymmetric_problem():
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

    inner = hg.CallableInnerOracle(
        residual=residual,
        jac_x=jac_x,
        jac_y=jac_y,
        djac_x_dir_x=lambda x, y, u: np.array([[b * u[1], b * u[0]], [0.0, 0.0]]),
        djac_x_dir_y=lambda x, y, e: np.diag(np.exp(y) * e) + e[0] * n,
        exact_root=lambda y: hg.newton_root(lambda x: residual(x, y),
                                            lambda x: jac_x(x, y), np.zeros(2)),
    )
    outer = hg.CallableOuterOracle(
        value=lambda x, y: 0.5 * float(np.sum((x - t) ** 2)),
        grad_x=lambda x, y: x - t,
        grad_y=lambda x, y: np.zeros(2),
        hess_xx=lambda x, y: np.eye(2),
        jac_gradY_x=lambda x, y: np.zeros((2, 2)),
        jac_gradX_y=lambda x, y: np.zeros((2, 2)),
    )
    return hg.BilevelProblem(inner=inner, outer=outer, d_x=2, d_y=2, name="nonsym")


def cubic_1d_problem(outer):
    """The 1-D residual F = x + x^3 + e^y x - 1, nonlinear in x, with the
    affine outer objective g = x or the quadratic g = (x - 2)^2 / 2 + 0.3 x y,
    whose g_21 is nonzero. Every derivative is exact; the root, in (0, 1),
    comes from ``newton_root``."""
    def residual(x, y):
        return x + x ** 3 + np.exp(y) * x - 1.0

    def jac_x(x, y):
        return np.array([[1.0 + 3.0 * x[0] ** 2 + np.exp(y[0])]])

    inner = hg.CallableInnerOracle(
        residual=residual,
        jac_x=jac_x,
        jac_y=lambda x, y: np.array([[np.exp(y[0]) * x[0]]]),
        djac_x_dir_x=lambda x, y, u: np.array([[6.0 * x[0] * u[0]]]),
        djac_x_dir_y=lambda x, y, e: np.array([[np.exp(y[0]) * e[0]]]),
        exact_root=lambda y: hg.newton_root(lambda x: residual(x, y),
                                            lambda x: jac_x(x, y), np.zeros(1)),
    )
    if outer == "affine":
        outer = hg.CallableOuterOracle(
            value=lambda x, y: float(x[0]),
            grad_x=lambda x, y: np.ones(1),
            grad_y=lambda x, y: np.zeros(1),
            hess_xx=lambda x, y: np.zeros((1, 1)),
            jac_gradY_x=lambda x, y: np.zeros((1, 1)),
            jac_gradX_y=lambda x, y: np.zeros((1, 1)),
        )
    else:
        outer = hg.CallableOuterOracle(
            value=lambda x, y: float(0.5 * (x[0] - 2.0) ** 2 + 0.3 * x[0] * y[0]),
            grad_x=lambda x, y: np.array([x[0] - 2.0 + 0.3 * y[0]]),
            grad_y=lambda x, y: np.array([0.3 * x[0]]),
            hess_xx=lambda x, y: np.ones((1, 1)),
            jac_gradY_x=lambda x, y: np.full((1, 1), 0.3),
            jac_gradX_y=lambda x, y: np.full((1, 1), 0.3),
        )
    return hg.BilevelProblem(inner=inner, outer=outer, d_x=1, d_y=1, name="cubic-1d")


def seeded_y(problem, seed, low=-1.0, high=1.0):
    return hg.sample_y(problem.d_y, low, high, seed)


def comparison_args(problem, precond, reparam, y):
    """The comparison functions' (ctx, precond, reparam), ctx a fresh
    context: the root of problem at y, solved once."""
    return hg.RootContext.solve(problem, y), precond, reparam


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


def rel_err(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale
