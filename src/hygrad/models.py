"""Concrete problems: ridge and logistic hyperparameter tuning, 1-D fixtures.

All four share the paper's hyperparameter form, written by one builder, with
one weight per coefficient (d_y = d_x) and an outer objective of x alone:

    F(x, y) = grad f(x) + exp(y) * x, where grad f(x) is
        ridge         2 A_tr'(A_tr x - b_tr)
        logistic      -A_tr'(b * sigmoid(-b * A_tr x))
        scalar-ridge  x - 1,  linear-1d  -1

The module also holds the LIBSVM text-format reader/writer, the seeded
uniform sampler for y, and synthetic dataset generators used by the
benchmarks and tests (input files are local; nothing is downloaded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, DataError, ParseError, UsageError
from .linalg import linear_solve
from .problems import BilevelProblem, CallableInnerOracle, CallableOuterOracle
from .seeding import PRNG_NAME, rng_from_seed
from .solvers import newton_root

Array = np.ndarray


# --------------------------------------------------------------------------
# numerically stable logistic pieces

def stable_sigmoid(t: Array) -> Array:
    """Logistic sigmoid without overflow; exp is only taken of negatives."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def softplus(t: Array) -> Array:
    """log(1 + exp(t)) evaluated as max(t, 0) + log1p(exp(-|t|))."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _dsigmoid(t: Array) -> Array:
    s = stable_sigmoid(t)
    return s * stable_sigmoid(-t)


# --------------------------------------------------------------------------
# datasets

@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with one label per row. Immutable after creation."""

    features: Array
    labels: Array

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or labs.ndim != 1 or feats.shape[0] != labs.shape[0]:
            raise DataError(
                f"features {feats.shape} and labels {labs.shape} are inconsistent")
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError("dataset needs at least one row and one feature")
        if not (np.isfinite(feats).all() and np.isfinite(labs).all()):
            raise DataError("dataset contains non-finite values")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]


def parse_libsvm(text: str | bytes, dims: int | None = None) -> Dataset:
    """Parse LIBSVM sparse text into a dense Dataset.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices; ``#`` starts a comment. The feature count is the
    largest index seen unless ``dims`` overrides it (needed to read back
    data whose trailing columns are all zero, which LIBSVM omits).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"not valid UTF-8: {err}") from None
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"label {tokens[0]!r} is not numeric", line=lineno)
        entries: dict[int, float] = {}
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not _:
                raise ParseError(f"expected idx:val, got {tok!r}", line=lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"non-numeric token {tok!r}", line=lineno)
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", line=lineno)
            if idx <= prev:
                raise ParseError(
                    f"index {idx} does not increase (previous {prev})", line=lineno)
            prev = idx
            entries[idx] = val
        labels.append(label)
        rows.append(entries)
        max_index = max(max_index, prev)
    if not rows:
        raise ParseError("empty file: no data lines")
    d_x = dims if dims is not None else max_index
    if d_x < 1:
        raise ParseError("no feature indices found and no dims override given")
    if max_index > d_x:
        raise ParseError(f"index {max_index} exceeds dims override {d_x}")
    feats = np.zeros((len(rows), d_x))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            feats[i, idx - 1] = val
    return Dataset(feats, np.asarray(labels))


def serialize_libsvm(dataset: Dataset) -> str:
    """Write a Dataset in LIBSVM text form; floats keep 17 significant digits."""
    lines = []
    for i in range(dataset.n):
        parts = [f"{dataset.labels[i]:.17g}"]
        row = dataset.features[i]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{row[j]:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_libsvm(path: str) -> Dataset:
    with open(path, "rb") as fh:
        return parse_libsvm(fh.read())


# --------------------------------------------------------------------------
# outer objectives

# Outer objective tags, as OuterVariant, RunConfig and the CLI accept them.
OUTER_VARIANTS = ("quadratic", "affine")


@dataclass(frozen=True)
class OuterVariant:
    """Outer objective choice: validation loss, or an affine functional of x.

    The affine form has zero second derivatives, which is the regime where
    inner-only super-efficiency transfers to the full estimate.
    """

    tag: str
    a: Optional[Array] = None

    def __post_init__(self):
        if self.tag not in OUTER_VARIANTS:
            raise UsageError(f"unknown outer variant {self.tag!r}")

    @staticmethod
    def quadratic() -> "OuterVariant":
        return OuterVariant("quadratic")

    @staticmethod
    def affine(a: Optional[Array] = None) -> "OuterVariant":
        return OuterVariant("affine", a=None if a is None else np.asarray(a, float))


def _outer_of_x(d: int, value, grad_x, hess_xx) -> CallableOuterOracle:
    """Outer oracle of an objective that depends on x alone: its y-blocks are zero."""
    def zero_block(x, y):
        return np.zeros((d, d))
    return CallableOuterOracle(
        value=value, grad_x=grad_x, grad_y=lambda x, y: np.zeros(d),
        hess_xx=hess_xx, jac_gradY_x=zero_block, jac_gradX_y=zero_block)


def _make_outer(outer: OuterVariant, train: Dataset, val: Dataset) -> CallableOuterOracle:
    """Validation loss |A_val x - b_val|^2 or affine a'x; hands out read-only arrays."""
    d = train.d_x
    if outer.tag == "quadratic":
        if val.d_x != d:
            raise ContractViolation(f"train has {d} features, validation has {val.d_x}")
        a_val, b_val = val.features, val.labels
        hess = 2.0 * a_val.T @ a_val
        hess.setflags(write=False)
        return _outer_of_x(d, lambda x, y: float(np.sum((a_val @ x - b_val) ** 2)),
                           lambda x, y: 2.0 * a_val.T @ (a_val @ x - b_val),
                           lambda x, y: hess)
    a = np.ones(d) if outer.a is None else np.array(outer.a, dtype=float)
    if a.shape != (d,):
        raise ContractViolation(f"affine outer vector has shape {a.shape}, need ({d},)")
    a.setflags(write=False)
    return _outer_of_x(d, lambda x, y: float(a @ x), lambda x, y: a,
                       lambda x, y: np.zeros((d, d)))


# --------------------------------------------------------------------------
# the shipped problems: one penalized form, four data terms

def _penalized_problem(name: str, d: int, outer: CallableOuterOracle, data_grad,
                       data_hess, data_dhess, exact_root) -> BilevelProblem:
    """F(x, y) = data_grad(x) + exp(y) * x, d_x = d_y = d; data_hess(x) and
    data_dhess(x, u) give the data term's Hessian and its derivative along u,
    and exact_root(y, f, jac) gets F(., y) and its x-Jacobian as maps of x."""
    def residual(x, y):
        return data_grad(x) + np.exp(y) * x

    def jac_x(x, y):
        return data_hess(x) + np.diag(np.exp(y))

    return BilevelProblem(inner=CallableInnerOracle(
        residual=residual,
        jac_x=jac_x,
        jac_y=lambda x, y: np.diag(np.exp(y) * x),
        djac_x_dir_x=lambda x, y, u: data_dhess(x, u),
        djac_x_dir_y=lambda x, y, e: np.diag(np.exp(y) * e),
        exact_root=lambda y: exact_root(
            y, lambda x: residual(x, y), lambda x: jac_x(x, y)),
    ), outer=outer, d_x=d, d_y=d, name=name)


def make_ridge(train: Dataset, val: Dataset, outer: OuterVariant) -> BilevelProblem:
    """Feature-wise exponentially penalized least squares.

    The inner residual is affine in x with a symmetric positive definite
    Jacobian 2 A'A + diag(exp(y)), so the exact root is a direct solve.
    """
    d = train.d_x
    gram2 = 2.0 * train.features.T @ train.features
    rhs2 = 2.0 * train.features.T @ train.labels
    return _penalized_problem(
        "ridge", d, _make_outer(outer, train, val),
        data_grad=lambda x: gram2 @ x - rhs2,
        data_hess=lambda x: gram2,
        data_dhess=lambda x, u: np.zeros((d, d)),
        exact_root=lambda y, f, jac: linear_solve(
            gram2 + np.diag(np.exp(y)), rhs2, what="F_1"))


def logistic_inner_value(train: Dataset, x: Array, y: Array) -> float:
    """Inner objective whose x-gradient is the logistic residual (for checks)."""
    margins = -train.labels * (train.features @ x)
    return float(np.sum(softplus(margins)) + 0.5 * np.sum(np.exp(y) * x * x))


def make_logistic(train: Dataset, val: Dataset, outer: OuterVariant) -> BilevelProblem:
    """Penalized logistic regression with labels in {-1, +1}.

    All sigmoid terms go through the overflow-safe forms; the exact root
    runs damped Newton to a 1e-13 relative residual.
    """
    labels = train.labels
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise DataError("classification labels must be -1 or +1")
    d = train.d_x
    a_tr = train.features

    def margins(x):
        return -labels * (a_tr @ x)

    def data_hess(x):
        w = _dsigmoid(margins(x))        # labels squared is 1
        return a_tr.T @ (w[:, None] * a_tr)

    def data_dhess(x, u):
        m = margins(x)
        s = stable_sigmoid(m)
        ddsig = _dsigmoid(m) * (1.0 - 2.0 * s)
        w = ddsig * (-labels * (a_tr @ u))
        return a_tr.T @ (w[:, None] * a_tr)

    return _penalized_problem(
        "logistic", d, _make_outer(outer, train, val),
        data_grad=lambda x: -a_tr.T @ (labels * stable_sigmoid(margins(x))),
        data_hess=data_hess,
        data_dhess=data_dhess,
        exact_root=lambda y, f, jac: newton_root(f, jac, np.zeros(d)))


def scalar_ridge() -> BilevelProblem:
    """d = 1 fixture: F(x, y) = (x - 1) + exp(y) x, g = x^2 / 2.

    Root x*(y) = 1 / (1 + e^y); at y = 0 the hypergradient is -1/8.
    """
    outer = _outer_of_x(1, lambda x, y: 0.5 * float(x[0] ** 2),
                        lambda x, y: np.array([x[0]]), lambda x, y: np.ones((1, 1)))
    return _penalized_problem(
        "scalar-ridge", 1, outer,
        data_grad=lambda x: x - 1.0,
        data_hess=lambda x: np.ones((1, 1)),
        data_dhess=lambda x, u: np.zeros((1, 1)),
        exact_root=lambda y, f, jac: np.array([1.0 / (1.0 + np.exp(y[0]))]))


def linear_1d() -> BilevelProblem:
    """d = 1 fixture with affine outer: F(x, y) = exp(y) x - 1, g = x.

    Root x*(y) = exp(-y); the hypergradient is -exp(-y) and the estimation
    map has unit efficiency constant at every y.
    """
    outer = _outer_of_x(1, lambda x, y: float(x[0]), lambda x, y: np.ones(1),
                        lambda x, y: np.zeros((1, 1)))
    return _penalized_problem(
        "linear-1d", 1, outer,
        data_grad=lambda x: np.full(1, -1.0),
        data_hess=lambda x: np.zeros((1, 1)),
        data_dhess=lambda x, u: np.zeros((1, 1)),
        exact_root=lambda y, f, jac: np.array([np.exp(-y[0])]))


# --------------------------------------------------------------------------
# sampling and synthetic data

def sample_y(d_y: int, low: float, high: float, seed: int) -> Array:
    """Seeded uniform draw in [low, high); identical seed gives identical bits."""
    if d_y < 1:
        raise UsageError("d_y must be at least 1")
    if not (low < high and np.isfinite([low, high, high - low]).all()):
        raise UsageError(f"need a finite range low < high, got [{low}, {high})")
    return rng_from_seed(seed).uniform(low, high, d_y)


def synthetic_regression_dataset(n: int, d_x: int, seed: int) -> Dataset:
    """Regression data with columns scaled so the Gram matrix stays O(1)."""
    rng = rng_from_seed(seed)
    feats = rng.normal(size=(n, d_x)) / np.sqrt(n)
    w = rng.normal(size=d_x)
    labels = feats @ w + 0.1 * rng.normal(size=n)
    return Dataset(feats, labels)


def synthetic_validation_dataset(n: int, d_x: int, seed: int) -> Dataset:
    """Validation data drawn with i.i.d. standard normal entries."""
    rng = rng_from_seed(seed)
    return Dataset(rng.normal(size=(n, d_x)), rng.normal(size=n))


def synthetic_classification_dataset(n: int, d_x: int, seed: int) -> Dataset:
    """Linearly separable-ish labels in {-1, +1} from a random hyperplane."""
    rng = rng_from_seed(seed)
    feats = rng.normal(size=(n, d_x))
    w = rng.normal(size=d_x)
    score = feats @ w + 0.5 * rng.normal(size=n)
    labels = np.where(score >= 0, 1.0, -1.0)
    return Dataset(feats, labels)
