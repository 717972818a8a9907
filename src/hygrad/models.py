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

import numpy as np

from .errors import ContractViolation, DataError, ParseError, UsageError
from .linalg import linear_solve
from .problems import (BilevelProblem, CallableInnerOracle, CallableOuterOracle,
                       _read_only)
from .seeding import PRNG_NAME, _pcg64_uniform, rng_from_seed
from .solvers import newton_root

Array = np.ndarray


# --------------------------------------------------------------------------
# numerically stable logistic pieces

def _sigmoid_pair(t: Array) -> tuple[Array, Array]:
    """(sigmoid(t), sigmoid(-t)) from one exp(-|t|), which cannot overflow.

    Bit for bit the two-branch forms 1/(1 + exp(-t)) for t >= 0 and
    exp(t)/(1 + exp(t)) for t < 0; at t = +-0 both halves are 0.5. The
    branch is a select without np.where: as 0 <= exp(-|t|) <= 1, the
    numerator max(exp(-|t|), [t >= 0]) is 1 where t >= 0 and exp(-|t|)
    elsewhere, so each half is the same division of the same operands as
    the two-branch form.
    """
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    denom = 1.0 + e
    pos = t >= 0
    return np.maximum(e, pos) / denom, np.maximum(e, ~pos) / denom


def stable_sigmoid(t: Array) -> Array:
    """Logistic sigmoid without overflow: one exp(-|t|), no masked gathers."""
    return _sigmoid_pair(t)[0]


def softplus(t: Array) -> Array:
    """log(1 + exp(t)) evaluated as max(t, 0) + log1p(exp(-|t|))."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


# --------------------------------------------------------------------------
# datasets

@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with one label per row. Immutable after creation."""

    features: Array
    labels: Array

    def __post_init__(self):
        feats, labs = _read_only(self.features), _read_only(self.labels)
        if feats.ndim != 2 or labs.ndim != 1 or feats.shape[0] != labs.shape[0]:
            raise DataError(
                f"features {feats.shape} and labels {labs.shape} are inconsistent")
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError("dataset needs at least one row and one feature")
        if not (np.isfinite(feats).all() and np.isfinite(labs).all()):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]


def _handed_over(features: Array, labels: Array) -> Dataset:
    """Dataset of float arrays that this module just built and no caller
    holds: marked read-only first, so the Dataset keeps them uncopied."""
    features.setflags(write=False)
    labels.setflags(write=False)
    return Dataset(features, labels)


def parse_libsvm(text: str | bytes) -> Dataset:
    """Parse LIBSVM sparse text, a str or UTF-8 bytes, into a dense Dataset.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices; ``#`` starts a comment. The feature count is the
    largest index seen; ``bench.build_problem`` pads a narrower val or train.

    Regular comment-free ASCII text takes a blocked path (``_parse_regular``)
    that holds at its peak the input, the output and one block; other text,
    and every error, goes to the line parser, which decodes bytes as UTF-8.
    """
    parsed = _parse_regular(text)
    if parsed is not None:
        return parsed
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"not valid UTF-8: {err}") from None
    return _parse_lines(text)


def _parse_lines(text: str) -> Dataset:
    """The line-by-line parser: the reference for ``_parse_regular``, and
    the source of every ParseError and its line number."""
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
    if max_index < 1:
        raise ParseError("no feature indices found")
    feats = _zero_features(len(rows), max_index)
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            feats[i, idx - 1] = val
    return _handed_over(feats, np.array(labels))


def _zero_features(n: int, d_x: int) -> Array:
    """The zero n x d_x feature matrix both parsers fill; DataError when
    numpy cannot allocate it, as when one huge index sets the width."""
    try:
        return np.zeros((n, d_x))
    except (ValueError, MemoryError) as err:
        raise DataError(f"cannot allocate a {n} x {d_x} feature matrix: {err}") from None


# The vectorized parser reads the text in blocks of about this many
# characters, so that only one block's tokens are alive at a time.
_BLOCK_CHARS = 1 << 16

# Byte classes of the vectorized parser: an ASCII digit maps to its value,
# and every byte below 0x20 other than tab, LF and CR to _CONTROL, because
# str.split and str.splitlines treat some of them (\x0b, \x0c, \x1c-\x1f)
# as separators. The parser declines a block that holds _CONTROL.
_TOKEN, _COLON, _BLANK, _NEWLINE, _CONTROL = range(10, 15)
_BYTE_CLASS = bytes(
    c - 0x30 if 0x30 <= c <= 0x39 else _COLON if c == 0x3A
    else _BLANK if c in b" \t" else _NEWLINE if c in b"\n\r"
    else _CONTROL if c < 0x20 else _TOKEN
    for c in range(256))
_MAX_INDEX_DIGITS = 18      # 10**18 - 1 fits in int64


def _parse_regular(text: str | bytes) -> Dataset | None:
    """``_parse_lines(text)`` bit for bit on regular text, else None.

    Regular text is ASCII without ``#`` and without control characters
    other than tab, LF and CR; each of its lines is blank or reads
    ``label idx:val ...`` with ASCII-digit indices that are 1-based and
    strictly increase, and with finite numbers that ``float`` reads. The
    same ``float`` reads every number, so the bits match. On any other text
    this returns None, so that every ParseError comes from the line parser,
    as does the DataError of a width numpy cannot allocate
    (``_zero_features``), which names the true row count. Blocks are
    scattered as read into a matrix of a row per LF or CR, widened to the
    largest index so far; rows left by blank or CRLF lines are cut last.
    """
    lf, cr, mark = (b"\n", b"\r", b"#") if isinstance(text, bytes) else ("\n", "\r", "#")
    if not text.isascii() or mark in text:
        return None
    lines = (text.count(lf) + (text.count(cr) if cr in text else 0)
             + (not text.endswith((lf, cr))))
    try:
        feats, labels, n, start = _zero_features(lines, 0), np.empty(lines), 0, 0
        while start < len(text):
            # Blocks end just after a LF, so no line (and no CRLF) is split;
            # text whose lines all end in a lone CR is one block.
            end = text.find(lf, start + _BLOCK_CHARS - 1) + 1 or len(text)
            block = text[start:end]
            block = _read_block(block if isinstance(block, bytes) else block.encode())
            if block is None:
                return None
            lab, row, col, val = block
            width = int(col.max(initial=0))
            if width > feats.shape[1]:
                feats, narrow = _zero_features(lines, width), feats
                feats[:n, :narrow.shape[1]] = narrow[:n]
            labels[n:n + lab.size] = lab
            feats[row + n, col - 1] = val
            n += lab.size
            start = end
        if n < lines:
            feats, labels = feats[:n].copy(), labels[:n].copy()
        return _handed_over(feats, labels)
    except DataError:       # no row, no feature, or a width numpy cannot allocate
        return None


def _read_block(block: bytes) -> tuple[Array, Array, Array, Array] | None:
    """(labels, row of each pair, indices, values) of a block of whole
    lines of ASCII bytes, or None where the block is not regular text."""
    data = bytearray(b"\n" + block)
    cls = np.frombuffer(data.translate(_BYTE_CLASS), dtype=np.uint8)
    if cls.max() == _CONTROL:
        return None
    # Sub-tokens are split at blanks, newlines and colons. One is a value
    # when a colon precedes it, a label when it is the first after a
    # newline, and an index otherwise.
    sep = cls >= _COLON
    start = np.flatnonzero(sep[:-1] > sep[1:]) + 1
    opens_line = np.zeros(start.size + 1, dtype=bool)
    opens_line[np.searchsorted(start, np.flatnonzero(cls == _NEWLINE))] = True
    opens_line = opens_line[:-1]
    value = cls[start - 1] == _COLON
    label = opens_line & ~value
    index = ~opens_line & ~value
    # Every index is followed by its value across one colon, glued on both
    # sides.
    colon = start[value] - 1
    if (index[-1:].any() or not np.array_equal(value[1:], index[:-1])
            or sep[colon - 1].any()):
        return None
    # Read the indices digit by digit, and blank them and their colons in
    # data, so that one split of data yields the labels and values in order.
    # Any other colon stays in a word that float() rejects.
    chars = np.frombuffer(data, dtype=np.uint8)
    chars[colon] = ord(" ")
    first = start[index]
    width = colon - first
    digits = int(width.max(initial=0))
    if digits > _MAX_INDEX_DIGITS:
        return None
    col = np.zeros(first.size, dtype=np.int64)
    for k in range(digits):
        live = width > k
        at = first[live] + k
        digit = cls[at]
        if (digit > 9).any():
            return None
        col[live] = col[live] * 10 + digit
        chars[at] = ord(" ")
    row = np.cumsum(label)[index] - 1
    repeat = (row[1:] == row[:-1]) & (col[1:] <= col[:-1])
    if (col < 1).any() or repeat.any():
        return None
    words = data.decode("ascii").split()
    try:
        numbers = np.fromiter(map(float, words), dtype=np.float64, count=len(words))
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    is_label = label[~index]
    return numbers[is_label], row, col, numbers[~is_label]


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
    """Read the LIBSVM file at ``path`` as bytes and parse them (``parse_libsvm``)."""
    with open(path, "rb") as fh:
        return parse_libsvm(fh.read())


# --------------------------------------------------------------------------
# outer objectives

# Outer objective tags: the validation loss, or the affine functional 1'x.
# The affine form has zero second derivatives, which is the regime where
# inner-only super-efficiency transfers to the full estimate.
OUTER_VARIANTS = ("quadratic", "affine")


def check_outer(outer: str) -> str:
    """The outer tag itself when it is one of OUTER_VARIANTS, else UsageError."""
    if outer not in OUTER_VARIANTS:
        raise UsageError(f"unknown outer variant {outer!r}")
    return outer


def _outer_of_x(d: int, value, grad_x, hess_xx) -> CallableOuterOracle:
    """Outer oracle of an objective that depends on x alone: its y-blocks are zero."""
    def zero_block(x, y):
        return np.zeros((d, d))
    return CallableOuterOracle(
        value=value, grad_x=grad_x, grad_y=lambda x, y: np.zeros(d),
        hess_xx=hess_xx, jac_gradY_x=zero_block, jac_gradX_y=zero_block)


def _make_outer(outer: str, train: Dataset, val: Dataset) -> CallableOuterOracle:
    """Validation loss |A_val x - b_val|^2 or affine 1'x; hands out read-only arrays."""
    d = train.d_x
    if check_outer(outer) == "quadratic":
        if val.d_x != d:
            raise ContractViolation(f"train has {d} features, validation has {val.d_x}")
        a_val, b_val = val.features, val.labels
        hess = 2.0 * a_val.T @ a_val
        hess.setflags(write=False)
        return _outer_of_x(d, lambda x, y: float(np.sum((a_val @ x - b_val) ** 2)),
                           lambda x, y: 2.0 * a_val.T @ (a_val @ x - b_val),
                           lambda x, y: hess)
    a = np.ones(d)
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

    # dF_1/dy_e = diag(exp(y) * 1_e) is symmetric, so both contractions
    # with a vector v are diag(exp(y) * v).
    def coupling(x, y, v):
        return np.diag(np.exp(y) * v)

    return BilevelProblem(inner=CallableInnerOracle(
        residual=residual,
        jac_x=jac_x,
        jac_y=lambda x, y: np.diag(np.exp(y) * x),
        djac_x_dir_x=lambda x, y, u: data_dhess(x, u),
        djac_x_dir_y=lambda x, y, e: np.diag(np.exp(y) * e),
        exact_root=lambda y: exact_root(
            y, lambda x: residual(x, y), lambda x: jac_x(x, y)),
        djac_x_y_apply=coupling,
        djac_x_y_apply_T=coupling,
        djac_x_y_diag=lambda x, y: np.diag(np.exp(y)),
    ), outer=outer, d_x=d, d_y=d, name=name)


def make_ridge(train: Dataset, val: Dataset, outer: str) -> BilevelProblem:
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


def _column_major(features: Array) -> Array:
    """The features as a read-only column-major matrix: a column-major
    matrix itself, else a column-major copy."""
    a = np.asfortranarray(features)
    a.setflags(write=False)
    return a


def make_logistic(train: Dataset, val: Dataset, outer: str) -> BilevelProblem:
    """Penalized logistic regression with labels in {-1, +1}.

    All sigmoid terms go through the overflow-safe pair, one exp(-|t|) per
    pass. The margins -b * (A x) and the pair (sigmoid, sigmoid(-.)) of them
    are computed once per point and shared by F, F_1 and dF_1[u]: the last
    point's pair is kept, keyed on x's shape and bits, so a point costs one
    matvec and one sigmoid pass however many of them are asked for there.
    Every product with A goes through one read-only, column-major copy of
    the training features (none is made when they already are column-major):
    OpenBLAS runs the products of a tall, narrow A about twice as fast on it
    as on the parser's row-major matrix.
    The exact root runs damped Newton to a 1e-13 relative residual.
    """
    labels = train.labels
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise DataError("classification labels must be -1 or +1")
    d = train.d_x
    a_tr = _column_major(train.features)
    kept = (None, None)                 # the last point's key and pair

    def sigmoid_pair_at(x):
        # kept is read and replaced whole, so a caller on another thread
        # cannot pair one point's key with another point's sigmoids.
        nonlocal kept
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        kept_key, pair = kept
        if kept_key != key:
            pair = _sigmoid_pair(-labels * (a_tr @ x))
            kept = key, pair
        return pair

    def data_grad(x):
        s, _ = sigmoid_pair_at(x)
        return -a_tr.T @ (labels * s)

    def data_hess(x):
        s, s_neg = sigmoid_pair_at(x)
        return a_tr.T @ ((s * s_neg)[:, None] * a_tr)      # labels squared is 1

    def data_dhess(x, u):
        s, s_neg = sigmoid_pair_at(x)
        w = s * s_neg * (1.0 - 2.0 * s) * (-labels * (a_tr @ u))
        return a_tr.T @ (w[:, None] * a_tr)

    return _penalized_problem(
        "logistic", d, _make_outer(outer, train, val),
        data_grad=data_grad,
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
    """Seeded uniform draw in [low, high): the bits of
    ``Generator(PCG64(seed)).uniform(low, high, d_y)``, computed without
    importing ``numpy.random`` (``seeding._pcg64_uniform``)."""
    if d_y < 1:
        raise UsageError("d_y must be at least 1")
    if not (low < high and np.isfinite([low, high, high - low]).all()):
        raise UsageError(f"need a finite range low < high, got [{low}, {high})")
    return np.array(_pcg64_uniform(seed, low, high, d_y))


def synthetic_regression_dataset(n: int, d_x: int, seed: int) -> Dataset:
    """Regression data with columns scaled so the Gram matrix stays O(1)."""
    rng = rng_from_seed(seed)
    feats = rng.normal(size=(n, d_x)) / np.sqrt(n)
    w = rng.normal(size=d_x)
    labels = feats @ w + 0.1 * rng.normal(size=n)
    return _handed_over(feats, labels)


def synthetic_validation_dataset(n: int, d_x: int, seed: int) -> Dataset:
    """Validation data drawn with i.i.d. standard normal entries."""
    rng = rng_from_seed(seed)
    return _handed_over(rng.normal(size=(n, d_x)), rng.normal(size=n))


def synthetic_classification_dataset(n: int, d_x: int, seed: int) -> Dataset:
    """Linearly separable-ish labels in {-1, +1} from a random hyperplane."""
    rng = rng_from_seed(seed)
    feats = rng.normal(size=(n, d_x))
    w = rng.normal(size=d_x)
    score = feats @ w + 0.5 * rng.normal(size=n)
    labels = np.where(score >= 0, 1.0, -1.0)
    return _handed_over(feats, labels)
