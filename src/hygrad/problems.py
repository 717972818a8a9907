"""Bilevel problem contracts: derivative oracles and their validation.

A bilevel problem is a pair of oracles over (x, y) with x the inner variable
(dimension d_x) and y the outer variable (dimension d_y):

- the inner oracle exposes the residual F whose root in x defines the inner
  solution, its Jacobians in x and y, and directional derivatives of the
  x-Jacobian (second-derivative information is consumed only through such
  directional contractions, never as stored third-order tensors);
- the outer oracle exposes the objective value, gradients, and the
  second-derivative blocks the estimators need.

An oracle's results must depend only on its arguments, since problems are
shared freely across concurrent evaluations; an oracle's cache (the logistic
oracle keeps its last point's sigmoids) is replaced whole, never in parts. A
``BilevelProblem``'s memo of recent blocks, outer gradients, F_1 and
diag(F_1) factorizations and roots sits behind ``functools.lru_cache``; two
threads that compute the same block get equal values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import ContractViolation, HygradError, NumericalFailure, UsageError
from .linalg import Factorization, _check_finite, factor

Array = np.ndarray

# A BilevelProblem keeps the blocks of its last this many points (x, y) and
# the roots of its last this many y. A point may be a stack: five points hold
# one decay block's stack of iterates, newton's and diag's corrected stacks
# and the root, with one to spare.
_MEMO_POINTS = 5
_MEMO_ROOTS = 4


def _read_only(given) -> Array:
    """given as a read-only float array that no write to the caller's arrays
    can reach: copied unless it already is read-only and owns its data, or
    np.asarray made it anew from a non-array."""
    a = np.asarray(given, dtype=float)
    if not a.flags.owndata or (a is given and a.flags.writeable):
        a = a.copy()
    a.setflags(write=False)
    return a


def _vector_shaped(a, dim: int | None, name: str) -> Array:
    """a as a float64 vector, of length dim unless dim is None; its entries
    are not checked."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ContractViolation(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractViolation(f"{name} must have length {dim}, got {v.shape[0]}")
    return v


def as_vector(a, dim: int | None = None, name: str = "vector") -> Array:
    """Validate and return a finite float64 vector, optionally of length dim."""
    return _check_finite(_vector_shaped(a, dim, name), name)


def as_points(a, dim: int | None = None, name: str = "x") -> Array:
    """A point, validated by ``as_vector``, or a stack of m >= 1 points,
    shape (m, dim), one per row, validated likewise."""
    p = np.asarray(a, dtype=float)
    if p.ndim == 2 and p.shape[0] and dim in (None, p.shape[1]):
        return as_vector(p.reshape(-1), None, name).reshape(p.shape)
    return as_vector(p, dim, name)


def per_row(fn: Callable[..., Array], x: Array, *args: Array) -> Array:
    """fn(x, *args) for one point x; for a stack, fn on each row of x and
    the same row of each arg, stacked."""
    return fn(x, *args) if x.ndim == 1 else np.stack([fn(*row) for row in zip(x, *args)])


def _matrix_shaped(a, shape: tuple[int, int] | None, name: str) -> Array:
    """a as a float64 matrix, of the given shape unless it is None; its
    entries are not checked."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-d, got shape {m.shape}")
    if shape is not None and m.shape != shape:
        raise ContractViolation(f"{name} must have shape {shape}, got {m.shape}")
    return m


def as_matrix(a, shape: tuple[int, int] | None = None, name: str = "matrix") -> Array:
    """Validate and return a finite float64 matrix, optionally of given shape."""
    return _check_finite(_matrix_shaped(a, shape, name), name)


class InnerOracle(Protocol):
    """Derivative oracle for the inner residual F(x, y).

    An oracle may also give the y-coupling contractions of g_e = dF_1/dy_e
    in closed form, each a (d_x, d_y) matrix: ``djac_x_y_apply(x, y, s)``
    with columns g_e s, ``djac_x_y_apply_T(x, y, t)`` with columns g_e' t,
    and ``djac_x_y_diag(x, y)`` with columns diag(g_e). ``BilevelProblem``
    uses them when the attribute is present and not None, and otherwise
    contracts ``djac_x_dir_y`` along every one-hot direction.
    """

    def residual(self, x: Array, y: Array) -> Array: ...

    def jac_x(self, x: Array, y: Array) -> Array:
        """Jacobian of F w.r.t. x, shape (d_x, d_x)."""
        ...

    def jac_y(self, x: Array, y: Array) -> Array:
        """Jacobian of F w.r.t. y, shape (d_x, d_y)."""
        ...

    def djac_x_dir_x(self, x: Array, y: Array, u: Array) -> Array:
        """Directional derivative of jac_x along u in x, shape (d_x, d_x)."""
        ...

    def djac_x_dir_y(self, x: Array, y: Array, e: Array) -> Array:
        """Directional derivative of jac_x along e in y, shape (d_x, d_x)."""
        ...

    def exact_root(self, y: Array) -> Optional[Array]:
        """Direct solve of F(., y) = 0 when available, else None."""
        ...


class OuterOracle(Protocol):
    """Derivative oracle for the outer objective g(x, y)."""

    def value(self, x: Array, y: Array) -> float: ...

    def grad_x(self, x: Array, y: Array) -> Array: ...

    def grad_y(self, x: Array, y: Array) -> Array: ...

    def hess_xx(self, x: Array, y: Array) -> Array:
        """Second derivative in x, shape (d_x, d_x); must be symmetric."""
        ...

    def jac_gradY_x(self, x: Array, y: Array) -> Array:
        """x-Jacobian of grad_y, shape (d_y, d_x)."""
        ...

    def jac_gradX_y(self, x: Array, y: Array) -> Array:
        """y-Jacobian of grad_x, shape (d_x, d_y)."""
        ...


def _no_exact_root(y: Array) -> None:
    """The exact_root of an oracle that has no direct solve."""
    return None


@dataclass(frozen=True)
class CallableInnerOracle:
    """Inner oracle assembled from plain callables (fixtures, adapters), each
    stored under the name of the oracle method it implements."""

    residual: Callable[[Array, Array], Array]
    jac_x: Callable[[Array, Array], Array]
    jac_y: Callable[[Array, Array], Array]
    djac_x_dir_x: Callable[[Array, Array, Array], Array]
    djac_x_dir_y: Callable[[Array, Array, Array], Array]
    exact_root: Callable[[Array], Optional[Array]] = _no_exact_root
    djac_x_y_apply: Optional[Callable[[Array, Array, Array], Array]] = None
    djac_x_y_apply_T: Optional[Callable[[Array, Array, Array], Array]] = None
    djac_x_y_diag: Optional[Callable[[Array, Array], Array]] = None


@dataclass(frozen=True)
class CallableOuterOracle:
    """Outer oracle assembled from plain callables, each under its method's name."""

    value: Callable[[Array, Array], float]
    grad_x: Callable[[Array, Array], Array]
    grad_y: Callable[[Array, Array], Array]
    hess_xx: Callable[[Array, Array], Array]
    jac_gradY_x: Callable[[Array, Array], Array]
    jac_gradX_y: Callable[[Array, Array], Array]


@dataclass(frozen=True)
class BilevelProblem:
    """An inner/outer oracle pair with declared dimensions.

    ``residual``, ``jac_x`` and ``jac_y`` validate the inner oracle's block
    and evaluate it once per point among the last 5 points, and
    ``jac_x_factor`` and ``jac_x_diagonal`` check F_1 and diag(F_1) there
    once and keep one factorization of each for every caller's solves;
    ``exact_root`` solves once per y among the last 4 y. The outer oracle's
    gradients g_1 and g_2 are validated and kept per point too, for
    ``Strategy.estimate``: strategies that estimate at one point evaluate
    each once. A point is the shapes and bits of x and y, so -0.0 and 0.0
    are different points. Blocks are handed out read-only, roots as fresh
    copies.

    x may also be a stack of m points, shape (m, d_x): each method then
    calls the per-point oracle once per row, checks each row's shape and
    then the whole stack's entries once, and keeps the stacked blocks and
    factorization as one point, row k with the bits of the call with row k
    alone.

    The three y-coupling contractions (see ``InnerOracle``) call the inner
    oracle's closed form when it has one, else the one-hot loop over
    ``djac_x_dir_y``, once per row of a stack, as ``djac_x_dir_x`` calls
    the oracle once per direction; none of them is kept.
    """

    inner: InnerOracle
    outer: OuterOracle
    d_x: int
    d_y: int
    name: str = ""

    def __post_init__(self):
        if self.d_x < 1 or self.d_y < 1:
            raise ContractViolation("dimensions must be positive")
        # One dict per point, given each block when it is first asked for.
        object.__setattr__(self, "_points",
                           functools.lru_cache(maxsize=_MEMO_POINTS)(lambda point: {}))
        object.__setattr__(self, "_roots",
                           functools.lru_cache(maxsize=_MEMO_ROOTS)(self._solve))

    def _memo(self, x: Array, y: Array) -> tuple[Array, Array, dict]:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return x, y, self._points((x.shape, x.tobytes(), y.shape, y.tobytes()))

    def _block(self, oracle, method: str, x: Array, y: Array, shaped, shape) -> Array:
        x, y, blocks = self._memo(x, y)
        block = blocks.get(method)
        if block is None:
            call = getattr(oracle, method)
            block = blocks[method] = _read_only(_check_finite(
                per_row(lambda p: shaped(call(p, y), shape, method), x), method))
        return block

    def _solve(self, y_shape, y_bits) -> Optional[Array]:
        root = self.inner.exact_root(np.frombuffer(y_bits).reshape(y_shape))
        if root is None:
            return None
        return _read_only(as_vector(root, self.d_x, "exact_root"))

    def residual(self, x: Array, y: Array) -> Array:
        return self._block(self.inner, "residual", x, y, _vector_shaped, self.d_x)

    def jac_x(self, x: Array, y: Array) -> Array:
        return self._block(self.inner, "jac_x", x, y, _matrix_shaped, (self.d_x, self.d_x))

    def jac_y(self, x: Array, y: Array) -> Array:
        return self._block(self.inner, "jac_y", x, y, _matrix_shaped, (self.d_x, self.d_y))

    def _outer_gradient(self, method: str, x: Array, y: Array) -> Array:
        """The outer oracle's g_1 (``method`` "grad_x") or g_2 ("grad_y"),
        validated and kept per point as the inner blocks are."""
        return self._block(self.outer, method, x, y, _vector_shaped,
                           self.d_x if method == "grad_x" else self.d_y)

    def jac_x_factor(self, x: Array, y: Array) -> Factorization:
        """``factor(jac_x(x, y), "F_1")``, checked once per point and kept
        there for every caller. A singular F_1 is not kept: each call checks
        it again and raises SingularMatrixError naming "F_1"."""
        return self._factor("F_1", lambda f1: f1, x, y)

    def jac_x_diagonal(self, x: Array, y: Array) -> Factorization:
        """``factor(diag(F_1), "diag(F_1)")``, checked, kept and not kept
        when singular as by ``jac_x_factor``."""
        return self._factor("diag(F_1)", lambda f1: f1 * np.eye(self.d_x), x, y)

    def _factor(self, what: str, part, x: Array, y: Array) -> Factorization:
        x, y, blocks = self._memo(x, y)
        lu = blocks.get(what)
        if lu is None:
            lu = blocks[what] = factor(part(self.jac_x(x, y)), what)
        return lu

    def djac_x_y_apply(self, x: Array, y: Array, s: Array) -> Array:
        """The (d_x, d_y) matrix whose column e is (dF_1/dy_e) s."""
        return self._coupling("djac_x_y_apply", x, y, s)

    def djac_x_y_apply_T(self, x: Array, y: Array, t: Array) -> Array:
        """The (d_x, d_y) matrix whose column e is (dF_1/dy_e)' t."""
        return self._coupling("djac_x_y_apply_T", x, y, t)

    def djac_x_y_diag(self, x: Array, y: Array) -> Array:
        """The (d_x, d_y) matrix whose column e is diag(dF_1/dy_e)."""
        return self._coupling("djac_x_y_diag", x, y)

    def djac_x_dir_x(self, x: Array, y: Array, u: Array) -> Array:
        """The (d_x, d_x) derivative of F_1 along u in x at the point x, or
        the stack of them along a stack of directions u, one per row."""
        return per_row(lambda v: as_matrix(self.inner.djac_x_dir_x(x, y, v),
                                           (self.d_x, self.d_x), "djac_x_dir_x"),
                       np.asarray(u, dtype=float))

    def _coupling(self, method: str, x: Array, y: Array, *vector: Array) -> Array:
        closed = getattr(self.inner, method, None)
        return per_row(lambda x, *v: as_matrix(
            closed(x, y, *v) if closed is not None
            else one_hot_coupling(self.inner, method, x, y, self.d_y, *v),
            (self.d_x, self.d_y), method), np.asarray(x, dtype=float), *vector)

    def exact_root(self, y: Array) -> Optional[Array]:
        y = np.asarray(y, dtype=float)
        root = self._roots(y.shape, y.tobytes())
        return None if root is None else root.copy()


# Column e of each y-coupling contraction, from g_e = dF_1/dy_e.
_COUPLING_COLUMNS = {
    "djac_x_y_apply": lambda g_e, s: g_e @ s,
    "djac_x_y_apply_T": lambda g_e, t: g_e.T @ t,
    "djac_x_y_diag": lambda g_e: np.diag(g_e),
}


def one_hot_coupling(inner: InnerOracle, method: str, x: Array, y: Array,
                     d_y: int, *vector: Array) -> Array:
    """A y-coupling contraction (``djac_x_y_apply``, ``djac_x_y_apply_T`` or
    ``djac_x_y_diag``) from ``inner.djac_x_dir_y`` along every one-hot
    direction of y: the reference for an oracle's closed form."""
    column = _COUPLING_COLUMNS[method]
    return np.stack([column(inner.djac_x_dir_y(x, y, e), *vector)
                     for e in np.eye(d_y)], axis=1)


def fd_step(at: Array, eps: float | None, rel: float) -> float:
    """A caller's difference step, checked positive and finite, or rel * (1 + |at|)."""
    if eps is None:
        return rel * (1.0 + float(np.linalg.norm(at)))
    if not 0 < eps < np.inf:
        raise UsageError("eps must be positive and finite")
    return eps


def fd_jacobian(fn: Callable[[Array], Array], at: Array, step: float,
                label: str | None = None) -> Array:
    """Central-difference Jacobian of a map, one last-axis column per
    coordinate of ``at`` (a scalar map gives a vector).

    A step too small to move a coordinate raises UsageError. With a
    label, a package error raised by the map is re-raised as a
    NumericalFailure naming the map and the probe coordinate.
    """
    cols = []
    for j in range(at.shape[0]):
        hi, lo = at.copy(), at.copy()
        hi[j] += step
        lo[j] -= step
        if hi[j] == at[j] or lo[j] == at[j]:
            raise UsageError(f"difference step {step!r} does not move coordinate {j} "
                             f"(value {float(at[j])!r})")
        try:
            f_hi = np.asarray(fn(hi), float)
            f_lo = np.asarray(fn(lo), float)
        except HygradError as err:
            if label is None:
                raise
            raise NumericalFailure(
                f"{label} failed at probe coordinate {j}: {err}") from err
        cols.append((f_hi - f_lo) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _rel_mismatch(analytic: Array, approx: Array) -> float:
    analytic = np.asarray(analytic, float)
    approx = np.asarray(approx, float)
    return float(np.max(np.abs(analytic - approx)) / (1.0 + np.max(np.abs(analytic))))


def validate_oracles(problem: BilevelProblem, x: Array, y: Array,
                     step: float = 1e-5) -> dict[str, float]:
    """Cross-check every analytic derivative oracle against central differences.

    Returns, per oracle, the max relative deviation from a finite difference
    of the parent quantity; for the three y-coupling contractions, from the
    one-hot loop over djac_x_dir_y. Shape mismatches raise
    ContractViolation.
    """
    if not 0 < step < np.inf:
        raise ContractViolation("step must be positive and finite")
    x = as_vector(x, problem.d_x, "x")
    y = as_vector(y, problem.d_y, "y")
    inner, outer = problem.inner, problem.outer
    d_x, d_y = problem.d_x, problem.d_y

    report: dict[str, float] = {}
    report["jac_x"] = _rel_mismatch(
        problem.jac_x(x, y),
        fd_jacobian(lambda xx: problem.residual(xx, y), x, step))
    report["jac_y"] = _rel_mismatch(
        problem.jac_y(x, y),
        fd_jacobian(lambda yy: problem.residual(x, yy), y, step))

    directions_x = [np.ones(d_x) / np.sqrt(d_x)] + [np.eye(d_x)[j] for j in range(min(d_x, 2))]
    report["djac_x_dir_x"] = max(
        _rel_mismatch(
            as_matrix(inner.djac_x_dir_x(x, y, u), (d_x, d_x), "djac_x_dir_x"),
            fd_jacobian(lambda t: problem.jac_x(x + t[0] * u, y), np.zeros(1),
                        step)[..., 0])
        for u in directions_x)
    directions_y = [np.ones(d_y) / np.sqrt(d_y)] + [np.eye(d_y)[j] for j in range(min(d_y, 2))]
    report["djac_x_dir_y"] = max(
        _rel_mismatch(
            as_matrix(inner.djac_x_dir_y(x, y, e), (d_x, d_x), "djac_x_dir_y"),
            fd_jacobian(lambda t: problem.jac_x(x, y + t[0] * e), np.zeros(1),
                        step)[..., 0])
        for e in directions_y)
    # A closed form left behind when djac_x_dir_y changes shows here.
    for method in ("djac_x_y_apply", "djac_x_y_apply_T"):
        report[method] = max(
            _rel_mismatch(getattr(problem, method)(x, y, u),
                          one_hot_coupling(inner, method, x, y, d_y, u))
            for u in directions_x)
    report["djac_x_y_diag"] = _rel_mismatch(
        problem.djac_x_y_diag(x, y), one_hot_coupling(inner, "djac_x_y_diag", x, y, d_y))

    grad_x = as_vector(outer.grad_x(x, y), d_x, "grad_x")
    grad_y = as_vector(outer.grad_y(x, y), d_y, "grad_y")
    report["grad_x"] = _rel_mismatch(
        grad_x, fd_jacobian(lambda xx: outer.value(xx, y), x, step))
    report["grad_y"] = _rel_mismatch(
        grad_y, fd_jacobian(lambda yy: outer.value(x, yy), y, step))
    report["hess_xx"] = _rel_mismatch(
        as_matrix(outer.hess_xx(x, y), (d_x, d_x), "hess_xx"),
        fd_jacobian(lambda xx: as_vector(outer.grad_x(xx, y), d_x, "grad_x"), x, step))
    report["jac_gradY_x"] = _rel_mismatch(
        as_matrix(outer.jac_gradY_x(x, y), (d_y, d_x), "jac_gradY_x"),
        fd_jacobian(lambda xx: as_vector(outer.grad_y(xx, y), d_y, "grad_y"), x, step))
    report["jac_gradX_y"] = _rel_mismatch(
        as_matrix(outer.jac_gradX_y(x, y), (d_x, d_y), "jac_gradX_y"),
        fd_jacobian(lambda yy: as_vector(outer.grad_x(x, yy), d_x, "grad_x"), y, step))
    return report


_FD_STEP = 1e-6
_FD_DIRECTIONAL_STEP = 1e-4


@dataclass(frozen=True)
class FDInnerOracle:
    """Inner oracle for a user-supplied residual, derivatives by differences.

    First derivatives use central differences with step 1e-6*(1+|x|); the
    directional derivatives of jac_x difference the (already approximate)
    Jacobian with a larger step to keep nested-difference noise in check.
    """

    residual_fn: Callable[[Array, Array], Array]
    exact_root_fn: Optional[Callable[[Array], Array]] = None

    def residual(self, x, y):
        return np.asarray(self.residual_fn(x, y), float)

    def jac_x(self, x, y):
        return fd_jacobian(lambda xx: self.residual(xx, y), x, fd_step(x, None, _FD_STEP))

    def jac_y(self, x, y):
        return fd_jacobian(lambda yy: self.residual(x, yy), y, fd_step(y, None, _FD_STEP))

    def djac_x_dir_x(self, x, y, u):
        return fd_jacobian(lambda t: self.jac_x(x + t[0] * u, y), np.zeros(1),
                           fd_step(x, None, _FD_DIRECTIONAL_STEP))[..., 0]

    def djac_x_dir_y(self, x, y, e):
        return fd_jacobian(lambda t: self.jac_x(x, y + t[0] * e), np.zeros(1),
                           fd_step(y, None, _FD_DIRECTIONAL_STEP))[..., 0]

    def exact_root(self, y):
        if self.exact_root_fn is None:
            return None
        return np.asarray(self.exact_root_fn(y), float)
