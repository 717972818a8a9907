"""Bilevel problem contracts: derivative oracles and their validation.

A bilevel problem is a pair of oracles over (x, y) with x the inner variable
(dimension d_x) and y the outer variable (dimension d_y):

- the inner oracle exposes the residual F whose root in x defines the inner
  solution, its Jacobians in x and y, and directional derivatives of the
  x-Jacobian (second-derivative information is consumed only through such
  directional contractions, never as stored third-order tensors);
- the outer oracle exposes the objective value, gradients, and the
  second-derivative blocks the estimators need.

All oracles must be pure functions of their arguments: problems are shared
freely across concurrent read-only evaluations, so implementations must not
mutate interior state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import ContractViolation, HygradError, NumericalFailure, UsageError

Array = np.ndarray


def as_vector(a, dim: int | None = None, name: str = "vector") -> Array:
    """Validate and return a finite float64 vector, optionally of length dim."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ContractViolation(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractViolation(f"{name} must have length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return v


def as_matrix(a, shape: tuple[int, int] | None = None, name: str = "matrix") -> Array:
    """Validate and return a finite float64 matrix, optionally of given shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-d, got shape {m.shape}")
    if shape is not None and m.shape != shape:
        raise ContractViolation(f"{name} must have shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


class InnerOracle(Protocol):
    """Derivative oracle for the inner residual F(x, y)."""

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
    """An inner/outer oracle pair with declared dimensions."""

    inner: InnerOracle
    outer: OuterOracle
    d_x: int
    d_y: int
    name: str = ""

    def __post_init__(self):
        if self.d_x < 1 or self.d_y < 1:
            raise ContractViolation("dimensions must be positive")

    def residual(self, x: Array, y: Array) -> Array:
        return as_vector(self.inner.residual(x, y), self.d_x, "residual")

    def jac_x(self, x: Array, y: Array) -> Array:
        return as_matrix(self.inner.jac_x(x, y), (self.d_x, self.d_x), "jac_x")

    def jac_y(self, x: Array, y: Array) -> Array:
        return as_matrix(self.inner.jac_y(x, y), (self.d_x, self.d_y), "jac_y")

    def exact_root(self, y: Array) -> Optional[Array]:
        root = self.inner.exact_root(y)
        if root is None:
            return None
        return as_vector(root, self.d_x, "exact_root")


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


def _fd_directional(fn: Callable[[Array], Array], at: Array, direction: Array,
                    step: float) -> Array:
    hi = at + step * direction
    lo = at - step * direction
    return (np.asarray(fn(hi), float) - np.asarray(fn(lo), float)) / (2 * step)


def _rel_mismatch(analytic: Array, approx: Array) -> float:
    analytic = np.asarray(analytic, float)
    approx = np.asarray(approx, float)
    return float(np.max(np.abs(analytic - approx)) / (1.0 + np.max(np.abs(analytic))))


def validate_oracles(problem: BilevelProblem, x: Array, y: Array,
                     step: float = 1e-5) -> dict[str, float]:
    """Cross-check every analytic derivative oracle against central differences.

    Returns, per oracle, the max relative deviation from a finite difference
    of the parent quantity. Shape mismatches raise ContractViolation.
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
            _fd_directional(lambda xx: problem.jac_x(xx, y), x, u, step))
        for u in directions_x)
    directions_y = [np.ones(d_y) / np.sqrt(d_y)] + [np.eye(d_y)[j] for j in range(min(d_y, 2))]
    report["djac_x_dir_y"] = max(
        _rel_mismatch(
            as_matrix(inner.djac_x_dir_y(x, y, e), (d_x, d_x), "djac_x_dir_y"),
            _fd_directional(lambda yy: problem.jac_x(x, yy), y, e, step))
        for e in directions_y)

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
    d_x: int
    d_y: int
    exact_root_fn: Optional[Callable[[Array], Array]] = None

    def residual(self, x, y):
        return np.asarray(self.residual_fn(x, y), float)

    def jac_x(self, x, y):
        return fd_jacobian(lambda xx: self.residual(xx, y), x, fd_step(x, None, _FD_STEP))

    def jac_y(self, x, y):
        return fd_jacobian(lambda yy: self.residual(x, yy), y, fd_step(y, None, _FD_STEP))

    def djac_x_dir_x(self, x, y, u):
        h = fd_step(x, None, _FD_DIRECTIONAL_STEP)
        return _fd_directional(lambda xx: self.jac_x(xx, y), x, u, h)

    def djac_x_dir_y(self, x, y, e):
        h = fd_step(y, None, _FD_DIRECTIONAL_STEP)
        return _fd_directional(lambda yy: self.jac_x(x, yy), y, e, h)

    def exact_root(self, y):
        if self.exact_root_fn is None:
            return None
        return np.asarray(self.exact_root_fn(y), float)
