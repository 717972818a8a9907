"""Dense linear algebra kernels: LU solves and power-iteration norms.

Everything operates on float64 numpy arrays. Matrix inverses are never
formed; all inverse applications go through a ``Factorization``, which
factors a matrix once for any number of solves against it or its transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, NumericalFailure, SingularMatrixError

Array = np.ndarray

# Pivot threshold relative to the largest entry of the input matrix.
PIVOT_RTOL = 1e-14


def _check_finite(a: Array, name: str) -> Array:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return a


def _check_square(a: Array, what: str) -> Array:
    a = _check_finite(a, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"{what} must be square, got shape {a.shape}")
    return a


def _pivot_threshold(a: Array) -> float:
    return PIVOT_RTOL * (np.max(np.abs(a)) if a.size else 0.0)


def _singular(what: str, pivot: float, column: int) -> SingularMatrixError:
    return SingularMatrixError(
        f"{what} is singular to working precision (pivot {pivot:.3e} "
        f"at column {column})", what=what)


def lu_factor(a: Array, what: str = "matrix") -> tuple[Array, Array]:
    """LU factorization with partial pivoting: returns (lu, piv) with PA = LU.

    ``lu`` packs unit-lower L below the diagonal and U on/above it; ``piv``
    is the row permutation as an index vector.
    """
    a = _check_square(a, what)
    lu = a.copy()
    n = lu.shape[0]
    piv = np.arange(n)
    threshold = _pivot_threshold(a)
    for k in range(n):
        p = k + int(np.abs(lu[k:, k]).argmax())
        if abs(lu[p, k]) <= threshold:
            raise _singular(what, lu[p, k], k)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
    return lu, piv


# The triangular solves take a vector or a matrix B. A vector's row updates
# are BLAS dot products, a matrix's are matrix-vector products; the two
# round differently in the last bit, so a column solved alone and the same
# column solved inside a matrix need not agree bit for bit. ``ndarray.dot``
# reaches the same BLAS calls as ``@`` with less dispatch overhead.

def _solve_factored(lu: Array, piv: Array, b: Array) -> Array:
    n = lu.shape[0]
    x = b[piv].astype(float)
    for i in range(1, n):              # L z = Pb, unit diagonal
        x[i] -= lu[i, :i].dot(x[:i])
    for i in range(n - 1, -1, -1):     # U x = z
        x[i] = (x[i] - lu[i, i + 1:].dot(x[i + 1:])) / lu[i, i]
    return x


def _solve_factored_transpose(lu: Array, piv: Array, b: Array) -> Array:
    n = lu.shape[0]
    w = b.astype(float).copy()
    for i in range(n):                 # Uᵀ w = b, lower triangular
        w[i] = (w[i] - lu[:i, i].dot(w[:i])) / lu[i, i]
    for i in range(n - 1, -1, -1):     # Lᵀ z = w, unit diagonal
        w[i] -= lu[i + 1:, i].dot(w[i + 1:])
    x = np.empty_like(w)
    x[piv] = w
    return x


@dataclass(frozen=True, eq=False)
class Factorization:
    """A square matrix factored once, for any number of solves.

    ``solve`` applies the inverse and ``solve_T`` the inverse transpose, to a
    vector or to every column of a matrix at once. A diagonal matrix keeps
    only its diagonal (``lu`` and ``piv`` are None): its LU pivots are its
    diagonal entries, and a solve divides by them, which is what the LU path
    computes on such a matrix.
    """

    what: str
    diagonal: Optional[Array] = None
    lu: Optional[Array] = None
    piv: Optional[Array] = None

    def solve(self, b: Array) -> Array:
        """X with A X = B."""
        return self._apply(b, _solve_factored)

    def solve_T(self, b: Array) -> Array:
        """X with Aᵀ X = B (Aᵀ is never formed)."""
        return self._apply(b, _solve_factored_transpose)

    def _apply(self, b: Array, kernel) -> Array:
        d = self.diagonal
        n = (d if d is not None else self.piv).shape[0]
        b = _check_finite(b, "right-hand side")
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ContractViolation(
                f"right-hand side has shape {b.shape}, {self.what} has {n} rows")
        if d is None:
            return kernel(self.lu, self.piv, b)
        return b / d if b.ndim == 1 else b / d[:, None]


def factor(a: Array, what: str = "matrix") -> Factorization:
    """Factor A once: by ``lu_factor``, or by its diagonal when A is diagonal.

    Both paths run the same checks and raise the same SingularMatrixError
    naming ``what``. ``lu_factor`` is looked up when called, so a profiler
    that rebinds the module attribute sees every dense factorization.
    """
    a = _check_square(a, what)
    d = np.diagonal(a)
    if np.count_nonzero(a) != np.count_nonzero(d):
        lu, piv = lu_factor(a, what=what)
        return Factorization(what, lu=lu, piv=piv)
    small = np.flatnonzero(np.abs(d) <= _pivot_threshold(d))
    if small.size:
        raise _singular(what, d[small[0]], int(small[0]))
    return Factorization(what, diagonal=d.copy())


def linear_solve(a: Array, b: Array, what: str = "matrix") -> Array:
    """Solve AX = B by LU with partial pivoting (by division when A is
    diagonal). B may be a vector or matrix."""
    return factor(a, what).solve(b)


def solve_transpose(a: Array, b: Array, what: str = "matrix") -> Array:
    """Solve AᵀX = B reusing the factorization of A (Aᵀ is never formed)."""
    return factor(a, what).solve_T(b)


def top_singular(m: Array, tol: float = 1e-12, max_iter: int = 10000) -> tuple[float, Array]:
    """Largest singular value and a maximizing right singular vector.

    Power iteration on MᵀM from the normalized all-ones start vector. Ties
    between singular values are accepted: any maximizer is valid. Returns
    (0, start vector) for the zero matrix.
    """
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    m = _check_finite(np.atleast_2d(m), "matrix")
    cols = m.shape[1]
    v = np.ones(cols) / math.sqrt(cols)
    if not np.any(m):
        return 0.0, v
    # A start vector can land in the null space; fall back to basis vectors,
    # deterministically, until the image is nonzero.
    basis = 0
    sigma = 0.0
    for _ in range(max_iter):
        w = m.T @ (m @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            if basis >= cols:
                return 0.0, v
            v = np.zeros(cols)
            v[basis] = 1.0
            basis += 1
            continue
        v = w / nw
        new_sigma = float(np.linalg.norm(m @ v))
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return new_sigma, v
        sigma = new_sigma
    raise NumericalFailure(
        f"power iteration did not converge in {max_iter} iterations",
        last_estimate=sigma)


def spectral_norm(m: Array, tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Operator (spectral) norm of a dense matrix."""
    sigma, _ = top_singular(m, tol=tol, max_iter=max_iter)
    return sigma
