"""Dense linear algebra: checked LAPACK solves and SVD norms.

Everything operates on float64 numpy arrays. Matrix inverses are never
formed; all inverse applications go through a ``Factorization``, which
checks a matrix for singularity once and then solves against it or its
transpose with LAPACK ``gesv`` as often as needed. Norms and maximizing
directions come from one LAPACK SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, SingularMatrixError

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
    is the row permutation as an index vector. Raises SingularMatrixError
    at a pivot within ``PIVOT_RTOL`` of the largest entry; ``factor`` runs
    it for that check alone.
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


@dataclass(frozen=True, eq=False)
class Factorization:
    """A square matrix checked once, for any number of solves.

    ``solve`` applies the inverse and ``solve_T`` the inverse transpose, to a
    vector or to every column of a matrix at once, through LAPACK ``gesv``.
    A diagonal matrix keeps only its diagonal (``matrix`` is None), and a
    solve divides by it.
    """

    what: str
    diagonal: Optional[Array] = None
    matrix: Optional[Array] = None

    def solve(self, b: Array) -> Array:
        """X with A X = B."""
        return self._apply(b, transpose=False)

    def solve_T(self, b: Array) -> Array:
        """X with Aᵀ X = B."""
        return self._apply(b, transpose=True)

    def _apply(self, b: Array, transpose: bool) -> Array:
        d = self.diagonal
        n = (d if d is not None else self.matrix).shape[0]
        b = _check_finite(b, "right-hand side")
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ContractViolation(
                f"right-hand side has shape {b.shape}, {self.what} has {n} rows")
        if d is None:
            return np.linalg.solve(self.matrix.T if transpose else self.matrix, b)
        return b / d if b.ndim == 1 else b / d[:, None]


def factor(a: Array, what: str = "matrix") -> Factorization:
    """Check A once for singularity: by ``lu_factor``, or by its diagonal
    when A is diagonal.

    Both paths raise the same SingularMatrixError naming ``what``, also on
    a tiny nonzero pivot that ``gesv`` alone would accept. ``lu_factor`` is
    looked up when called, so a profiler that rebinds it sees every check.
    """
    a = _check_square(a, what)
    d = np.diagonal(a)
    if np.count_nonzero(a) != np.count_nonzero(d):
        lu_factor(a, what=what)
        return Factorization(what, matrix=a.copy())
    small = np.flatnonzero(np.abs(d) <= _pivot_threshold(d))
    if small.size:
        raise _singular(what, d[small[0]], int(small[0]))
    return Factorization(what, diagonal=d.copy())


def linear_solve(a: Array, b: Array, what: str = "matrix") -> Array:
    """Solve AX = B for a checked A (by division when A is diagonal). B may
    be a vector or matrix."""
    return factor(a, what).solve(b)


def solve_transpose(a: Array, b: Array, what: str = "matrix") -> Array:
    """Solve AᵀX = B for a checked A."""
    return factor(a, what).solve_T(b)


def top_singular(m: Array) -> tuple[float, Array]:
    """Largest singular value and its right singular vector, by one SVD.

    The vector's sign is fixed: its largest-magnitude entry (the first, on
    a tie) is positive. Ties between singular values are accepted: any
    maximizer is valid.
    """
    m = _check_finite(np.atleast_2d(m), "matrix")
    if not m.size:
        raise ContractViolation(f"matrix has shape {m.shape}")
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    v = vt[0]
    return float(s[0]), v if v[np.argmax(np.abs(v))] > 0 else -v


def spectral_norm(m: Array) -> float:
    """Operator (spectral) norm of a dense matrix."""
    sigma, _ = top_singular(m)
    return sigma
