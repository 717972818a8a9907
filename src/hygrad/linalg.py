"""Dense linear algebra: checked LAPACK solves and SVD norms.

Everything operates on float64 numpy arrays. Matrix inverses are never
formed; all inverse applications go through a ``Factorization``, which
checks a matrix for singularity once and then solves against it or its
transpose with LAPACK ``gesv`` as often as needed. A matrix is singular
when sigma_min <= SINGULAR_RTOL * sigma_max (1e-14), from one LAPACK SVD
of singular values only, or from the diagonal of a diagonal matrix; both
raise SingularMatrixError with one message naming the matrix, the ratio
and the tolerance. Norms and maximizing directions come from one LAPACK
SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, SingularMatrixError

Array = np.ndarray

# A matrix is singular when sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-14


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


def _check_ratio(smallest: float, largest: float, what: str) -> None:
    if smallest <= SINGULAR_RTOL * largest:
        ratio = float(smallest / largest) if largest else 0.0
        raise SingularMatrixError(
            f"{what} is singular to working precision (sigma_min/sigma_max "
            f"{ratio:.3e} <= {SINGULAR_RTOL:g})", what=what)


def check_nonsingular(a: Array, what: str = "matrix") -> None:
    """Raise SingularMatrixError naming ``what`` when the square, finite A
    has sigma_min <= SINGULAR_RTOL * sigma_max, from one LAPACK SVD."""
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"{what}: {err}", what=what) from err
    _check_ratio(s[-1], s[0], what)


# The old name of the check, kept for perfbench's tracer until ROADMAP item 2.
lu_factor = check_nonsingular


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
    """Check A once for singularity, then keep it for solves.

    A is singular when sigma_min <= SINGULAR_RTOL * sigma_max (1e-14): by
    one SVD in ``check_nonsingular`` (also bound as ``lu_factor``), or,
    when A is diagonal, by the same rule on its diagonal,
    min|d| <= SINGULAR_RTOL * max|d|. Both raise the same
    SingularMatrixError, naming ``what``, the ratio and the tolerance, also
    on a matrix that ``gesv`` alone would solve.
    """
    a = _check_square(a, what)
    d = np.diagonal(a)
    if np.count_nonzero(a) != np.count_nonzero(d):
        check_nonsingular(a, what=what)
        return Factorization(what, matrix=a.copy())
    if d.size:
        magnitudes = np.abs(d)
        _check_ratio(magnitudes.min(), magnitudes.max(), what)
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
