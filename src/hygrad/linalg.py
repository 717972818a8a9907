"""Dense linear algebra: checked LAPACK solves and SVD norms.

Everything operates on float64 numpy arrays. Matrix inverses are never
formed; all inverse applications go through a ``Factorization``, which
checks a matrix for singularity once and then solves against it or its
transpose with LAPACK ``gesv`` as often as needed. A matrix is singular
when sigma_min <= SINGULAR_RTOL * sigma_max (1e-14), from one LAPACK SVD
of singular values only, or from the diagonal of a diagonal matrix; both
raise SingularMatrixError with one message naming the matrix, the ratio
and the tolerance. A stack of matrices, shape (m, n, n), is checked by one
stacked SVD and solved by one broadcast ``gesv``, each matrix with the bits
of its single call. Norms and maximizing directions come from one LAPACK
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
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ContractViolation(f"{what} must be square, got shape {a.shape}")
    return a


def _check_ratio(smallest, largest, what: str) -> None:
    bad = np.flatnonzero(np.asarray(smallest) <= SINGULAR_RTOL * np.asarray(largest))
    if bad.size:
        small, large = np.ravel(smallest)[bad[0]], np.ravel(largest)[bad[0]]
        ratio = float(small / large) if large else 0.0
        where = what if np.ndim(smallest) == 0 else f"{what} (row {bad[0]})"
        raise SingularMatrixError(
            f"{where} is singular to working precision (sigma_min/sigma_max "
            f"{ratio:.3e} <= {SINGULAR_RTOL:g})", what=where)


def check_nonsingular(a: Array, what: str = "matrix") -> None:
    """Raise SingularMatrixError naming ``what`` when the square, finite A
    has sigma_min <= SINGULAR_RTOL * sigma_max, from one LAPACK SVD; for a
    stack, one stacked SVD, and the message names the first singular row."""
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"{what}: {err}", what=what) from err
    _check_ratio(s[..., -1], s[..., 0], what)


# The old name of the check, kept for perfbench's tracer until ROADMAP item 2.
lu_factor = check_nonsingular


@dataclass(frozen=True, eq=False)
class Factorization:
    """A square matrix, or a stack of m of them, checked once for any number
    of solves.

    ``solve`` applies the inverse and ``solve_T`` the inverse transpose
    through LAPACK ``gesv``: for one matrix, to a vector (n,) or a matrix
    (n, k), also with a leading stack axis; for a stack, to vectors (m, n)
    or matrices (m, n, k), row k against matrix k with the bits of its
    single call. A diagonal matrix keeps only its diagonal (``matrix`` is
    None), and a solve divides by it. A stack that mixes diagonal and other
    matrices keeps one factorization per matrix in ``rows``. Only ``factor``
    names the matrix, in the errors of its check.
    """

    diagonal: Optional[Array] = None
    matrix: Optional[Array] = None
    rows: tuple = ()

    def solve(self, b: Array) -> Array:
        """X with A X = B."""
        return self._apply(b, transpose=False)

    def solve_T(self, b: Array) -> Array:
        """X with Aᵀ X = B."""
        return self._apply(b, transpose=True)

    def _apply(self, b: Array, transpose: bool) -> Array:
        b = _check_finite(b, "right-hand side")
        if self.rows:
            return np.stack([part._apply(row, transpose)
                             for part, row in zip(self.rows, b, strict=True)])
        d = self.diagonal
        lead = d.shape if d is not None else self.matrix.shape[:-1]
        vector = b.ndim == len(lead)
        shape = b.shape if vector else b.shape[:-1]
        # One matrix also solves a stack of matrix right-hand sides.
        if shape != lead and not (len(lead) == 1 and b.ndim == 3 and shape[1:] == lead):
            stack = f" in a stack of {lead[0]}" if len(lead) == 2 else ""
            raise ContractViolation(f"right-hand side has shape {b.shape}, "
                                    f"the matrix has {lead[-1]} rows{stack}")
        if d is None:
            a = np.swapaxes(self.matrix, -1, -2) if transpose else self.matrix
            return np.linalg.solve(a, b[..., None])[..., 0] if vector \
                else np.linalg.solve(a, b)
        return b / d if vector else b / d[..., None]


def factor(a: Array, what: str = "matrix") -> Factorization:
    """Check A, or a stack of matrices, once for singularity, then keep it
    for solves; ``what`` names A in the check's errors and is not kept.

    A is singular when sigma_min <= SINGULAR_RTOL * sigma_max (1e-14): by
    one SVD in ``check_nonsingular`` (also bound as ``lu_factor``), or,
    when A is diagonal, by the same rule on its diagonal,
    min|d| <= SINGULAR_RTOL * max|d|. Both raise the same
    SingularMatrixError, naming ``what``, the ratio and the tolerance, also
    on a matrix that ``gesv`` alone would solve. On a stack, the error's
    ``what`` and message name the first singular row, as "F_1 (row 2)". A
    stack with no diagonal matrix takes one stacked SVD, and one that mixes
    diagonal and other matrices is factored one matrix at a time.
    """
    a = _check_square(a, what)
    d = np.diagonal(a, axis1=-2, axis2=-1)
    dense = np.count_nonzero(a, axis=(-2, -1)) != np.count_nonzero(d, axis=-1)
    if dense.all():
        check_nonsingular(a, what=what)
        return Factorization(matrix=a.copy())
    if not dense.any():
        if d.size:
            magnitudes = np.abs(d)
            _check_ratio(magnitudes.min(axis=-1), magnitudes.max(axis=-1), what)
        return Factorization(diagonal=d.copy())
    return Factorization(rows=tuple(factor(matrix, f"{what} (row {k})")
                                    for k, matrix in enumerate(a)))


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
