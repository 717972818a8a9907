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
of its single call. The SVD decides, but a stack whose every matrix is
diagonally dominant by rows and by columns, with margins well clear of
rounding, is cleared first at O(m n^2) cost: Varah's bound (J. M. Varah,
"A lower bound for the smallest singular value of a matrix", Linear Algebra
Appl. 11, 1975) puts its sigma_min/sigma_max above 1e-8, far enough above
the rule's 1e-14 that the SVD could not call it singular (see _CLEARANCE).
Norms and maximizing directions come from one LAPACK SVD, and the norm of
an all-zero matrix is 0.0 with none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, SingularMatrixError

Array = np.ndarray

# A matrix is singular when sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-14

# The dominance certificate clears a stack of n x n matrices, n <= 4096 (the
# widest problem ``bench`` builds, MAX_FEATURES), when every row margin
# alpha_i = |a_ii| - sum_{j != i} |a_ij| exceeds c ||A||_inf and every column
# margin beta_j exceeds c ||A||_1, with c = _CLEARANCE. Then A is strictly
# dominant both ways, sigma_min >= sqrt(alpha beta) (Varah 1975) and
# sigma_max <= sqrt(||A||_1 ||A||_inf), so sigma_min/sigma_max > c. Neither
# rounding can flip that to the SVD rule's "singular":
# - each computed margin and norm is a sum of at most n magnitudes no larger
#   than the norm, off by at most n eps ||A|| <= 4096 * 2.2e-16 = 9.1e-13
#   times the norm, 1e-4 of c: a cleared matrix has true ratio > 0.9999 c;
# - the SVD returns the singular values of A + E with ||E||_2 <= p(n) eps
#   ||A||_2; even for p(n) = n^2, far above the modest growth LAPACK's
#   analysis gives, n^2 eps <= 3.7e-9, so by Weyl's inequality its ratio is
#   at least (0.9999 c - 3.7e-9) / (1 + 3.7e-9) > 6e-9 > SINGULAR_RTOL.
# A single matrix always takes the SVD, which costs it less than the test.
_CLEARANCE = 1e-8
_CLEARED_MAX_N = 4096


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


def _dominant(a: Array) -> bool:
    """True when every matrix of the stack a passes the certificate that
    _CLEARANCE describes: row and column margins above c of their norms."""
    mag = np.abs(a)
    twice_diagonal = 2.0 * np.diagonal(mag, axis1=-2, axis2=-1)
    rows, cols = mag.sum(axis=-1), mag.sum(axis=-2)
    return bool((twice_diagonal - rows > _CLEARANCE * rows.max(-1, keepdims=True)).all()
                and (twice_diagonal - cols > _CLEARANCE * cols.max(-1, keepdims=True)).all())


def check_nonsingular(a: Array, what: str = "matrix") -> None:
    """Raise SingularMatrixError naming ``what`` when the square, finite A
    has sigma_min <= SINGULAR_RTOL * sigma_max, from one LAPACK SVD; for a
    stack, one stacked SVD, and the message names the first singular row.

    A stack of n x n matrices, 0 < n <= 4096, whose every matrix is
    diagonally dominant by rows and by columns with margins above 1e-8 of
    its 1- and inf-norms is cleared first, with no SVD: by Varah's bound
    (1975) its ratio exceeds 1e-8, so the SVD, to within its own and the
    test's rounding, would clear it too (see _CLEARANCE). Any other stack,
    and every single matrix, takes the SVD, so what raises, and with which
    ``what`` and message, is the SVD's decision alone."""
    if np.ndim(a) == 3 and 0 < a.shape[-1] <= _CLEARED_MAX_N and _dominant(a):
        return
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
        # One matrix solves (n,), (n, k) or (s, n, k); a stack, (m, n) or (m, n, k).
        if not (0 < b.ndim < 4 and b.shape[-1 if vector else -2] == lead[0] if len(lead) == 1
                else (b.shape if vector else b.shape[:-1]) == lead):
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
    stack with no diagonal matrix takes one stacked check, where the SVD
    decides but a diagonally dominant stack is cleared first (Varah 1975;
    see ``check_nonsingular``, and _CLEARANCE for why the clearance cannot
    flip a decision), and one that mixes diagonal and other matrices is
    factored one matrix at a time.
    """
    a = _check_square(a, what)
    d = np.diagonal(a, axis1=-2, axis2=-1)
    if np.count_nonzero(a) == np.count_nonzero(d):
        if d.size:
            magnitudes = np.abs(d)
            _check_ratio(magnitudes.min(axis=-1), magnitudes.max(axis=-1), what)
        return Factorization(diagonal=d.copy())
    if a.ndim == 3 and (np.count_nonzero(a, axis=(-2, -1))
                        == np.count_nonzero(d, axis=-1)).any():
        return Factorization(rows=tuple(factor(matrix, f"{what} (row {k})")
                                        for k, matrix in enumerate(a)))
    check_nonsingular(a, what=what)
    return Factorization(matrix=a.copy())


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
    """Operator (spectral) norm of a dense matrix; 0.0, with no SVD, if all zero."""
    m = _check_finite(np.atleast_2d(m), "matrix")
    return top_singular(m)[0] if m.any() or not m.size else 0.0
