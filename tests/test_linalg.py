"""LU solves and power-iteration spectral norms."""

import numpy as np
import pytest

import hygrad as hg
from hygrad.errors import ContractViolation, NumericalFailure, SingularMatrixError


class TestLinearSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(hg.linear_solve(np.eye(3), b), b)

    def test_diagonal(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        x = hg.linear_solve(a, np.array([[3.0], [8.0]]))
        assert np.allclose(x, [[1.0], [2.0]], atol=0, rtol=0)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            hg.linear_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            hg.linear_solve(np.zeros((2, 2)), np.ones(2))

    def test_vector_rhs_shape(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = hg.linear_solve(a, np.array([1.0, 0.0]))
        assert x.shape == (2,)
        assert np.allclose(a @ x, [1.0, 0.0])

    def test_residual_bound_on_seeded_systems(self):
        # 100 well-conditioned systems; the LU residual bound must hold.
        rng = np.random.default_rng(7)
        for trial in range(100):
            d = int(rng.integers(1, 9))
            a = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
            if np.linalg.cond(a) > 1e6:
                continue
            b = rng.normal(size=(d, 2))
            x = hg.linear_solve(a, b)
            resid = np.linalg.norm(a @ x - b)
            assert resid <= 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(x))

    def test_transpose_solve(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 4.0 * np.eye(5)
        b = rng.normal(size=(5, 3))
        x = hg.solve_transpose(a, b)
        assert np.allclose(a.T @ x, b, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolation):
            hg.linear_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolation):
            hg.linear_solve(np.ones((2, 3)), np.ones(2))


def _alternating_diagonal(rng, n):
    """Seeded diagonal entries of magnitude 0.5-3, negative at even indices."""
    return rng.uniform(0.5, 3.0, n) * np.where(np.arange(n) % 2 == 0, -1.0, 1.0)


class TestFactorization:
    def test_diagonal_path_equals_lu_path(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 9):
            a = np.diag(_alternating_diagonal(rng, n))
            fast = hg.factor(a, what="A")
            assert fast.diagonal is not None and fast.lu is None
            lu, piv = hg.lu_factor(a, what="A")
            dense = hg.Factorization("A", lu=lu, piv=piv)
            for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                assert np.array_equal(fast.solve(b), dense.solve(b))
                assert np.array_equal(fast.solve_T(b), dense.solve_T(b))

    def test_dense_matrix_takes_lu_path(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        fac = hg.factor(a)
        assert fac.diagonal is None
        lu, piv = hg.lu_factor(a)
        assert np.array_equal(fac.lu, lu) and np.array_equal(fac.piv, piv)

    @pytest.mark.parametrize("entry", [0.0, 0.5 * hg.linalg.PIVOT_RTOL * 3.0])
    def test_small_diagonal_entry_raises_like_lu(self, entry):
        a = np.diag([2.0, -3.0, entry, 1.0])
        with pytest.raises(SingularMatrixError) as lu_err:
            hg.lu_factor(a, what="phi_1")
        with pytest.raises(SingularMatrixError) as fast_err:
            hg.factor(a, what="phi_1")
        assert fast_err.value.what == lu_err.value.what == "phi_1"
        assert str(fast_err.value) == str(lu_err.value)

    def test_matrix_rhs_matches_column_solves(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 7, 20):
            a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            b = rng.normal(size=(n, 4))
            for fac in (hg.factor(a), hg.factor(np.diag(_alternating_diagonal(rng, n)))):
                for solve in (fac.solve, fac.solve_T):
                    whole = solve(b)
                    cols = np.stack([solve(b[:, j]) for j in range(4)], axis=1)
                    if fac.diagonal is not None:
                        assert np.array_equal(whole, cols)
                    else:
                        # Matrix-vector and dot-product kernels may round
                        # differently in the last bit.
                        assert np.max(np.abs(whole - cols)) \
                            <= 1e-13 * np.max(np.abs(cols))

    def test_solves_match_one_shot_functions(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
        fac = hg.factor(a)
        for b in (rng.normal(size=6), rng.normal(size=(6, 2))):
            assert np.array_equal(fac.solve(b), hg.linear_solve(a, b))
            assert np.array_equal(fac.solve_T(b), hg.solve_transpose(a, b))

    def test_rejects_wrong_rhs_rows(self):
        for a in (np.eye(2), np.array([[2.0, 1.0], [1.0, 3.0]])):
            with pytest.raises(ContractViolation):
                hg.factor(a).solve(np.ones(3))
            with pytest.raises(ContractViolation):
                hg.factor(a).solve_T(np.ones((3, 2)))


class TestSpectralNorm:
    def test_diagonal(self):
        assert hg.spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_zero_matrix(self):
        assert hg.spectral_norm(np.zeros((3, 2))) == 0.0

    def test_nilpotent_block(self):
        # Singular values of [[0,1],[0,0]] are {1, 0}.
        assert hg.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_start_vector_in_null_space(self):
        # The all-ones start is annihilated; the fallback must still find 2^0.5.
        m = np.array([[1.0, -1.0]])
        assert hg.spectral_norm(m) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_bounds_on_seeded_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = rng.normal(size=(rows, cols))
            sigma = hg.spectral_norm(m)
            col_norms = np.linalg.norm(m, axis=0)
            assert sigma >= np.max(col_norms) / np.sqrt(cols) - 1e-12
            assert sigma <= np.linalg.norm(m) + 1e-12

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(6, 4))
        assert hg.spectral_norm(m) == pytest.approx(np.linalg.svd(m)[1][0],
                                                    rel=1e-10)

    def test_non_convergence_carries_estimate(self):
        m = np.diag([1.0, 0.999])
        with pytest.raises(NumericalFailure) as exc:
            hg.spectral_norm(m, tol=1e-14, max_iter=2)
        assert exc.value.last_estimate is not None

    def test_top_singular_vector(self):
        m = np.diag([5.0, 1.0])
        sigma, v = hg.top_singular(m)
        assert sigma == pytest.approx(5.0, abs=1e-12)
        assert abs(abs(v[0]) - 1.0) < 1e-10
