"""Checked LAPACK solves and SVD spectral norms."""

import numpy as np
import pytest

import hygrad as hg
from hygrad.cli import cli_main
from hygrad.errors import ContractViolation, SingularMatrixError


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
        # Division by the diagonal and gesv on the same matrix round
        # differently in the last bits only.
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 9):
            a = np.diag(_alternating_diagonal(rng, n))
            fast = hg.factor(a, what="A")
            assert fast.diagonal is not None and fast.matrix is None
            dense = hg.Factorization(matrix=a)
            for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                for got, want in ((fast.solve(b), dense.solve(b)),
                                  (fast.solve_T(b), dense.solve_T(b))):
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dense_matrix_takes_lu_path(self, monkeypatch):
        import hygrad.linalg as linalg
        checked = []
        original = linalg.check_nonsingular

        def counting(a, *args, **kwargs):
            checked.append(a)
            return original(a, *args, **kwargs)
        monkeypatch.setattr(linalg, "check_nonsingular", counting)
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        fac = hg.factor(a)
        assert fac.diagonal is None and len(checked) == 1
        b = np.array([1.0, -2.0])
        want = np.array([5.0 / 6.0, -2.0 / 3.0])
        assert np.max(np.abs(fac.solve(b) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_near_singular_dense_matrix_raises(self):
        # sigma_min/sigma_max is 3.1e-16, below SINGULAR_RTOL; gesv alone
        # would solve this matrix.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        for call in (lambda: hg.factor(a, what="F_1"),
                     lambda: hg.linear_solve(a, np.ones(2), what="F_1"),
                     lambda: hg.solve_transpose(a, np.ones(2), what="F_1")):
            with pytest.raises(SingularMatrixError) as err:
                call()
            assert err.value.what == "F_1"

    @pytest.mark.parametrize("entry", [0.0, 0.5 * hg.linalg.SINGULAR_RTOL * 3.0])
    def test_small_diagonal_entry_raises_like_lu(self, entry):
        # The diagonal path raises exactly as the SVD check does on the
        # same matrix.
        a = np.diag([2.0, -3.0, entry, 1.0])
        with pytest.raises(SingularMatrixError) as svd_err:
            hg.linalg.check_nonsingular(a, what="phi_1")
        with pytest.raises(SingularMatrixError) as fast_err:
            hg.factor(a, what="phi_1")
        assert fast_err.value.what == svd_err.value.what == "phi_1"
        assert str(fast_err.value) == str(svd_err.value)

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


def _with_singular_values(rng, s):
    """U diag(s) V^T for seeded random orthogonal U and V."""
    d = s.size
    u, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (u * s) @ v.T


class TestStackedFactorization:
    """A stack of matrices, one check and one broadcast solve, each row with
    the bits of its single call."""

    @staticmethod
    def _stack(m=4, n=5, seed=3):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, n, n)) + n * np.eye(n), rng

    def test_rows_have_the_bits_of_single_solves(self, lu_calls):
        a, rng = self._stack()
        lu = hg.factor(a, "A")
        assert len(lu_calls) == 1 and lu_calls[0].shape == a.shape
        vectors, matrices = rng.standard_normal((4, 5)), rng.standard_normal((4, 5, 3))
        for solve in ("solve", "solve_T"):
            for b in (vectors, matrices):
                got = getattr(lu, solve)(b)
                assert got.shape == b.shape
                for k in range(4):
                    want = getattr(hg.factor(a[k], "A"), solve)(b[k])
                    assert np.array_equal(got[k], want), (solve, b.ndim, k)

    def test_one_matrix_solves_a_stack_of_matrices(self):
        a, rng = self._stack(m=1)
        b = rng.standard_normal((3, 5, 2))
        lu = hg.factor(a[0], "A")
        got = lu.solve(b)
        assert all(np.array_equal(got[k], lu.solve(b[k])) for k in range(3))

    def test_a_mixed_stack_is_factored_one_matrix_at_a_time(self, lu_calls):
        a, rng = self._stack(m=3)
        a[1] = np.diag(np.arange(1.0, 6.0))
        lu = hg.factor(a, "A")
        assert [part.matrix is None for part in lu.rows] == [False, True, False]
        assert len(lu_calls) == 2
        b = rng.standard_normal((3, 5))
        got = lu.solve_T(b)
        for k in range(3):
            assert np.array_equal(got[k], hg.factor(a[k], "A").solve_T(b[k]))

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_a_singular_row_is_named(self, diagonal):
        a, _ = self._stack(m=3)
        if diagonal:
            a = a * np.eye(5)
        a[2, :, 0] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^A \(row 2\) is singular") as err:
            hg.factor(a, "A")
        assert err.value.what == "A (row 2)"
        hg.factor(a[:2], "A")

    def test_rejects_a_right_hand_side_of_another_stack(self):
        a, rng = self._stack(m=3)
        lu = hg.factor(a, "A")
        for b in (rng.standard_normal(5), rng.standard_normal((2, 5)),
                  rng.standard_normal((3, 4)), rng.standard_normal((3, 4, 2))):
            with pytest.raises(ContractViolation, match="right-hand side has shape"):
                lu.solve(b)


class TestSingularityRule:
    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_prescribed_singular_values_on_both_sides_of_tolerance(self, d):
        # sigma_min/sigma_max at least 10x below or above SINGULAR_RTOL, at
        # scales from 1e-3 to 1e3, as a dense matrix and as a diagonal one.
        rtol = hg.linalg.SINGULAR_RTOL
        rng = np.random.default_rng(100 + d)
        for trial in range(20):
            singular = trial % 2 == 0
            ratio = rtol * 10.0 ** (rng.uniform(-4.0, -1.0) if singular
                                    else rng.uniform(1.0, 4.0))
            top = 10.0 ** rng.uniform(-3.0, 3.0)
            s = top * np.concatenate(
                [[1.0, ratio], 10.0 ** rng.uniform(np.log10(ratio), 0.0, d - 2)])
            dense = _with_singular_values(rng, np.sort(s)[::-1])
            diag = np.diag(rng.permutation(s) * rng.choice([-1.0, 1.0], d))
            if not singular:
                hg.factor(dense, what="A")
                hg.factor(diag, what="A")
                hg.linalg.check_nonsingular(diag, what="A")
                continue
            messages = []
            for call in (lambda: hg.factor(dense, what="A"),
                         lambda: hg.factor(diag, what="A"),
                         lambda: hg.linalg.check_nonsingular(diag, what="A")):
                with pytest.raises(SingularMatrixError) as err:
                    call()
                assert err.value.what == "A"
                messages.append(str(err.value))
            # The diagonal path and the SVD give one message for one matrix.
            assert messages[1] == messages[2]

    def test_svd_failure_is_a_singular_matrix_error(self, monkeypatch, tmp_path,
                                                    libsvm_dir, capsys):
        svd = np.linalg.svd

        def failing(a, *args, compute_uv=True, **kwargs):
            if not compute_uv:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, compute_uv=compute_uv, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(SingularMatrixError) as err:
            hg.factor(np.array([[2.0, 1.0], [1.0, 3.0]]), what="V")
        assert err.value.what == "V"
        assert isinstance(err.value, hg.NumericalFailure)
        code = cli_main(["compare", "--problem", "ridge", "--outer", "affine",
                         "--train", str(libsvm_dir / "reg_train.libsvm"),
                         "--trials", "1", "--out", str(tmp_path / "c.csv")])
        assert code == 3
        assert "F_1: SVD did not converge" in capsys.readouterr().err

    def test_profilers_see_every_dense_check_by_identity(self, monkeypatch):
        # perfbench's tracer counts checks by rebinding the object bound to
        # linalg.lu_factor wherever a hygrad module holds it.
        import sys

        import hygrad.linalg as linalg
        assert linalg.lu_factor is linalg.check_nonsingular
        original = linalg.lu_factor
        seen = []

        def counting(a, *args, **kwargs):
            seen.append(a)
            return original(a, *args, **kwargs)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "hygrad"
                                       or name.startswith("hygrad.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        dense = np.array([[2.0, 1.0], [0.0, 3.0]])
        diagonal = np.diag([2.0, 3.0])
        for a in (dense, diagonal):
            before = len(seen)
            hg.factor(a)
            hg.linear_solve(a, np.ones(2))
            hg.solve_transpose(a, np.ones(2))
            assert len(seen) - before == (3 if a is dense else 0)


class TestSpectralNorm:
    def test_diagonal(self):
        assert hg.spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_zero_matrix(self):
        assert hg.spectral_norm(np.zeros((3, 2))) == 0.0
        with pytest.raises(ContractViolation):
            hg.spectral_norm(np.zeros((0, 2)))

    def test_nilpotent_block(self):
        # Singular values of [[0,1],[0,0]] are {1, 0}.
        assert hg.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_start_vector_in_null_space(self):
        # The all-ones vector is in the null space of this matrix.
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

    def test_top_singular_value_is_numpy_svd(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.normal(size=tuple(rng.integers(1, 25, size=2)))
            assert hg.top_singular(m)[0] == np.linalg.svd(m)[1][0]

    def test_top_singular_vector_sign_convention(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m = rng.normal(size=tuple(rng.integers(1, 25, size=2)))
            sigma, v = hg.top_singular(m)
            vt0 = np.linalg.svd(m, full_matrices=False)[2][0]
            assert np.array_equal(v, vt0) or np.array_equal(v, -vt0)
            assert v[np.argmax(np.abs(v))] > 0
            assert np.linalg.norm(m @ v) == pytest.approx(sigma, rel=1e-12)

    def test_top_singular_vector(self):
        m = np.diag([5.0, 1.0])
        sigma, v = hg.top_singular(m)
        assert sigma == pytest.approx(5.0, abs=1e-12)
        assert abs(abs(v[0]) - 1.0) < 1e-10
