"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from dsprism.numerics import (SingularMatrixError, det, least_squares, lu_factor,
                              lu_solve, lu_solve_factored, sym_eigs)


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 8, 12):
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        x = lu_solve(A, b)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-9)


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 4))
    LU, piv = lu_factor(A)
    X = lu_solve_factored(LU, piv, B)
    assert np.allclose(A @ X, B, atol=1e-9)


def test_lu_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_factor(A)


def test_det_matches_numpy_and_singular_is_zero():
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        A = rng.standard_normal((n, n))
        assert abs(det(A) - np.linalg.det(A)) <= 1e-9 * max(1.0, abs(np.linalg.det(A)))
    assert det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_least_squares():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    w, res = least_squares(X, y)
    w_ref, res_ref, _, _ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(w, w_ref, atol=1e-6)
    assert abs(res - float(res_ref[0])) <= 1e-6


def test_least_squares_empty_design():
    y = np.array([1.0, -2.0, 0.5])
    w, res = least_squares(np.zeros((3, 0)), y)
    assert w.shape == (0,)
    assert res == pytest.approx(float(y @ y))


def test_sym_eigs_matches_eigvalsh():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 6, 10, 20):
        M = rng.standard_normal((n, n))
        A = M + M.T
        vals = sym_eigs(A)
        assert np.all(np.diff(vals) >= -1e-12)  # ascending
        assert np.allclose(vals, np.linalg.eigvalsh(A), atol=1e-8)


def test_sym_eigs_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((7, 3, 5, 5))
    A = M + np.swapaxes(M, -1, -2)
    vals = sym_eigs(A)
    assert vals.shape == (7, 3, 5)
    for i in range(7):
        for j in range(3):
            assert np.array_equal(vals[i, j], sym_eigs(A[i, j]))


@pytest.mark.parametrize("bad", [np.array([[np.nan, 0.0], [0.0, 1.0]]),
                                 np.array([[np.inf, 0.0], [0.0, 1.0]])],
                         ids=["nan", "inf"])
def test_sym_eigs_rejects_a_stack_holding_one_bad_matrix(bad):
    A = np.tile(np.eye(2), (4, 1, 1))
    A[2] = bad
    with pytest.raises(ValueError):
        sym_eigs(A)


def test_sym_eigs_rejects_non_square_stack():
    with pytest.raises(ValueError, match="square"):
        sym_eigs(np.zeros((3, 2, 4)))


@pytest.mark.parametrize("rows,k", [(30, 5), (6, 6), (4, 7)])
def test_least_squares_stack_matches_lstsq_per_design(rows, k):
    rng = np.random.default_rng(rows * k)
    X = rng.standard_normal((9, rows, k))
    X[1, :, -1] = X[1, :, 0] + 3.0 * X[1, :, 1]  # rank-deficient designs
    X[2, :, 2] = 0.0
    X[3] = 0.0
    y = rng.standard_normal(rows)
    w, res = least_squares(X, y)
    assert w.shape == (9, k) and res.shape == (9,)
    for i in range(9):
        w_ref = np.linalg.lstsq(X[i], y, rcond=None)[0]
        r = y - X[i] @ w_ref
        assert np.max(np.abs(w[i] - w_ref)) <= 1e-10 * max(1.0, np.max(np.abs(w_ref)))
        assert abs(res[i] - float(r @ r)) <= 1e-10 * float(y @ y)
        w_i, res_i = least_squares(X[i], y)
        assert np.array_equal(w_i, w[i]) and res_i == res[i]
    assert np.array_equal(w[3], np.zeros(k)) and res[3] == float(y @ y)


def test_least_squares_stack_of_empty_designs():
    y = np.array([1.0, -2.0, 0.5])
    w, res = least_squares(np.zeros((4, 3, 0)), y)
    assert w.shape == (4, 0)
    assert np.array_equal(res, np.full(4, float(y @ y)))
