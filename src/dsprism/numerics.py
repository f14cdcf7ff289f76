"""Dense linear algebra: validated numpy.linalg calls for determinants,
least squares and symmetric eigenvalues, and a hand-written LU factorization
that only the tests call.  Least squares and eigenvalues take one matrix or a
stack (..., rows, cols) of them, solved in one batched call.

Square inputs are checked to be finite and at most MAX_DIM on a side.
"""

import numpy as np

MAX_DIM = 512


class SingularMatrixError(ValueError):
    pass


def _as_square(A, stack=False):
    """A as a float square matrix, or with stack as a stack (..., k, k) of
    them; the checks hold for every matrix of the stack."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix, got shape %s" % (A.shape,))
    if A.shape[-1] > MAX_DIM:
        raise ValueError("matrix dimension %d exceeds cap %d" % (A.shape[-1], MAX_DIM))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def lu_factor(A):
    """LU with partial pivoting.  Returns (LU, piv) with L/U packed in place.

    Raises SingularMatrixError when a pivot falls below 1e-12 times the
    magnitude scale of the matrix.
    """
    LU = _as_square(A).copy()
    n = LU.shape[0]
    piv = np.arange(n)
    scale = max(float(np.max(np.abs(LU))), 1.0) if n else 1.0
    tol = 1e-12 * scale
    for k in range(n):
        p = k + int(np.argmax(np.abs(LU[k:, k])))
        if abs(LU[p, k]) <= tol:
            raise SingularMatrixError("pivot %g below tolerance %g" % (LU[p, k], tol))
        if p != k:
            LU[[k, p]] = LU[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        LU[k + 1:, k] /= LU[k, k]
        LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    return LU, piv


def lu_solve_factored(LU, piv, b):
    """Solve with a precomputed factorization; b may be a vector or a matrix
    of stacked right-hand-side columns."""
    n = LU.shape[0]
    b = np.asarray(b, dtype=float)
    x = b[piv].astype(float, copy=True)
    for k in range(n):  # forward, unit lower
        x[k + 1:] -= np.outer(LU[k + 1:, k], x[k]) if x.ndim == 2 else LU[k + 1:, k] * x[k]
    for k in range(n - 1, -1, -1):  # backward
        x[k] -= LU[k, k + 1:] @ x[k + 1:]
        x[k] /= LU[k, k]
    return x


def lu_solve(A, b):
    """Solve A x = b by LU with partial pivoting."""
    LU, piv = lu_factor(A)
    return lu_solve_factored(LU, piv, b)


def det(A):
    """Determinant via numpy's LU; a zero pivot gives 0.0 rather than an error."""
    return float(np.linalg.det(_as_square(A)))


def least_squares(X, y):
    """Minimize ||y - X w||^2 for a design X (rows, k), or for every design
    of a stack (..., rows, k) against the one y.  Returns (w, residual_sq):
    a vector and a float for one design, arrays (..., k) and (...) for a
    stack.

    Minimum-norm solutions through one batched SVD, dropping singular values
    at or below eps * max(rows, k) times the largest, as numpy.linalg.lstsq
    does.  Zero columns give (empty, ||y||^2).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim < 2:
        raise ValueError("X must be 2-d or a stack of 2-d designs")
    rows, k = X.shape[-2:]
    if k == 0:
        w, res = np.zeros(X.shape[:-2] + (0,)), np.full(X.shape[:-2], float(y @ y))
    else:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        cutoff = np.finfo(float).eps * max(rows, k) * s[..., :1]
        coef = np.divide(y @ U, s, out=np.zeros_like(s), where=s > cutoff)
        w = (coef[..., None, :] @ Vt)[..., 0, :]
        r = y - (X @ w[..., None])[..., 0]
        res = (r[..., None, :] @ r[..., :, None])[..., 0, 0]
    return (w, float(res)) if X.ndim == 2 else (w, res)


def sym_eigs(A):
    """Eigenvalues of a symmetric matrix, ascending; for a stack (..., k, k)
    one ascending row per matrix."""
    A = _as_square(A, stack=True)
    if not np.allclose(A, np.swapaxes(A, -1, -2), atol=1e-10):
        raise ValueError("matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(A)
