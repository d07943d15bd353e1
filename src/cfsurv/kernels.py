"""RBF kernel evaluation, Gram matrices, and regularized SPD solves.

The kernel convention is exp(-||x - y||^2 / (2 * length_scale^2)); the
length scale is an argument of `gram`, and `EstimatorParams` holds its
default and its check. A Gram matrix of equal inputs is exactly
symmetric with a unit diagonal. Results are reproducible bit for bit at a
fixed BLAS thread count; the matrix products' summation order, and so
their roundoff, may change with it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import solve_triangular

from .errors import NumericalError

__all__ = ["gram", "spd_factor", "cho_solve_checked"]

#: residual bound of a checked solve, relative to 1 + ||b||
SOLVE_TOL = 1e-8


def gram(rows: np.ndarray, cols: np.ndarray, length_scale: float) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-||rows[i] - cols[j]||^2 / (2 l^2)); rectangular allowed.

    K is filled in one buffer as exp(min(rows[i]'cols[j] / l^2 - (h_i + h_j), 0)),
    h = ||x||^2 / (2 l^2). The sums h_i + h_j are formed a block of rows at
    a time, at most 256 KiB of them, so the build holds no temporary of
    K's size. Equal inputs take the symmetric product rows @ rows.T, and
    h_i + h_j commutes, so their Gram matrix is exactly symmetric; its
    diagonal is set to 1.
    """
    rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=float)
    cols = np.ascontiguousarray(np.atleast_2d(cols), dtype=float)
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.shape[0], cols.shape[0]))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
    square = rows.shape == cols.shape and np.array_equal(rows, cols)
    inv = 1.0 / length_scale**2
    k = rows @ (rows if square else cols).T
    k *= inv
    h_rows = np.einsum("ij,ij->i", rows, rows) * (0.5 * inv)
    h_cols = h_rows if square else np.einsum("ij,ij->i", cols, cols) * (0.5 * inv)
    step = max(1, (1 << 18) // (8 * k.shape[1]))  # rows per 256 KiB of h_i + h_j
    for start in range(0, k.shape[0], step):
        k[start : start + step] -= np.add.outer(h_rows[start : start + step], h_cols)
    np.minimum(k, 0.0, out=k)
    np.exp(k, out=k)
    if square:
        np.fill_diagonal(k, 1.0)
    return k


def spd_factor(m: np.ndarray, ridge: float) -> np.ndarray:
    """Lower Cholesky factor of m + ridge * I for symmetric positive semi-definite m.

    A matrix that cannot be factored raises NumericalError with diagnostics.
    """
    a = np.array(m, dtype=float, order="F")  # a fresh copy, factored in place
    a[np.diag_indices_from(a)] += ridge
    try:
        return scipy.linalg.cholesky(a, lower=True, overwrite_a=True, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as err:
        raise NumericalError(
            f"SPD solve failed for {a.shape[0]}x{a.shape[0]} system (ridge={ridge:.3e}): {err}"
        ) from err


def cho_solve_checked(
    factor: np.ndarray, m: np.ndarray, b: np.ndarray, ridge: float,
    sizes: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[int, str]]:
    """Solve (m + ridge * I) z = b from a lower Cholesky factor of that matrix.

    b is one right-hand side or a matrix of them, one per column. Column
    j solves the leading sizes[j] block (default: all of m), zero past
    it; the factor of a leading block is that block of the factor, so
    all columns share one forward and one backward triangular solve. Each
    column is held to its own bound
    ||(m + ridge I) z_j - b_j|| <= SOLVE_TOL * (1 + ||b_j||) on its block,
    so a small column cannot hide under a large one's norm. Returns
    (z, failures): failures maps every column that misses its bound (a
    non-finite residual included; column 0 for a vector b) to
    diagnostics, and is empty when the solve is good.
    """
    b = np.asarray(b, dtype=float)
    cols = b.reshape(len(b), -1)
    sizes = np.full(cols.shape[1], len(b)) if sizes is None else np.asarray(sizes)
    keep = np.arange(len(b))[:, None] < sizes
    rhs = np.where(keep, cols, 0.0)
    z = solve_triangular(factor, rhs, lower=True, check_finite=False)
    z *= keep
    z = solve_triangular(factor, z, lower=True, trans="T", overwrite_b=True, check_finite=False)
    residual = np.linalg.norm((m @ z + ridge * z - rhs) * keep, axis=0)
    bound = SOLVE_TOL * (1.0 + np.linalg.norm(rhs, axis=0))
    failures = {
        int(j): (
            f"SPD solve of {sizes[j]}x{sizes[j]} system (ridge={ridge:.3e}) "
            f"left residual {residual[j]:.3e} above tolerance {bound[j]:.3e}"
        )
        for j in np.flatnonzero(~(residual <= bound))
    }
    return z.reshape(b.shape), failures
