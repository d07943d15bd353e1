"""RBF kernel evaluation, Gram matrices, and regularized SPD solves.

The kernel convention is exp(-||x - y||^2 / (2 * length_scale^2)) with a
default length scale of 10, fixed here so downstream results are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import solve_triangular

from .errors import NumericalError

__all__ = ["KernelConfig", "gram", "spd_factor", "cho_solve_checked"]

#: diagonal jitter schedule on factorization failure: none, JITTER, x10, x100
JITTER = 1e-10
_JITTER_RETRIES = 3

#: residual bound of a checked solve, relative to 1 + ||b||
SOLVE_TOL = 1e-8


@dataclass(frozen=True)
class KernelConfig:
    length_scale: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.length_scale < np.inf:
            raise ValueError(f"length_scale must be positive and finite, got {self.length_scale}")


def gram(rows: np.ndarray, cols: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-||rows[i] - cols[j]||^2 / (2 l^2)); rectangular allowed."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.shape[0], cols.shape[0]))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
    sq = (
        np.sum(rows**2, axis=1)[:, None]
        + np.sum(cols**2, axis=1)[None, :]
        - 2.0 * rows @ cols.T
    )
    np.maximum(sq, 0.0, out=sq)
    k = np.exp(-sq / (2.0 * cfg.length_scale**2))
    if rows.shape == cols.shape and np.array_equal(rows, cols):
        # exact symmetry and unit diagonal for the square case
        k = 0.5 * (k + k.T)
        np.fill_diagonal(k, 1.0)
    return k


def spd_factor(m: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of m + ridge * I for symmetric positive semi-definite m.

    On factorization failure the diagonal gets escalating jitter (x10 per
    retry, 3 retries); if every attempt fails a NumericalError is raised
    with diagnostics.
    """
    last_err: Exception | None = None
    for attempt in range(_JITTER_RETRIES + 1):
        # a fresh Fortran-order copy per attempt, factored in place
        a = np.array(m, dtype=float, order="F")
        diag = np.diag_indices_from(a)
        a[diag] += ridge
        if attempt > 0:
            a[diag] += JITTER * 10.0 ** (attempt - 1)
        try:
            return scipy.linalg.cholesky(a, lower=True, overwrite_a=True, check_finite=False)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as err:
            last_err = err
    raise NumericalError(
        f"SPD solve failed for {m.shape[0]}x{m.shape[0]} system "
        f"(ridge={ridge:.3e}, jitter up to {JITTER * 10.0 ** (_JITTER_RETRIES - 1):.3e}): "
        f"{last_err}"
    )


def cho_solve_checked(
    factor: np.ndarray, m: np.ndarray, b: np.ndarray, ridge: float = 0.0,
    sizes: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[int, str]]:
    """Solve (m + ridge * I) z = b from a lower Cholesky factor of that matrix.

    b is one right-hand side or a matrix of them, one per column. Column
    j solves the leading sizes[j] block (default: all of m), zero past
    it; the factor of a leading block is that block of the factor, so
    all columns share one forward and one backward triangular solve. The
    factor may carry jitter. Each column is held to its own bound
    ||(m + ridge I) z_j - b_j|| <= SOLVE_TOL * (1 + ||b_j||) on its block
    of the unjittered system, so a small column cannot hide under a large
    one's norm. Returns (z, failures): failures maps every column that
    misses its bound (a non-finite residual included; column 0 for a
    vector b) to diagnostics, and is empty when the solve is good.
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
