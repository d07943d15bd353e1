"""RBF kernel evaluation, Gram matrices, and regularized SPD solves.

The kernel convention is exp(-||x - y||^2 / (2 * length_scale^2)) with a
default length scale of 10, fixed here so downstream results are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError

__all__ = ["KernelConfig", "rbf", "gram", "spd_factor", "cho_solve_checked", "spd_solve"]

#: diagonal jitter schedule on factorization failure: none, JITTER, x10, x100
JITTER = 1e-10
_JITTER_RETRIES = 3

#: residual bound of a checked solve, relative to 1 + ||b||
SOLVE_TOL = 1e-8


@dataclass(frozen=True)
class KernelConfig:
    length_scale: float = 10.0

    def __post_init__(self) -> None:
        if not self.length_scale > 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")


def rbf(x: np.ndarray, y: np.ndarray, cfg: KernelConfig) -> float:
    """Kernel value exp(-||x - y||^2 / (2 l^2)) for a single pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * cfg.length_scale**2)))


def gram(rows: np.ndarray, cols: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Kernel matrix K[i, j] = rbf(rows[i], cols[j]); rectangular allowed."""
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
    a = m + ridge * np.eye(m.shape[0])
    last_err: Exception | None = None
    for attempt in range(_JITTER_RETRIES + 1):
        eps = 0.0 if attempt == 0 else JITTER * 10.0 ** (attempt - 1)
        try:
            return scipy.linalg.cholesky(
                a + eps * np.eye(a.shape[0]), lower=True, check_finite=False
            )
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as err:
            last_err = err
    raise NumericalError(
        f"SPD solve failed for {m.shape[0]}x{m.shape[0]} system "
        f"(ridge={ridge:.3e}, jitter up to {JITTER * 10.0 ** (_JITTER_RETRIES - 1):.3e}): "
        f"{last_err}"
    )


def cho_solve_checked(
    factor: np.ndarray, m: np.ndarray, b: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """Solve (m + ridge * I) z = b from a lower Cholesky factor of that matrix.

    The factor may carry jitter; the returned solution satisfies
    ||(m + ridge I) z - b|| <= SOLVE_TOL * (1 + ||b||) for the unjittered
    system, otherwise a NumericalError is raised with diagnostics.
    """
    z = scipy.linalg.cho_solve((factor, True), b, check_finite=False)
    residual = float(np.linalg.norm(m @ z + ridge * z - b))
    bound = SOLVE_TOL * (1.0 + float(np.linalg.norm(b)))
    if residual > bound:
        raise NumericalError(
            f"SPD solve of {m.shape[0]}x{m.shape[0]} system (ridge={ridge:.3e}) "
            f"left residual {residual:.3e} above tolerance {bound:.3e}"
        )
    return z


def spd_solve(m: np.ndarray, b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve (m + ridge * I) z = b for symmetric positive semi-definite m.

    Factors with `spd_factor` and solves with `cho_solve_checked`, so the
    jitter schedule and the residual bound are theirs.
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if b.shape[0] != m.shape[0]:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix has {m.shape[0]}")
    return cho_solve_checked(spd_factor(m, ridge), m, b, ridge)
