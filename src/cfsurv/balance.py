"""Direction ratio, explicit inverse-probability weights, and minimax
balancing weights.

The augmented estimators correct along the direction
r_t[:, u] = S_t * q[:, u], with the time-free ratio
q[:, u] = -S_{u-1} / S_u (`direction_ratio`). dr weights q explicitly
(`explicit_riesz`); balance solves for minimax weights of the stacked
directions of every evaluation time (`solve_balance_weights`).

The balance weights minimize, independently for each timestep u,

    I_u(w)^2 + (sigma^2 / n) * sum_i active[i,u] * r[i,u]^2 * w[i,u]^2

where I_u(w) = ||K^{1/2} (r_u (1 - active_u * w_u))|| is the worst-case
imbalance over the RKHS unit ball. Writing v = r_u * active_u * w_u, the
minimizer solves the active-set restriction of (K + sigma^2/n I) v = K r_u,
so no iterative solver is involved. Risk-set masks {a_i = a, time_i >= u}
shrink with u, and the solve accepts only such nested masks: after
sorting units by descending exit time every active set is a prefix and
every system matrix a leading principal block of the first one. The
Cholesky factor of a leading block is the leading block of the full
factor (Golub & Van Loan), so one factorization serves all timesteps.

The risk sets do not depend on the evaluation time t either: only the
direction S_t * q does. `run_estimator` computes q once per (fold, arm),
stacks the directions of every t on a trailing axis and makes one call:
one factor, one product of the shared rows of K with every (u, t)
direction, and one pair of triangular solves with that factor for all
of those columns, each on its own leading block (`cho_solve_checked`).
Only those shared rows, the largest risk set's, are ever read, so
`run_estimator` passes a function that builds them and no fold-sized
Gram matrix exists: a solve holds one arm's rows, their square block
and its factor.
Like that solve, it returns plain arrays: the weights, zero off the
active set, and a dict of the directions that failed.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NumericalError
from .kernels import cho_solve_checked, spd_factor

__all__ = [
    "direction_ratio",
    "explicit_riesz",
    "solve_balance_weights",
]

_R_TINY = 1e-12  # below this |r| the weight cell is irrelevant and set to 0


def direction_ratio(s_hat: np.ndarray, t: int) -> np.ndarray:
    """Time-free factor of the directions: q[i, u] = -S_{u-1}(X_i) / S_u(X_i).

    s_hat has shape (n, t_max + 1) and must come from clamped hazards so all
    survival values are strictly positive. The result has shape (n, t + 1)
    with a zero column at u = 0. The direction of any t' <= t is S_{t'}
    times its first t' + 1 columns; every entry of it lies in [-1, 0].
    """
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.ndim != 2:
        raise ValueError(f"survival values must be a matrix, got shape {s_hat.shape}")
    if t < 0 or t >= s_hat.shape[1]:
        raise ValueError(f"time {t} outside the survival matrix horizon")
    if (s_hat[:, : t + 1] <= 0.0).any():
        raise NumericalError("nonpositive survival values; clamp hazards upstream")
    q = np.zeros((s_hat.shape[0], t + 1))
    q[:, 1:] = -(s_hat[:, :t] / s_hat[:, 1 : t + 1])
    return q


def explicit_riesz(
    r: np.ndarray,
    active: np.ndarray,
    pi_hat: np.ndarray,
    h_hat_minus: np.ndarray,
    clip_floor: float | None = None,
) -> np.ndarray:
    """Inverse-probability weights gamma[i, u] = r[i, u] * active / denominator.

    The denominator is pi_hat[i] * h_hat_minus[i, u], optionally clipped from
    below at clip_floor. Without clipping, a vanishing denominator on an
    active cell raises instead of silently emitting infinities.
    """
    r = np.asarray(r, dtype=float)
    active = np.asarray(active, dtype=bool)
    pi_hat = np.asarray(pi_hat, dtype=float)
    h_hat_minus = np.asarray(h_hat_minus, dtype=float)
    if r.shape != active.shape or r.shape != h_hat_minus.shape:
        raise ValueError("r, active, and h_hat_minus must share a shape")
    if pi_hat.shape != (r.shape[0],):
        raise ValueError("pi_hat must have one entry per unit")
    denom = pi_hat[:, None] * h_hat_minus
    if clip_floor is not None:
        denom = np.maximum(denom, clip_floor)
    if np.any(active & (denom <= 0.0)):
        raise NumericalError(
            "zero inverse-probability denominator on an active cell; "
            "enable clipping or fix the nuisance estimates"
        )
    gamma = np.zeros_like(r)
    gamma[active] = r[active] / denom[active]
    return gamma


def solve_balance_weights(
    k: np.ndarray | Callable[[np.ndarray], np.ndarray],
    r: np.ndarray, active: np.ndarray, sigma2: float
) -> tuple[np.ndarray, dict[int, str]]:
    """Closed-form minimax balance weights for c stacked directions; returns (omega, failures).

    r holds the directions (n, t+1, c); they share the kernel and the
    risk-set mask active (n, t+1), whose sets at u >= 1 must be nested.
    k is the (n, n) kernel matrix or a function that returns its rows
    K[idx, :] for an index array idx; either way only the rows of the
    largest risk set are read, in one call, and they are dropped once
    their square block and their product with the directions are formed.
    Units are ordered by how many timesteps they stay active, descending
    and stable, so every active set is a prefix of that order. The
    largest one is factored once, and one product of its rows of K with
    every direction serves all timesteps: every (u, direction) column is
    solved at once with the leading block of that factor that u's risk
    set spans. A direction that is zero at u has zero weights there and
    needs no solve. Every column is checked against the residual bound
    `kernels.SOLVE_TOL` on its own.

    omega (n, t+1, c) holds each direction's weights, zero off the
    active set. failures maps a failed direction to the reason, at its
    first failed u: a column that misses its bound fails its direction,
    and a failed factor fails every direction that needs a solve. Its
    weights are then zero.
    """
    r = np.asarray(r, dtype=float)
    active = np.asarray(active, dtype=bool)
    if r.ndim != 3 or r.shape[:2] != active.shape:
        raise ValueError("active must be an (n, t+1) matrix and r an (n, t+1, c) stack")
    n = r.shape[0]
    if not callable(k):
        matrix = np.asarray(k, dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(f"kernel matrix must be ({n}, {n}) for {n} units, got {matrix.shape}")
        k = matrix.__getitem__
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    order = np.argsort(-active[:, 1:].sum(axis=1), kind="stable")
    sizes = active.sum(axis=0)
    if not (active[order, 1:] == (np.arange(n)[:, None] < sizes[None, 1:])).all():
        raise ValueError("active sets must be nested: each unit active from u = 1 to its exit")
    omega = np.zeros_like(r)
    failures: dict[int, str] = {}
    lam = sigma2 / n
    shared = order[: int(sizes[1:].max(initial=0))]
    # (u, direction) pairs to solve, one column each in (u, direction) order
    needed = (r[:, 1:, :] != 0.0).any(axis=0) & (sizes[1:] > 0)[:, None]
    if not needed.any():
        return omega, failures
    col_u, col_dir = np.nonzero(needed)
    col_u += 1
    m = sizes[col_u]
    r_cols = r[:, col_u, col_dir]
    rows = np.asarray(k(shared), dtype=float)
    if rows.shape != (shared.size, n):
        raise ValueError(f"kernel rows must be ({shared.size}, {n}), got {rows.shape}")
    k_shared, kr_shared = rows[:, shared], rows @ r_cols
    del rows
    try:
        v, bad = cho_solve_checked(spd_factor(k_shared, ridge=lam), k_shared, kr_shared, lam, m)
    except NumericalError as err:  # a failed factor fails every direction that needs a solve
        v, bad = np.zeros_like(kr_shared), dict.fromkeys(range(m.size), err)
    for col, err in sorted(bad.items()):  # each failed direction's first failed timestep
        where = f"balance solve at u={col_u[col]} ({m[col]} of {n} active)"
        failures.setdefault(int(col_dir[col]), f"{where}, direction {col_dir[col]}: {err}")
    safe = (np.arange(shared.size)[:, None] < m) & (np.abs(r_cols[shared]) > _R_TINY)
    w = np.divide(v, r_cols[shared], out=np.zeros_like(v), where=safe)
    omega[shared[:, None], col_u, col_dir] = w
    omega[:, :, list(failures)] = 0.0
    return omega, failures
