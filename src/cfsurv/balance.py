"""Derivative direction, explicit inverse-probability weights, and minimax
balancing weights.

The balance weights minimize, independently for each timestep u,

    I_u(w)^2 + (sigma^2 / n) * sum_i active[i,u] * r[i,u]^2 * w[i,u]^2

where I_u(w) = ||K^{1/2} (r_u (1 - active_u * w_u))|| is the worst-case
imbalance over the RKHS unit ball. Writing v = r_u * active_u * w_u, the
minimizer solves the active-set restriction of (K + sigma^2/n I) v = K r_u,
so no iterative solver is involved. Risk-set masks {a_i = a, time_i >= u}
shrink with u, so after sorting units by descending exit time every
active set is a prefix and every system matrix a leading principal block
of the first one. The Cholesky factor of a leading block is the leading
block of the full factor (Golub & Van Loan), so one factorization serves
all timesteps of a call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .kernels import cho_solve_checked, spd_factor

__all__ = [
    "SolverConfig",
    "derivative_direction",
    "explicit_riesz",
    "solve_balance_weights",
    "imbalance",
    "objective",
    "BalanceWeights",
]

_R_TINY = 1e-12  # below this |r| the weight cell is irrelevant and set to 0


@dataclass(frozen=True)
class SolverConfig:
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class BalanceWeights:
    """Per-observation, per-timestep weights; zero off the active set."""

    omega: np.ndarray  # (n, t+1)
    active: np.ndarray  # (n, t+1) bool

    def __post_init__(self) -> None:
        if self.omega.shape != self.active.shape:
            raise ValueError("omega and active must share a shape")
        if not np.isfinite(self.omega).all():
            raise ValueError("weights must be finite")
        if np.any(self.omega[~self.active] != 0.0):
            raise ValueError("weights must vanish off the active set")


def derivative_direction(s_hat: np.ndarray, t: int) -> np.ndarray:
    """r[i, u] = -S_t(X_i) * S_{u-1}(X_i) / S_u(X_i) for 1 <= u <= t.

    s_hat has shape (n, t_max + 1) and must come from clamped hazards so all
    survival values are strictly positive. The result has shape (n, t + 1)
    with a zero column at u = 0; every entry lies in [-1, 0].
    """
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.ndim != 2:
        raise ValueError(f"survival values must be a matrix, got shape {s_hat.shape}")
    if t < 0 or t >= s_hat.shape[1]:
        raise ValueError(f"time {t} outside the survival matrix horizon")
    if (s_hat[:, : t + 1] <= 0.0).any():
        raise NumericalError("nonpositive survival values; clamp hazards upstream")
    n = s_hat.shape[0]
    r = np.zeros((n, t + 1))
    if t >= 1:
        s_t = s_hat[:, t][:, None]
        r[:, 1:] = -s_t * s_hat[:, 0:t] / s_hat[:, 1 : t + 1]
    return r


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
    k: np.ndarray, r: np.ndarray, active: np.ndarray, cfg: SolverConfig
) -> BalanceWeights:
    """Closed-form minimax balance weights from one Cholesky factor per call.

    Units are ordered by how many timesteps they stay active, descending
    and stable (descending exit time for risk-set masks). The largest
    active set that is a prefix of that order is factored once; every
    timestep whose active set is such a prefix solves with the leading
    block of that factor. A timestep whose active set is not a prefix
    gets a fresh factor of its own. Each solve is checked against the
    residual bound `kernels.SOLVE_TOL`.
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    active = np.asarray(active, dtype=bool)
    n = k.shape[0]
    if k.shape != (n, n):
        raise ValueError(f"kernel matrix must be square, got {k.shape}")
    if r.shape != active.shape or r.shape[0] != n:
        raise ValueError("r and active must be (n, t+1) matrices")
    t = r.shape[1] - 1
    omega = np.zeros_like(r)
    lam = cfg.sigma2 / n
    order = np.argsort(-active[:, 1:].sum(axis=1), kind="stable")
    sizes = active.sum(axis=0)
    is_prefix = (active[order] == (np.arange(n)[:, None] < sizes[None, :])).all(axis=0)
    n_shared = int(sizes[1:][is_prefix[1:]].max(initial=0))
    shared = order[:n_shared]
    k_shared = k[np.ix_(shared, shared)]
    factor = None
    kr = k @ r[:, 1:]
    for u in range(1, t + 1):
        m = int(sizes[u])
        if m == 0:
            continue
        try:
            if is_prefix[u]:
                act, k_act = shared[:m], k_shared[:m, :m]
                if factor is None:
                    factor = spd_factor(k_shared, ridge=lam)
                factor_act = factor[:m, :m]
            else:
                act = np.flatnonzero(active[:, u])
                k_act = k[np.ix_(act, act)]
                factor_act = spd_factor(k_act, ridge=lam)
            v = cho_solve_checked(factor_act, k_act, kr[act, u - 1], ridge=lam)
        except NumericalError as err:
            raise NumericalError(f"balance solve at u={u} ({m} of {n} active): {err}") from err
        r_act = r[act, u]
        safe = np.abs(r_act) > _R_TINY
        w = np.zeros(m)
        w[safe] = v[safe] / r_act[safe]
        omega[act, u] = w
    return BalanceWeights(omega=omega, active=active)


def imbalance(
    k: np.ndarray, r: np.ndarray, active: np.ndarray, omega: np.ndarray, u: int
) -> float:
    """Worst-case RKHS imbalance sqrt(c' K c) with c = r_u (1 - active_u w_u)."""
    c = r[:, u] * (1.0 - active[:, u].astype(float) * omega[:, u])
    return float(np.sqrt(max(c @ (k @ c), 0.0)))


def objective(
    k: np.ndarray,
    r: np.ndarray,
    active: np.ndarray,
    omega: np.ndarray,
    cfg: SolverConfig,
) -> float:
    """Summed per-timestep objective: imbalance^2 plus the variance penalty."""
    r = np.asarray(r, dtype=float)
    active = np.asarray(active, dtype=bool)
    omega = np.asarray(omega, dtype=float)
    if r.shape != active.shape or r.shape != omega.shape:
        raise ValueError("r, active, and omega must share a shape")
    n = k.shape[0]
    total = 0.0
    for u in range(1, r.shape[1]):
        total += imbalance(k, r, active, omega, u) ** 2
        total += cfg.sigma2 / n * float(
            np.sum(active[:, u] * r[:, u] ** 2 * omega[:, u] ** 2)
        )
    return total
