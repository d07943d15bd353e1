"""Nuisance-function fitting.

Event and censoring hazards are fit as independent kernel logistic
regressions, one per (time u, arm a), each trained on the at-risk units
for that cell. The per-cell objective is the summed binary cross-entropy
plus (ridge / 2) * alpha' K alpha with a fixed coefficient, so the
penalty's weight relative to the mean loss scales like ridge / risk-set
size: late, thin cells are smoothed hard while large risk sets keep
their flexibility. The intercept is unpenalized, which makes every
fitted cell mean-calibrated on its risk set; single-class cells sit at
the boundary of the likelihood and are represented by the clamp limits
directly. The propensity is an unpenalized linear logistic regression.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceWarning, CoverageWarning, EstimationError
from .kernels import KernelConfig, gram
from .survival import Dataset, TimeGrid, standardization

__all__ = [
    "HAZARD_FLOOR",
    "HAZARD_CEIL",
    "PROPENSITY_FLOOR",
    "KernelHazardModel",
    "OracleHazardModel",
    "PropensityModel",
    "OraclePropensity",
    "fit_event_hazard",
    "fit_censor_hazard",
    "fit_propensity",
    "klr_loss_grad",
    "propensity_loss_grad",
]

HAZARD_FLOOR = 1e-6
HAZARD_CEIL = 1.0 - 1e-6
PROPENSITY_FLOOR = 1e-3

_P_EPS = 1e-12  # probability clip inside the optimizer only

#: per-cell Newton stopping rule: loss gradient norm, iteration cap
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 500

#: propensity Newton stopping rule: loss gradient norm, iteration cap
PROPENSITY_TOL = 1e-8
PROPENSITY_MAX_ITER = 500


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def klr_loss_grad(
    k: np.ndarray, y: np.ndarray, alpha: np.ndarray, b: float, ridge: float
) -> tuple[float, np.ndarray]:
    """Penalized kernel-logistic loss and its gradient in (alpha, b).

    Loss: sum_i [log(1 + e^{f_i}) - y_i f_i] + (ridge/2) alpha' K alpha
    with f = K alpha + b; the intercept is unpenalized. Returns
    (value, gradient of length m + 1).
    """
    f = k @ alpha + b
    # log(1 + e^f) - y f, stable in both tails
    value = float(np.sum(np.logaddexp(0.0, f) - y * f))
    value += 0.5 * ridge * float(alpha @ (k @ alpha))
    p = _sigmoid(f)
    grad_alpha = k @ ((p - y) + ridge * alpha)
    grad_b = float(np.sum(p - y))
    return value, np.concatenate([grad_alpha, [grad_b]])


def _newton_klr(k: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, float, bool]:
    """Damped Newton for the penalized kernel-logistic cell.

    Steps solve the stationarity system (p - y) + ridge alpha = 0,
    sum(p - y) = 0, whose Jacobian is nonsingular for ridge > 0 and
    mixed labels. Backtracking is on the residual norm of that system
    (the loss itself is flat along the Gram matrix's near-null space, so
    a loss-based search stalls on the ill-conditioned Grams a long
    length scale produces); every root is a global minimizer of the
    convex loss. Stops once the true loss gradient norm is <= NEWTON_TOL,
    or after NEWTON_MAX_ITER iterations.
    """
    m = len(y)
    alpha = np.zeros(m)
    ybar = min(max(float(np.mean(y)), 1e-3), 1.0 - 1e-3)
    b = float(np.log(ybar / (1.0 - ybar)))

    def residuals(alpha_, b_):
        p_ = _sigmoid(k @ alpha_ + b_)
        g_alpha = (p_ - y) + ridge * alpha_
        g_b = float(np.sum(p_ - y))
        return p_, g_alpha, g_b

    p, g_alpha, g_b = residuals(alpha, b)
    diag = np.arange(m)
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        true_grad = float(np.sqrt(np.sum((k @ g_alpha) ** 2) + g_b**2))
        if true_grad <= NEWTON_TOL:
            converged = True
            break
        w = np.clip(p * (1.0 - p), _P_EPS, None)
        jac = np.empty((m + 1, m + 1))
        jac[:m, :m] = w[:, None] * k
        jac[diag, diag] += ridge
        jac[:m, m] = w
        jac[m, :m] = w @ k
        jac[m, m] = float(np.sum(w))
        g = np.concatenate([g_alpha, [g_b]])
        step = np.linalg.solve(jac, g)
        merit = float(np.linalg.norm(g))
        eta = 1.0
        for _ in range(50):
            new_alpha = alpha - eta * step[:m]
            new_b = float(b - eta * step[m])
            new_p, new_ga, new_gb = residuals(new_alpha, new_b)
            if float(np.sqrt(np.sum(new_ga**2) + new_gb**2)) <= (1.0 - 1e-4 * eta) * merit:
                break
            eta *= 0.5
        alpha, b = new_alpha, new_b
        p, g_alpha, g_b = new_p, new_ga, new_gb
    return alpha, b, converged


@dataclass(frozen=True)
class _Cell:
    """One fitted (u, a) hazard: dual coefficients over its risk set."""

    alpha: np.ndarray | None  # None for constant cells
    intercept: float
    risk_idx: np.ndarray | None  # indices into the training matrix
    constant: float | None = None

    def predict(self, k_pred: np.ndarray) -> np.ndarray:
        f = k_pred[:, self.risk_idx] @ self.alpha + self.intercept
        return np.clip(_sigmoid(f), HAZARD_FLOOR, HAZARD_CEIL)


@dataclass(frozen=True)
class KernelHazardModel:
    """Per-(u, a) kernel logistic hazards sharing one standardization."""

    grid: TimeGrid
    mean: np.ndarray
    scale: np.ndarray
    train_x: np.ndarray  # standardized training covariates
    kernel: KernelConfig
    cells: dict[tuple[int, int], _Cell]
    empty_cells: tuple[tuple[int, int], ...] = ()

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x, dtype=float)) - self.mean) / self.scale

    def hazard_matrix(self, x: np.ndarray, a: int) -> np.ndarray:
        """(n, t_max + 1) predicted hazards; column 0 is identically 0."""
        xs = self.standardize(x)
        k_pred = gram(xs, self.train_x, self.kernel) if self.train_x.size else None
        out = np.zeros((xs.shape[0], self.grid.n_points))
        for u in range(1, self.grid.n_points):
            cell = self.cells.get((u, a))
            if cell is None:
                out[:, u] = HAZARD_FLOOR
            elif cell.constant is not None:
                out[:, u] = cell.constant
            else:
                out[:, u] = cell.predict(k_pred)
        return out

    def survival_matrix(self, x: np.ndarray, a: int) -> np.ndarray:
        return np.cumprod(1.0 - self.hazard_matrix(x, a), axis=1)


@dataclass(frozen=True)
class OracleHazardModel:
    """Adapter exposing a known hazard function through the model interface."""

    grid: TimeGrid
    fn: Callable[[np.ndarray, int, int], np.ndarray]  # (X, a, u) -> (n,)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float))

    def hazard_matrix(self, x: np.ndarray, a: int) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((x.shape[0], self.grid.n_points))
        for u in range(1, self.grid.n_points):
            out[:, u] = self.fn(x, a, u)
        return out

    def survival_matrix(self, x: np.ndarray, a: int) -> np.ndarray:
        return np.cumprod(1.0 - self.hazard_matrix(x, a), axis=1)


def _fit_hazard(
    data: Dataset,
    labels_at: Callable[[np.ndarray, int], np.ndarray],
    kernel: KernelConfig,
    ridge: float,
    max_time: int | None,
) -> KernelHazardModel:
    if max_time is None:
        max_time = data.grid.t_max
    mean, scale = standardization(data.x)
    xs = (data.x - mean) / scale
    k_full = gram(xs, xs, kernel)
    cells: dict[tuple[int, int], _Cell] = {}
    empty: list[tuple[int, int]] = []
    stalled: list[tuple[int, int]] = []
    for a in (0, 1):
        arm = data.a == a
        for u in range(1, max_time + 1):
            risk = np.flatnonzero(arm & (data.time >= u))
            if risk.size == 0:
                cells[(u, a)] = _Cell(None, 0.0, None, constant=HAZARD_FLOOR)
                empty.append((u, a))
                continue
            y = labels_at(risk, u)
            if y.min() == y.max():
                # with an unpenalized intercept the single-class optimum sits
                # at the boundary; represent it by the clamp limit directly
                level = HAZARD_FLOOR if y[0] == 0.0 else HAZARD_CEIL
                cells[(u, a)] = _Cell(None, 0.0, None, constant=level)
                continue
            k_sub = k_full[np.ix_(risk, risk)]
            alpha, b, converged = _newton_klr(k_sub, y, ridge)
            if not converged:
                stalled.append((u, a))
            cells[(u, a)] = _Cell(alpha=alpha, intercept=b, risk_idx=risk)
    if empty:
        warnings.warn(
            f"{len(empty)} (time, arm) cells had empty risk sets; "
            "constant floor hazard used",
            CoverageWarning,
            stacklevel=3,
        )
    if stalled:
        warnings.warn(
            f"{len(stalled)} (time, arm) cells stopped after {NEWTON_MAX_ITER} Newton "
            f"iterations above gradient tolerance {NEWTON_TOL:.1e}: {stalled}",
            ConvergenceWarning,
            stacklevel=3,
        )
    return KernelHazardModel(
        grid=data.grid,
        mean=mean,
        scale=scale,
        train_x=xs,
        kernel=kernel,
        cells=cells,
        empty_cells=tuple(empty),
    )


def fit_event_hazard(
    data: Dataset,
    kernel: KernelConfig = KernelConfig(),
    ridge: float = 0.5,
    max_time: int | None = None,
) -> KernelHazardModel:
    """Fit the event hazard: labels 1(event, time = u) on each (u, a) risk set."""

    def labels(risk: np.ndarray, u: int) -> np.ndarray:
        return ((data.event[risk] == 1) & (data.time[risk] == u)).astype(float)

    return _fit_hazard(data, labels, kernel, ridge, max_time)


def fit_censor_hazard(
    data: Dataset,
    kernel: KernelConfig = KernelConfig(),
    ridge: float = 0.5,
    max_time: int | None = None,
) -> KernelHazardModel:
    """Fit the censoring hazard: the event fit with flipped event flags."""

    def labels(risk: np.ndarray, u: int) -> np.ndarray:
        return ((data.event[risk] == 0) & (data.time[risk] == u)).astype(float)

    return _fit_hazard(data, labels, kernel, ridge, max_time)


@dataclass(frozen=True)
class PropensityModel:
    """Linear logistic P(A=1|X); predictions clipped away from 0 and 1."""

    weights: np.ndarray
    intercept: float

    def prob(self, x: np.ndarray, a: int) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p1 = np.clip(
            _sigmoid(x @ self.weights + self.intercept),
            PROPENSITY_FLOOR,
            1.0 - PROPENSITY_FLOOR,
        )
        return p1 if a == 1 else 1.0 - p1


@dataclass(frozen=True)
class OraclePropensity:
    """Known assignment probability exposed through the propensity interface."""

    fn: Callable[[np.ndarray], np.ndarray]  # (X,) -> P(A=1|X)

    def prob(self, x: np.ndarray, a: int) -> np.ndarray:
        p1 = np.asarray(self.fn(np.atleast_2d(np.asarray(x, dtype=float))), dtype=float)
        return p1 if a == 1 else 1.0 - p1


def propensity_loss_grad(
    x: np.ndarray, a: np.ndarray, weights: np.ndarray, intercept: float
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the linear logistic fit and its gradient."""
    f = x @ weights + intercept
    value = float(np.sum(np.logaddexp(0.0, f) - a * f))
    p = _sigmoid(f)
    grad = np.concatenate([x.T @ (p - a), [float(np.sum(p - a))]])
    return value, grad


def fit_propensity(data: Dataset) -> PropensityModel:
    """Maximum-likelihood linear logistic regression of treatment on covariates."""
    a = data.a.astype(float)
    if a.min() == a.max():
        raise EstimationError("propensity fit needs both arms present")
    x = data.x
    theta = np.zeros(data.d + 1)
    z = np.hstack([x, np.ones((data.n, 1))])
    value, grad = propensity_loss_grad(x, a, theta[:-1], theta[-1])
    for _ in range(PROPENSITY_MAX_ITER):
        if float(np.linalg.norm(grad)) <= PROPENSITY_TOL:
            break
        p = np.clip(_sigmoid(z @ theta), _P_EPS, 1.0 - _P_EPS)
        w = p * (1.0 - p)
        hess = z.T @ (w[:, None] * z)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(hess + 1e-10 * np.eye(len(theta)), grad)
        descent = float(grad @ step)
        if not np.isfinite(descent) or descent <= 0.0:
            step, descent = grad, float(grad @ grad)
        eta = 1.0
        for _ in range(50):
            new_theta = theta - eta * step
            new_value, new_grad = propensity_loss_grad(x, a, new_theta[:-1], new_theta[-1])
            if new_value <= value - 1e-4 * eta * descent:
                break
            eta *= 0.5
        theta, value, grad = new_theta, new_value, new_grad
    return PropensityModel(weights=theta[:-1], intercept=float(theta[-1]))

