"""Nuisance-function fitting.

The event hazard is fit as independent kernel logistic regressions, one
per (time u, arm a), each trained on the risk set {a_i = a, time_i >= u}
of that cell. The censoring hazard is the same fit with the event flags
flipped. The per-cell objective is the summed binary cross-entropy
plus (ridge / 2) * alpha' K alpha with a fixed coefficient, so the
penalty's weight relative to the mean loss scales like ridge / risk-set
size: late, thin cells are smoothed hard while large risk sets keep
their flexibility. The intercept is unpenalized, which makes every
fitted cell mean-calibrated on its risk set; single-class cells sit at
the boundary of the likelihood and are represented by the clamp limits
directly. The propensity is an unpenalized linear logistic regression.

The event and censoring fits of one training fold share one
`KernelBasis`, the only holder of the fold's kernel features: the
standardization, the standardized training covariates and their Gram
matrix, built once. A fitted `KernelHazardModel` holds only its cells.
Prediction takes one input, the basis's Gram matrix of the units to
predict (`KernelBasis.prediction_gram`, or `k_train` for the training
units), and is one matrix product per model and arm: every Newton
cell's alpha is scattered into its time's column of a coefficient
matrix (zero outside the cell's risk set), so the logits of all times
are k_pred @ A + b, and constant and empty cells then overwrite their
columns with their level.

Both logistic fits use one damped Newton method (`_damped_newton`),
which backtracks on the residual norm, and every fit that stops at its
iteration cap reports it with a ConvergenceWarning naming the fit. A
kernel cell's iterate carries its linear predictor f = K alpha + b
alongside (alpha, b) and updates it with the step, so each Newton step
evaluates expit once and a line-search trial needs no product with K.
Its Newton step is the exact solution of the (m + 1)-square Jacobian
system, obtained from one Cholesky factorization of the symmetric
positive definite m x m matrix S K S + ridge I (S = diag(sqrt(w))) by
LAPACK dposv, for every risk-set size; a factorization that fails
raises NumericalError naming the fit and the cell.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv as _dposv
from scipy.special import expit

from .errors import ConvergenceWarning, CoverageWarning, EstimationError, NumericalError
from .kernels import KernelConfig, gram
from .survival import Dataset, TimeGrid, active_matrix, event_matrix, standardization

__all__ = [
    "HAZARD_FLOOR",
    "HAZARD_CEIL",
    "PROPENSITY_FLOOR",
    "KernelBasis",
    "KernelHazardModel",
    "PropensityModel",
    "fit_event_hazard",
    "fit_censor_hazard",
    "fit_propensity",
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


def _damped_newton(theta, residual, newton_step, max_iter):
    """Damped Newton for residual(theta) = 0; returns (theta, converged).

    newton_step(theta, r) returns the step from theta, whose residual is
    r, or None once the fit's stopping norm of r is within its tolerance,
    so a fit forms the products its norm and its step share once. The
    loop stops there, or after max_iter steps. Each step halves eta
    until the residual norm falls by (1 - 1e-4 eta); a loss-value test
    would stall at roundoff near the optimum and on the flat directions
    of an ill-conditioned Gram matrix.
    """
    r = residual(theta)
    merit = math.sqrt(r @ r)
    for _ in range(max_iter):
        step = newton_step(theta, r)
        if step is None:
            return theta, True
        eta = 1.0
        for _ in range(50):
            trial = theta - eta * step
            trial_r = residual(trial)
            trial_merit = math.sqrt(trial_r @ trial_r)
            if trial_merit <= (1.0 - 1e-4 * eta) * merit:
                break
            eta *= 0.5
        theta, r, merit = trial, trial_r, trial_merit
    return theta, False


def _newton_klr(k: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, float, bool]:
    """Newton for one kernel-logistic cell; returns (alpha, b, converged).

    The residual is the stationarity system (p - y) + ridge alpha = 0,
    sum(p - y) = 0 (the loss gradient with K factored out of its alpha
    block), whose Jacobian [[W K + ridge I, w], [w' K, sum(w)]] is
    nonsingular for ridge > 0 and mixed labels. The stopping norm is the
    true loss gradient's.

    The Newton step solves that Jacobian system exactly through the
    symmetric positive definite B = S K S + ridge I, S = diag(s),
    s = sqrt(w). With g = K d_alpha + d_b (the step of f), the alpha rows
    read w * g + ridge d_alpha = r_alpha and the intercept row reads
    w'g = r_b, so h = s * g solves B h = s * (K r_alpha) + ridge d_b s.
    One LAPACK dposv call (Cholesky factor and both solves) gives
    B u = s * (K r_alpha) and B v = s; then h = u + ridge d_b v, the
    intercept row gives d_b = (r_b - s'u) / (ridge s'v), and
    d_alpha = (r_alpha - s * h) / ridge. For a Gram matrix K, B's
    eigenvalues lie in [ridge, ridge + m / 4] and s'v = s'B^-1 s > 0.
    A B that is not positive definite (non-finite, or K not positive
    semi-definite) raises NumericalError.

    The iterate is (alpha, b, f) with the linear predictor f = K alpha + b
    carried along: a step returns (d_alpha, d_b, K d_alpha + d_b), so
    theta - eta * step moves f exactly as it moves (alpha, b), and the
    residual of a line-search trial costs one expit and no matvec.
    """
    m = len(y)
    ybar = min(max(float(np.mean(y)), 1e-3), 1.0 - 1e-3)
    theta = np.zeros(2 * m + 1)
    theta[m:] = np.log(ybar / (1.0 - ybar))  # b, and f = b at alpha = 0
    # B is factored in place in Fortran order; it is filled row by row
    # through the C-order view b_rows = B' (B is symmetric)
    b_rows = np.empty((m, m))
    b_diag = b_rows.reshape(-1)[:: m + 1]
    rhs = np.empty((m, 2), order="F")

    def residual(theta_):
        r = np.empty(m + 1)
        np.subtract(expit(theta_[m + 1 :]), y, out=r[:m])
        r[m] = r[:m].sum()
        r[:m] += ridge * theta_[:m]
        return r

    def newton_step(theta_, r):
        kr = k @ r[:m]
        if math.sqrt(kr @ kr + r[m] ** 2) <= NEWTON_TOL:
            return None  # the loss gradient (K r_alpha, r_b) is small enough
        p = y + (r[:m] - ridge * theta_[:m])  # the p of residual(theta_)
        s = np.sqrt(np.maximum(p * (1.0 - p), _P_EPS))
        np.multiply(k, s, out=b_rows)
        np.multiply(b_rows, s[:, None], out=b_rows)
        np.add(b_diag, ridge, out=b_diag)
        np.multiply(s, kr, out=rhs[:, 0])
        rhs[:, 1] = s
        _, uv, info = _dposv(b_rows.T, rhs, lower=1, overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise NumericalError(f"Newton system not positive definite (dposv info {info})")
        u, v = uv[:, 0], uv[:, 1]
        d_b = (r[m] - s @ u) / (ridge * (s @ v))
        d_alpha = (r[:m] - s * (u + ridge * d_b * v)) / ridge
        return np.concatenate([d_alpha, [d_b], k @ d_alpha + d_b])

    theta, converged = _damped_newton(theta, residual, newton_step, NEWTON_MAX_ITER)
    return theta[:m].copy(), float(theta[m]), converged  # the copy lets f go


@dataclass(frozen=True)
class _Cell:
    """One fitted (u, a) hazard: dual coefficients over its risk set."""

    alpha: np.ndarray | None  # None for constant cells
    intercept: float
    risk_idx: np.ndarray | None  # indices into the training matrix
    constant: float | None = None


@dataclass(frozen=True)
class KernelBasis:
    """The kernel features of one training set, shared by its hazard fits.

    Holds the standardization, the standardized training covariates and
    their Gram matrix. The event and censoring fits of one training fold
    take the same basis, so the Gram matrix is built once per fold, and
    the fitted models are predicted from the basis's Gram matrices.
    """

    mean: np.ndarray
    scale: np.ndarray
    train_x: np.ndarray
    kernel: KernelConfig
    k_train: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, kernel: KernelConfig) -> "KernelBasis":
        mean, scale = standardization(x)
        xs = (x - mean) / scale
        return cls(mean, scale, xs, kernel, gram(xs, xs, kernel))

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x, dtype=float)) - self.mean) / self.scale

    def prediction_gram(self, x: np.ndarray) -> np.ndarray:
        """Kernel matrix of x against the training covariates."""
        return gram(self.standardize(x), self.train_x, self.kernel)


@dataclass(frozen=True)
class KernelHazardModel:
    """Per-(u, a) kernel logistic hazards fit on one `KernelBasis`."""

    grid: TimeGrid
    cells: dict[tuple[int, int], _Cell]
    empty_cells: tuple[tuple[int, int], ...] = ()

    def hazard_matrix(self, k_pred: np.ndarray, a: int) -> np.ndarray:
        """(n, t_max + 1) predicted hazards in arm a; column 0 is identically 0.

        k_pred is the fit's basis's Gram matrix of the n units to predict
        (`prediction_gram`, or `k_train` for the training units), shared
        by both arms and by every model of that basis.
        """
        # every Newton cell's alpha scattered into its column over its risk set
        n_pts = self.grid.n_points
        coef = np.zeros((k_pred.shape[1], n_pts))
        intercept = np.zeros(n_pts)
        levels = {0: 0.0}
        for u in range(1, n_pts):
            cell = self.cells.get((u, a))
            if cell is None:
                levels[u] = HAZARD_FLOOR
            elif cell.constant is not None:
                levels[u] = cell.constant
            else:
                coef[cell.risk_idx, u] = cell.alpha
                intercept[u] = cell.intercept
        out = np.clip(expit(k_pred @ coef + intercept), HAZARD_FLOOR, HAZARD_CEIL)
        for u, level in levels.items():
            out[:, u] = level
        return out


def fit_event_hazard(
    data: Dataset, basis: KernelBasis, ridge: float = 0.5, max_time: int | None = None
) -> KernelHazardModel:
    """Fit the event hazard: labels 1(event, time = u) on each (u, a) risk set.

    Risk sets and labels are `active_matrix` and `event_matrix` columns,
    for u = 1..max_time (default: the grid's t_max). `basis` is
    `KernelBasis.of(data.x, kernel)`, built once and shared with the
    censoring fit.
    """
    return _fit_cells(data, basis, ridge, max_time, "event hazard")


def fit_censor_hazard(
    data: Dataset, basis: KernelBasis, ridge: float = 0.5, max_time: int | None = None
) -> KernelHazardModel:
    """Fit the censoring hazard: the event fit with flipped event flags."""
    flipped = Dataset(data.x, data.a, data.time, 1 - data.event, data.grid)
    return _fit_cells(flipped, basis, ridge, max_time, "censoring hazard")


def _fit_cells(
    data: Dataset, basis: KernelBasis, ridge: float, max_time: int | None, what: str
) -> KernelHazardModel:
    """One kernel logistic fit per (u, a) cell of data's risk sets.

    Warnings start with `what` and point at the caller of the public fit;
    a cell whose Newton system cannot be factored raises NumericalError
    naming `what` and the cell.
    """
    if basis.train_x.shape != data.x.shape:
        raise ValueError("basis was not built from these covariates")
    if max_time is None:
        max_time = data.grid.t_max
    labels = event_matrix(data, max_time)
    cells: dict[tuple[int, int], _Cell] = {}
    empty: list[tuple[int, int]] = []
    stalled: list[tuple[int, int]] = []
    for a in (0, 1):
        active = active_matrix(data, a, max_time)
        for u in range(1, max_time + 1):
            risk = np.flatnonzero(active[:, u])
            if risk.size == 0:
                cells[(u, a)] = _Cell(None, 0.0, None, constant=HAZARD_FLOOR)
                empty.append((u, a))
                continue
            y = labels[risk, u]
            if y.min() == y.max():
                # with an unpenalized intercept the single-class optimum sits
                # at the boundary; represent it by the clamp limit directly
                level = HAZARD_FLOOR if y[0] == 0.0 else HAZARD_CEIL
                cells[(u, a)] = _Cell(None, 0.0, None, constant=level)
                continue
            k_sub = basis.k_train[np.ix_(risk, risk)]
            try:
                alpha, b, converged = _newton_klr(k_sub, y, ridge)
            except NumericalError as err:
                raise NumericalError(f"{what}: cell {(u, a)}: {err}") from err
            if not converged:
                stalled.append((u, a))
            cells[(u, a)] = _Cell(alpha=alpha, intercept=b, risk_idx=risk)
    if empty:
        warnings.warn(
            f"{what}: {len(empty)} (time, arm) cells had empty risk sets; "
            "constant floor hazard used",
            CoverageWarning,
            stacklevel=3,
        )
    if stalled:
        warnings.warn(
            f"{what}: {len(stalled)} (time, arm) cells stopped after {NEWTON_MAX_ITER} "
            f"Newton iterations above gradient tolerance {NEWTON_TOL:.1e}: {stalled}",
            ConvergenceWarning,
            stacklevel=3,
        )
    return KernelHazardModel(grid=data.grid, cells=cells, empty_cells=tuple(empty))


@dataclass(frozen=True)
class PropensityModel:
    """Linear logistic P(A=1|X); predictions clipped away from 0 and 1."""

    weights: np.ndarray
    intercept: float

    def prob(self, x: np.ndarray, a: int) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p1 = np.clip(
            expit(x @ self.weights + self.intercept),
            PROPENSITY_FLOOR,
            1.0 - PROPENSITY_FLOOR,
        )
        return p1 if a == 1 else 1.0 - p1


def _propensity_grad(x, a, weights, intercept) -> np.ndarray:
    """Gradient in (weights, intercept) of the linear logistic negative log-likelihood."""
    p = expit(x @ weights + intercept)
    return np.concatenate([x.T @ (p - a), [float(np.sum(p - a))]])


def fit_propensity(data: Dataset) -> PropensityModel:
    """Maximum-likelihood linear logistic regression of treatment on covariates.

    Newton on the likelihood gradient, to norm <= PROPENSITY_TOL; warns
    if PROPENSITY_MAX_ITER steps do not get there.
    """
    a = data.a.astype(float)
    if a.min() == a.max():
        raise EstimationError("propensity fit needs both arms present")
    z = np.hstack([data.x, np.ones((data.n, 1))])

    def newton_step(theta, grad):
        if np.linalg.norm(grad) <= PROPENSITY_TOL:
            return None
        p = np.clip(expit(z @ theta), _P_EPS, 1.0 - _P_EPS)
        hess = z.T @ ((p * (1.0 - p))[:, None] * z)
        try:
            return np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return np.linalg.solve(hess + 1e-10 * np.eye(len(theta)), grad)

    theta, converged = _damped_newton(
        np.zeros(data.d + 1),
        lambda theta: _propensity_grad(data.x, a, theta[:-1], theta[-1]),
        newton_step, PROPENSITY_MAX_ITER,
    )
    if not converged:
        warnings.warn(
            f"propensity fit stopped after {PROPENSITY_MAX_ITER} Newton iterations "
            f"above gradient tolerance {PROPENSITY_TOL:.1e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return PropensityModel(weights=theta[:-1], intercept=float(theta[-1]))
