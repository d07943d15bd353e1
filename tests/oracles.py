"""Reference implementations the tests compare the package against.

None of these runs in cfsurv itself: the Newton loop here steps one
problem at a time where cfsurv steps a fit's cells together, the fits
stop on their own residual norms, the balance solve never evaluates its
objective, Gram matrices are built in one vectorized pass, nuisance
curves come from fitted models only, a fitted hazard model is read as
arrays, not as cells, the synthetic ground truth is exact quadrature,
not Monte Carlo, and an estimator's expectation is a weighted sum over
every outcome of a discrete model, not a sample mean.
"""

import numpy as np
from scipy.special import expit

from cfsurv.balance import direction_ratio
from cfsurv.dgp import SYNTH_D, T_MAX, true_event_hazard
from cfsurv.estimators import Nuisances
from cfsurv.survival import Dataset, TimeGrid


def gram_by_differences(x: np.ndarray, y: np.ndarray, length_scale: float) -> np.ndarray:
    """Kernel matrix exp(-sum_k (x_ik - y_jk)^2 / (2 l^2)) from the (n, m, d) difference array."""
    diff = np.asarray(x, dtype=float)[:, None, :] - np.asarray(y, dtype=float)[None, :, :]
    return np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / (2.0 * length_scale**2))


def rbf(x: np.ndarray, y: np.ndarray, length_scale: float) -> float:
    """Kernel value exp(-||x - y||^2 / (2 l^2)) for a single pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * length_scale**2)))


def damped_newton(theta, residual, newton_step, max_iter):
    """The damped Newton loop for one problem; returns (theta, converged, backtracked).

    newton_step(theta, r) returns the step from theta, whose residual is
    r, or None once the stopping norm of r is within tolerance. Each step
    halves eta until the residual norm falls by (1 - 1e-4 eta), trying at
    most 50 values; backtracked says whether any step halved eta.
    """
    r = residual(theta)
    merit = np.sqrt(r @ r)
    backtracked = False
    for _ in range(max_iter):
        step = newton_step(theta, r)
        if step is None:
            return theta, True, backtracked
        eta = 1.0
        for _ in range(50):
            trial = theta - eta * step
            trial_r = residual(trial)
            trial_merit = np.sqrt(trial_r @ trial_r)
            if trial_merit <= (1.0 - 1e-4 * eta) * merit:
                break
            eta *= 0.5
            backtracked = True
        theta, r, merit = trial, trial_r, trial_merit
    return theta, False, backtracked


def arm_order(data, a):
    """Arm a's units by exit time, descending, censored first at ties: `KernelBasis.of`'s order."""
    arm = np.flatnonzero(data.a == a)
    return arm[np.lexsort((data.event[arm], -data.time[arm]))]


def newton_cells(model, data):
    """Each Newton cell of a hazard model fit on data as (u, a, risk, alpha, b), arm-major.

    risk holds the training indices of the cell's risk set
    {a_i = a, time_i >= u}, in the basis's exit order (a prefix of
    arm_order(data, a)); alpha is the model's coef over them (the leading
    rows of coef[a]) and b its intercept. The cells come in the order of
    the fit's lockstep cells.
    """
    for a in (0, 1):
        order = arm_order(data, a)
        for u in np.flatnonzero(np.isnan(model.level[a])):
            risk = order[: np.count_nonzero(data.time[order] >= u)]
            yield int(u), a, risk, model.coef[a][: risk.size, u], float(model.intercept[a, u])


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
    p = expit(f)
    grad_alpha = k @ ((p - y) + ridge * alpha)
    grad_b = float(np.sum(p - y))
    return value, np.concatenate([grad_alpha, [grad_b]])


def propensity_loss_grad(
    x: np.ndarray, a: np.ndarray, weights: np.ndarray, intercept: float
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the linear logistic fit and its gradient in (weights, intercept).

    `fit_propensity` iterates on this gradient in the coordinates of an
    orthonormal basis of the standardized covariates; at its optimum this
    one vanishes too.
    """
    f = x @ weights + intercept
    value = float(np.sum(np.logaddexp(0.0, f) - a * f))
    p = expit(f)
    return value, np.concatenate([x.T @ (p - a), [float(np.sum(p - a))]])


def derivative_direction(s_hat: np.ndarray, t: int) -> np.ndarray:
    """r[i, u] = S_t(X_i) * q[i, u] with q = direction_ratio(s_hat, t).

    The result has shape (n, t + 1) with a zero column at u = 0; every
    entry lies in [-1, 0].
    """
    q = direction_ratio(s_hat, t)
    return np.asarray(s_hat, dtype=float)[:, t, None] * q


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
    sigma2: float,
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
        total += sigma2 / n * float(
            np.sum(active[:, u] * r[:, u] ** 2 * omega[:, u] ** 2)
        )
    return total


def known_nuisances(data: Dataset, event=None, censor=None, propensity=None) -> Nuisances:
    """One whole-sample fold of known curves at the covariates of data.

    event and censor are hazard functions (x, a, u) -> (n,) and
    propensity is x -> P(A=1|X); an omitted function leaves its curves
    None. Each hazard matrix is filled one u at a time, with column 0
    held at 0. The fold's xs are the raw covariates, which the balance
    Gram is then built from.
    """
    x = data.x

    def hazards(fn, a):
        out = np.zeros((data.n, data.grid.n_points))
        for u in range(1, data.grid.n_points):
            out[:, u] = fn(x, a, u)
        return out

    curves = []
    for a in (0, 1):
        lam = s = g = pi = None
        if event is not None:
            lam = hazards(event, a)
            s = np.cumprod(1.0 - lam, axis=1)
        if censor is not None:
            g = np.cumprod(1.0 - hazards(censor, a), axis=1)
        if propensity is not None:
            p1 = np.asarray(propensity(x), dtype=float)
            pi = p1 if a == 1 else 1.0 - p1
        curves.append((lam, s, g, pi))
    return Nuisances(((np.arange(data.n), x, tuple(curves)),))


def discrete_outcomes(p_x1: float, p_a1: np.ndarray, event: np.ndarray, censor: np.ndarray):
    """Every outcome of a small discrete model as one Dataset row, and its probability.

    x is 0 or 1 with P(x = 1) = p_x1, a is 0 or 1 with P(A = 1 | x) =
    p_a1[x], and given (a, x) two independent times are drawn: T_event in
    1..t_max+1 with hazard event[a, x, u] (t_max+1 means no event by
    t_max) and T_censor in 1..t_max with hazard censor[a, x, u], which
    must be 1 at t_max. Both hazard arrays are (2, 2, t_max + 1). Each
    outcome is observed as `gen_synthetic` observes a unit: time =
    min(T_event, T_censor), event = 1(T_event <= T_censor). The
    probability-weighted mean of a per-unit quantity over the rows is
    its exact expectation. Returns (data, weights), one row per (a, x,
    T_event, T_censor): 4 (t_max + 1) t_max rows.
    """
    t_max = event.shape[2] - 1
    assert np.all(censor[:, :, t_max] == 1.0)

    def first_exit(h):
        """P(T = u) for u in 1..t_max, then P(T > t_max)."""
        s = np.cumprod(1.0 - h[:, :, 1:], axis=2)
        before = np.concatenate([np.ones((2, 2, 1)), s[:, :, :-1]], axis=2)
        return np.concatenate([before * h[:, :, 1:], s[:, :, -1:]], axis=2)

    p_event, p_censor = first_exit(event), first_exit(censor)[:, :, :t_max]
    p_ax = np.array([[(1 - p_x1) * (1 - p_a1[0]), p_x1 * (1 - p_a1[1])],
                     [(1 - p_x1) * p_a1[0], p_x1 * p_a1[1]]])
    a, x, te, tc = (v.ravel() for v in np.meshgrid(
        [0, 1], [0, 1], np.arange(1, t_max + 2), np.arange(1, t_max + 1), indexing="ij"))
    weights = p_ax[a, x] * p_event[a, x, te - 1] * p_censor[a, x, tc - 1]
    data = Dataset(x=x[:, None].astype(float), a=a, time=np.minimum(te, tc),
                   event=(te <= tc).astype(int), grid=TimeGrid(t_max))
    return data, weights


def monte_carlo_truth(mc_n: int, seed: int):
    """Monte Carlo psi^{a,t} and delta^t with their standard errors.

    Draws mc_n synthetic covariate rows (all SYNTH_D columns, as the
    generator does) and multiplies in the true event hazard one timestep
    at a time. Returns (psi, delta, psi_se, delta_se).
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(mc_n)
    eps = rng.standard_normal((mc_n, SYNTH_D))
    x = np.sqrt(0.2) * g[:, None] + np.sqrt(0.8) * eps
    psi = np.ones((2, T_MAX + 1))
    psi_se = np.zeros((2, T_MAX + 1))
    delta = np.zeros(T_MAX + 1)
    delta_se = np.zeros(T_MAX + 1)
    surv = {a: np.ones(mc_n) for a in (0, 1)}
    root = np.sqrt(mc_n)
    for t in range(1, T_MAX + 1):
        for a in (0, 1):
            surv[a] = surv[a] * (1.0 - true_event_hazard(x, a, t))
            psi[a, t] = surv[a].mean()
            psi_se[a, t] = surv[a].std() / root
        diff = surv[1] - surv[0]
        delta[t] = diff.mean()
        delta_se[t] = diff.std() / root
    return psi, delta, psi_se, delta_se
