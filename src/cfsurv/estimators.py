"""Counterfactual survival estimators.

Five estimators of psi^{a,t} = P(T(a) > t) and of the survival effect
psi^{1,t} - psi^{0,t}: outcome regression (or), inverse probability
weighting (ipw), doubly robust with and without denominator clipping
(dr, dr-clip), and the augmented minimax balancing estimator (balance).
Standard errors come from the per-unit influence values and a normal
t-statistic interval.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .balance import (
    SolverConfig,
    derivative_direction,
    explicit_riesz,
    solve_balance_weights,
)
from .errors import EstimationError, LargeWeightWarning, NumericalError
from .hazard import (
    PROPENSITY_FLOOR,
    KernelConfig,
    fit_censor_hazard,
    fit_event_hazard,
    fit_propensity,
)
from .kernels import gram
from .survival import Dataset, active_matrix, event_matrix

__all__ = [
    "ESTIMATOR_KINDS",
    "EstimandSpec",
    "EstimateResult",
    "EstimatorParams",
    "FoldPlan",
    "plugin_estimate",
    "confidence_interval",
    "augmented_estimate",
    "or_estimate",
    "ipw_estimate",
    "dr_estimate",
    "balance_estimate",
    "effect_estimate",
    "run_estimator",
]

ESTIMATOR_KINDS = ("or", "ipw", "dr", "dr-clip", "balance")

ARMS = (0, 1, "diff")


@dataclass(frozen=True)
class EstimandSpec:
    """Which counterfactual survival value to target: arm (or 'diff') and time."""

    a: int | str
    t: int

    def __post_init__(self) -> None:
        if self.a not in ARMS:
            raise ValueError(f"arm must be 0, 1, or 'diff', got {self.a!r}")
        if self.t < 0:
            raise ValueError(f"time must be >= 0, got {self.t}")


@dataclass(frozen=True)
class EstimatorParams:
    """Shared tuning knobs; defaults match the reference experimental setup."""

    kernel: KernelConfig = KernelConfig()
    ridge: float = 0.5
    sigma2: float = 1.0
    solver_tol: float = 1e-8
    clip_floor: float = 1e-3
    dr_folds: int = 5
    balance_folds: int = 2


@dataclass(frozen=True)
class FoldPlan:
    """A seeded partition of unit indices into n_folds non-empty folds."""

    assignment: np.ndarray
    n_folds: int

    def __post_init__(self) -> None:
        counts = np.bincount(self.assignment, minlength=self.n_folds)
        if len(counts) != self.n_folds or (counts == 0).any():
            raise ValueError("every fold must be non-empty")
        if self.assignment.min() < 0:
            raise ValueError("fold labels must be non-negative")

    @classmethod
    def make(cls, n: int, n_folds: int, seed: int) -> "FoldPlan":
        if n_folds < 1 or n_folds > n:
            raise ValueError(f"cannot split {n} units into {n_folds} folds")
        perm = np.random.default_rng(seed).permutation(n)
        assignment = np.empty(n, dtype=np.int64)
        assignment[perm] = np.arange(n) % n_folds
        return cls(assignment=assignment, n_folds=n_folds)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


@dataclass(frozen=True)
class EstimateResult:
    kind: str
    arm: int | str
    t: int
    point: float
    influence: np.ndarray
    std_error: float
    ci_low: float
    ci_high: float

    @property
    def n(self) -> int:
        return len(self.influence)


def plugin_estimate(s_hat_t: np.ndarray) -> float:
    """Sample average of predicted survival values."""
    s_hat_t = np.asarray(s_hat_t, dtype=float)
    if s_hat_t.size == 0:
        raise EstimationError("plug-in estimate of an empty sample")
    return float(np.mean(s_hat_t))


def confidence_interval(
    point: float, influence: np.ndarray, level: float = 0.95
) -> tuple[float, float]:
    """Normal t-statistic interval point +- z * sqrt(var(influence)/n)."""
    influence = np.asarray(influence, dtype=float)
    n = influence.size
    if n < 2:
        raise EstimationError("confidence interval needs at least 2 influence values")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = float(ndtri(0.5 + level / 2.0))
    half = z * float(np.sqrt(np.var(influence, ddof=1) / n))
    return point - half, point + half


def _result(kind: str, arm: int | str, t: int, point: float, influence: np.ndarray) -> EstimateResult:
    influence = np.asarray(influence, dtype=float)
    if influence.size > 1:
        se = float(np.sqrt(np.var(influence, ddof=1) / influence.size))
        lo, hi = confidence_interval(point, influence)
    else:
        se, lo, hi = float("nan"), float("nan"), float("nan")
    return EstimateResult(
        kind=kind, arm=arm, t=t, point=point, influence=influence,
        std_error=se, ci_low=lo, ci_high=hi,
    )


def augmented_estimate(
    s_hat_t: np.ndarray,
    gamma: np.ndarray,
    hazard_hat: np.ndarray,
    events: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Plug-in plus weighted hazard residuals; returns (point, influence).

    gamma, hazard_hat, and events are (n, t+1) matrices over times 0..t;
    s_hat_t is the predicted survival at t for the target arm.
    """
    s_hat_t = np.asarray(s_hat_t, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    hazard_hat = np.asarray(hazard_hat, dtype=float)
    events = np.asarray(events, dtype=float)
    if gamma.shape != hazard_hat.shape or gamma.shape != events.shape:
        raise ValueError("gamma, hazard, and event matrices must share a shape")
    if s_hat_t.shape != (gamma.shape[0],):
        raise ValueError("survival vector must have one entry per unit")
    correction = np.sum(gamma * (events - hazard_hat), axis=1)
    point = float(np.mean(s_hat_t) + np.mean(correction))
    influence = s_hat_t - point + correction
    return point, influence


def effect_estimate(result_a1: EstimateResult, result_a0: EstimateResult) -> EstimateResult:
    """Difference of two arm estimates on the same sample, unitwise influence."""
    if result_a1.n != result_a0.n:
        raise ValueError("arm estimates must come from the same aligned sample")
    if result_a1.t != result_a0.t or result_a1.kind != result_a0.kind:
        raise ValueError("arm estimates must target the same estimator and time")
    point = result_a1.point - result_a0.point
    influence = result_a1.influence - result_a0.influence
    return _result(result_a1.kind, "diff", result_a1.t, point, influence)


def _fit_event(data: Dataset, params: EstimatorParams, max_time: int):
    return fit_event_hazard(data, kernel=params.kernel, ridge=params.ridge, max_time=max_time)


def _fit_censor(data: Dataset, params: EstimatorParams, max_time: int):
    return fit_censor_hazard(data, kernel=params.kernel, ridge=params.ridge, max_time=max_time)


def _or_curves(data: Dataset, times: list[int], params: EstimatorParams):
    model = _fit_event(data, params, max_time=max(times))
    out: dict[tuple[int | str, int], EstimateResult] = {}
    for a in (0, 1):
        s = model.survival_matrix(data.x, a)
        for t in times:
            point = plugin_estimate(s[:, t])
            out[(a, t)] = _result("or", a, t, point, s[:, t] - point)
    for t in times:
        out[("diff", t)] = effect_estimate(out[(1, t)], out[(0, t)])
    return out, {}


def _ipw_core(
    data: Dataset, a: int, t: int, censor_model, propensity
) -> tuple[float, np.ndarray]:
    pi = propensity.prob(data.x, a)
    g = censor_model.survival_matrix(data.x, a)
    g_at_obs = g[np.arange(data.n), data.time]
    contributes = (data.a == a) & (data.event == 1) & (data.time <= t)
    if np.any(contributes & (g_at_obs <= PROPENSITY_FLOOR)) or np.any(
        contributes & ((pi <= PROPENSITY_FLOOR) | (pi >= 1.0 - PROPENSITY_FLOOR))
    ):
        warnings.warn(
            "inverse-probability denominators at their clamp floor; "
            "weights may be extreme",
            LargeWeightWarning,
            stacklevel=3,
        )
    term = np.where(contributes, 1.0 / (pi * g_at_obs), 0.0)
    summand = 1.0 - term
    point = float(np.mean(summand))
    return point, summand - point


def _ipw_curves(data: Dataset, times: list[int], params: EstimatorParams):
    censor = _fit_censor(data, params, max_time=max(max(times), int(data.time.max())))
    prop = fit_propensity(data)
    out: dict[tuple[int | str, int], EstimateResult] = {}
    for a in (0, 1):
        for t in times:
            point, infl = _ipw_core(data, a, t, censor, prop)
            out[(a, t)] = _result("ipw", a, t, point, infl)
    for t in times:
        out[("diff", t)] = effect_estimate(out[(1, t)], out[(0, t)])
    return out, {}


def _h_minus(s: np.ndarray, g: np.ndarray, t: int) -> np.ndarray:
    """Sub-survival at u-1: column u holds S_{u-1} * G_{u-1}, column 0 holds 1."""
    h = np.ones((s.shape[0], t + 1))
    if t >= 1:
        h[:, 1:] = s[:, :t] * g[:, :t]
    return h


def _augmented_curves(
    data: Dataset,
    kind: str,
    times: list[int],
    params: EstimatorParams,
    seed: int,
    oracle_models=None,
):
    """Shared cross-fitting loop for dr / dr-clip / balance."""
    max_t = max(times)
    n_folds = params.balance_folds if kind == "balance" else params.dr_folds
    clip = params.clip_floor if kind == "dr-clip" else None
    solver_cfg = SolverConfig(sigma2=params.sigma2, tol=params.solver_tol)

    if oracle_models is not None:
        folds = [(np.arange(data.n), oracle_models)]
    else:
        plan = FoldPlan.make(data.n, n_folds, seed)
        folds = []
        for f in range(n_folds):
            train = data.subset(plan.train_indices(f))
            if kind == "balance":
                models = (_fit_event(train, params, max_t),)
            else:
                models = (
                    _fit_event(train, params, max_t),
                    _fit_censor(train, params, max(max_t, int(data.time.max()))),
                    fit_propensity(train),
                )
            folds.append((plan.fold_indices(f), models))

    points: dict[tuple[int, int], list[float]] = {(a, t): [] for a in (0, 1) for t in times}
    influence: dict[tuple[int, int], np.ndarray] = {
        (a, t): np.zeros(data.n) for a in (0, 1) for t in times
    }
    failures: dict[tuple[int | str, int], str] = {}

    for idx, models in folds:
        fold = data.subset(idx)
        event_model = models[0]
        if kind == "balance":
            xs = event_model.standardize(fold.x)
            k = gram(xs, xs, params.kernel)
        for a in (0, 1):
            lam = event_model.hazard_matrix(fold.x, a)
            s = np.cumprod(1.0 - lam, axis=1)  # survival_matrix without a second prediction
            if kind != "balance":
                g = models[1].survival_matrix(fold.x, a)
                pi = models[2].prob(fold.x, a)
            for t in times:
                if (a, t) in failures:
                    continue
                try:
                    r = derivative_direction(s, t)
                    act = active_matrix(fold, a, t)
                    if kind == "balance":
                        w = solve_balance_weights(k, r, act, solver_cfg)
                        gamma = r * act * w.omega
                    else:
                        gamma = explicit_riesz(r, act, pi, _h_minus(s, g, t), clip)
                    point_f, infl_f = augmented_estimate(
                        s[:, t], gamma, lam[:, : t + 1], event_matrix(fold, t)
                    )
                except NumericalError as err:
                    failures[(a, t)] = str(err)
                    continue
                points[(a, t)].append(point_f)
                influence[(a, t)][idx] = infl_f

    out: dict[tuple[int | str, int], EstimateResult] = {}
    for a in (0, 1):
        for t in times:
            if (a, t) in failures:
                continue
            point = float(np.mean(points[(a, t)]))
            out[(a, t)] = _result(kind, a, t, point, influence[(a, t)])
    for t in times:
        if (0, t) in out and (1, t) in out:
            out[("diff", t)] = effect_estimate(out[(1, t)], out[(0, t)])
        else:
            failures[("diff", t)] = failures.get((1, t)) or failures.get((0, t), "arm failed")
    return out, failures


def run_estimator(
    data: Dataset,
    kind: str,
    times: list[int],
    params: EstimatorParams = EstimatorParams(),
    seed: int = 0,
    oracle_models=None,
):
    """Estimate psi^{a,t} for both arms and their difference at each time.

    Returns (results, failures): results maps (arm, t) with arm in
    {0, 1, "diff"} to an EstimateResult; failures maps cells that raised a
    numerical error to the error message.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")
    if not times:
        raise ValueError("need at least one evaluation time")
    if max(times) > data.grid.t_max or min(times) < 0:
        raise ValueError(f"times must lie in [0, {data.grid.t_max}]")
    if kind == "or":
        return _or_curves(data, times, params)
    if kind == "ipw":
        return _ipw_curves(data, times, params)
    return _augmented_curves(data, kind, times, params, seed, oracle_models)


def _single(data, kind, spec, params, seed, oracle_models=None) -> EstimateResult:
    results, failures = run_estimator(
        data, kind, [spec.t], params, seed, oracle_models=oracle_models
    )
    key = (spec.a, spec.t)
    if key not in results:
        raise NumericalError(failures.get(key, "estimation failed"))
    return results[key]


def or_estimate(
    data: Dataset,
    spec: EstimandSpec,
    kernel: KernelConfig = KernelConfig(),
    ridge: float = 0.5,
) -> EstimateResult:
    """Outcome regression: full-sample hazard fit, plug-in, no correction."""
    params = EstimatorParams(kernel=kernel, ridge=ridge)
    return _single(data, "or", spec, params, seed=0)


def ipw_estimate(
    data: Dataset, spec: EstimandSpec, censor_model, propensity
) -> EstimateResult:
    """Inverse probability of censoring and treatment weighting."""
    out: dict[int, EstimateResult] = {}
    arms = (0, 1) if spec.a == "diff" else (spec.a,)
    for a in arms:
        point, infl = _ipw_core(data, a, spec.t, censor_model, propensity)
        out[a] = _result("ipw", a, spec.t, point, infl)
    if spec.a == "diff":
        return effect_estimate(out[1], out[0])
    return out[spec.a]


def dr_estimate(
    data: Dataset,
    spec: EstimandSpec,
    kernel: KernelConfig = KernelConfig(),
    ridge: float = 0.5,
    clip: float | None = None,
    n_folds: int = 5,
    seed: int = 0,
    models=None,
) -> EstimateResult:
    """Doubly robust estimator with 5-fold cross-fitting.

    Pass clip=1e-3 for the clipped variant. `models` may supply oracle
    (event, censor, propensity) models, in which case no fitting happens
    and the whole sample is evaluated in one pass.
    """
    kind = "dr-clip" if clip is not None else "dr"
    params = EstimatorParams(
        kernel=kernel, ridge=ridge, clip_floor=clip if clip is not None else 1e-3,
        dr_folds=n_folds,
    )
    return _single(data, kind, spec, params, seed, oracle_models=models)


def balance_estimate(
    data: Dataset,
    spec: EstimandSpec,
    kernel: KernelConfig = KernelConfig(),
    ridge: float = 0.5,
    solver_cfg: SolverConfig = SolverConfig(),
    n_folds: int = 2,
    seed: int = 0,
    event_model=None,
) -> EstimateResult:
    """Augmented minimax balancing estimator with 2-fold cross-fitting."""
    params = EstimatorParams(
        kernel=kernel, ridge=ridge, sigma2=solver_cfg.sigma2,
        solver_tol=solver_cfg.tol, balance_folds=n_folds,
    )
    oracle = (event_model,) if event_model is not None else None
    return _single(data, "balance", spec, params, seed, oracle_models=oracle)
