"""Counterfactual survival estimators.

Five estimators of psi^{a,t} = P(T(a) > t) and of the survival effect
psi^{1,t} - psi^{0,t}: outcome regression (or), inverse probability
weighting (ipw), doubly robust with and without denominator clipping
(dr, dr-clip), and the augmented minimax balancing estimator (balance).

Estimation runs in two stages.

Fit stage: `fit_nuisances` fits the nuisance models a kind needs (event
hazard, censoring hazard, propensity) once per fold and returns them as
`Nuisances`, one (eval_idx, event, censor, propensity) entry per fold.
The kind table fixes the paper's design: or and ipw fit once on the
whole sample, dr and dr-clip share one 5-fold plan, balance uses 2
folds. Kinds with the same `nuisance_plan` get identical nuisances from
the same seed, so one fit serves all of them; known (oracle) models are
a one-fold `Nuisances.whole_sample`.

Evaluate stage: `run_estimator` loops over the folds, predicts on each
held-out fold and averages the fold estimates. or is the plug-in mean
of the predicted survival; dr and dr-clip add the hazard-residual
correction with explicit inverse-probability weights (clipped for
dr-clip); balance adds it with minimax balancing weights; ipw weights
the observed events. Standard errors come from the per-unit influence
values and a normal t-statistic interval.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, NamedTuple

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
    "EstimateResult",
    "EstimatorParams",
    "FoldPlan",
    "Nuisances",
    "plugin_estimate",
    "confidence_interval",
    "augmented_estimate",
    "effect_estimate",
    "nuisance_plan",
    "fit_nuisances",
    "run_estimator",
]


class _Kind(NamedTuple):
    folds: int  # 1: fit and evaluate on the whole sample
    models: tuple[bool, bool, bool]  # fit (event, censor, propensity)?
    clip: float | None = None  # floor on the explicit-weight denominator


_KINDS = {
    "or": _Kind(1, (True, False, False)),
    "ipw": _Kind(1, (False, True, True)),
    "dr": _Kind(5, (True, True, True)),
    "dr-clip": _Kind(5, (True, True, True), clip=1e-3),
    "balance": _Kind(2, (True, False, False)),
}

ESTIMATOR_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class EstimatorParams:
    """Tuning knobs; defaults match the reference experimental setup."""

    kernel: KernelConfig = KernelConfig()
    ridge: float = 0.5
    sigma2: float = 1.0


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


def _normal_interval(
    point: float, influence: np.ndarray, level: float
) -> tuple[float, float, float]:
    """(se, point - z * se, point + z * se) with se = sqrt(var(influence)/n)."""
    se = float(np.sqrt(np.var(influence, ddof=1) / influence.size))
    half = float(ndtri(0.5 + level / 2.0)) * se
    return se, point - half, point + half


def confidence_interval(
    point: float, influence: np.ndarray, level: float = 0.95
) -> tuple[float, float]:
    """Normal t-statistic interval point +- z * sqrt(var(influence)/n)."""
    influence = np.asarray(influence, dtype=float)
    if influence.size < 2:
        raise EstimationError("confidence interval needs at least 2 influence values")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return _normal_interval(point, influence, level)[1:]


def _result(kind: str, arm: int | str, t: int, point: float, influence: np.ndarray) -> EstimateResult:
    influence = np.asarray(influence, dtype=float)
    if influence.size > 1:
        se, lo, hi = _normal_interval(point, influence, 0.95)
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




def _ipw_core(
    data: Dataset, a: int, t: int, g: np.ndarray, pi: np.ndarray
) -> tuple[float, np.ndarray]:
    """IPW point and influence from censor survival g (n, t_max + 1) and P(A=a|X) pi."""
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
    term = np.zeros(data.n)
    term[contributes] = 1.0 / (pi * g_at_obs)[contributes]
    summand = 1.0 - term
    point = float(np.mean(summand))
    return point, summand - point


def _h_minus(s: np.ndarray, g: np.ndarray, t: int) -> np.ndarray:
    """Sub-survival at u-1: column u holds S_{u-1} * G_{u-1}, column 0 holds 1."""
    h = np.ones((s.shape[0], t + 1))
    if t >= 1:
        h[:, 1:] = s[:, :t] * g[:, :t]
    return h


@dataclass(frozen=True)
class Nuisances:
    """Fitted nuisance models, one (eval_idx, event, censor, propensity) entry per fold.

    Each entry's models were fit without the units in eval_idx (or on the
    whole sample when there is one fold) and are evaluated on those
    units. A model is None when the kind it was fit for does not use it.
    The models must cover the evaluation times they are used at.
    """

    folds: tuple[tuple[np.ndarray, Any, Any, Any], ...]

    @classmethod
    def whole_sample(cls, n: int, event=None, censor=None, propensity=None) -> "Nuisances":
        """One fold holding all n units, e.g. for known (oracle) models."""
        return cls(((np.arange(n), event, censor, propensity),))


def _spec(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ValueError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")
    return _KINDS[kind]


def _checked_spec(data: Dataset, kind: str, times: list[int]) -> _Kind:
    spec = _spec(kind)
    if not times:
        raise ValueError("need at least one evaluation time")
    if max(times) > data.grid.t_max or min(times) < 0:
        raise ValueError(f"times must lie in [0, {data.grid.t_max}]")
    return spec


def nuisance_plan(kind: str) -> tuple[int, tuple[bool, bool, bool]]:
    """(fold count, which of event/censor/propensity are fit) for a kind.

    Kinds with equal plans get identical nuisances from `fit_nuisances`
    on the same data, times, params and seed, so one fit serves them all.
    """
    return _spec(kind)[:2]


def fit_nuisances(
    data: Dataset,
    kind: str,
    times: list[int],
    params: EstimatorParams = EstimatorParams(),
    seed: int = 0,
) -> Nuisances:
    """Fit the nuisance models `kind` needs, cross-fitted over its seeded folds."""
    spec = _checked_spec(data, kind, times)
    use_event, use_censor, use_prop = spec.models
    max_t = max(times)
    censor_max_t = max(max_t, int(data.time.max()))

    def fit(train: Dataset):
        return (
            fit_event_hazard(train, kernel=params.kernel, ridge=params.ridge, max_time=max_t)
            if use_event else None,
            fit_censor_hazard(
                train, kernel=params.kernel, ridge=params.ridge, max_time=censor_max_t
            ) if use_censor else None,
            fit_propensity(train) if use_prop else None,
        )

    if spec.folds == 1:
        return Nuisances.whole_sample(data.n, *fit(data))
    plan = FoldPlan.make(data.n, spec.folds, seed)
    return Nuisances(tuple(
        (plan.fold_indices(f), *fit(data.subset(plan.train_indices(f))))
        for f in range(spec.folds)
    ))


def run_estimator(
    data: Dataset,
    kind: str,
    times: list[int],
    params: EstimatorParams = EstimatorParams(),
    seed: int = 0,
    nuisances: Nuisances | None = None,
):
    """Estimate psi^{a,t} for both arms and their difference at each time.

    Fits the nuisances with `fit_nuisances(data, kind, times, params,
    seed)` unless `nuisances` is given. Returns (results, failures):
    results maps (arm, t) with arm in {0, 1, "diff"} to an EstimateResult;
    failures maps cells that raised a numerical error to the error message.
    """
    spec = _checked_spec(data, kind, times)
    if nuisances is None:
        nuisances = fit_nuisances(data, kind, times, params, seed)
    use_event, use_censor, use_prop = spec.models
    for _, *models in nuisances.folds:
        if any(use and model is None for use, model in zip(spec.models, models)):
            raise ValueError(f"nuisances lack a model the {kind} estimator needs")

    points: dict[tuple[int, int], list[float]] = {(a, t): [] for a in (0, 1) for t in times}
    influence: dict[tuple[int, int], np.ndarray] = {
        (a, t): np.zeros(data.n) for a in (0, 1) for t in times
    }
    failures: dict[tuple[int | str, int], str] = {}
    solver_cfg = SolverConfig(sigma2=params.sigma2)

    for idx, event_model, censor_model, propensity in nuisances.folds:
        fold = data.subset(idx)
        if kind == "balance":
            xs = event_model.standardize(fold.x)
            k = gram(xs, xs, params.kernel)
        for a in (0, 1):
            if use_event:
                lam = event_model.hazard_matrix(fold.x, a)
                s = np.cumprod(1.0 - lam, axis=1)  # survival_matrix without a second prediction
            if use_censor:
                g = censor_model.survival_matrix(fold.x, a)
            if use_prop:
                pi = propensity.prob(fold.x, a)
            for t in times:
                if (a, t) in failures:
                    continue
                try:
                    if kind == "ipw":
                        point_f, infl_f = _ipw_core(fold, a, t, g, pi)
                    elif kind == "or":
                        point_f = plugin_estimate(s[:, t])
                        infl_f = s[:, t] - point_f
                    else:
                        r = derivative_direction(s, t)
                        act = active_matrix(fold, a, t)
                        if kind == "balance":
                            w = solve_balance_weights(k, r, act, solver_cfg)
                            gamma = r * act * w.omega
                        else:
                            gamma = explicit_riesz(r, act, pi, _h_minus(s, g, t), spec.clip)
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
