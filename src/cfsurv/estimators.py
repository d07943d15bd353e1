"""Counterfactual survival estimators.

Five estimators of psi^{a,t} = P(T(a) > t) and of the survival effect
psi^{1,t} - psi^{0,t}: outcome regression (or), inverse probability
weighting (ipw), doubly robust with and without denominator clipping
(dr, dr-clip), and the augmented minimax balancing estimator (balance).

Estimation runs in two stages.

Fit stage: `fit_nuisances` fits the union of the nuisance models that
kinds of one fold count need (event hazard, censoring hazard,
propensity) once per fold, without the fold's held-out units: one
basis, one hazard call (both hazards in one joint fit whose Newton
cells step together, `fit_hazards`, when both are needed) and one
propensity fit. It predicts them on those units straight away and
returns the held-out curves as `Nuisances`, one entry per fold; the
models themselves are dropped. The kind table fixes the paper's design:
or and ipw fit on the whole sample, dr and dr-clip on one 5-fold plan,
balance on 2 folds, and one fit per fold count serves every kind of it;
known (oracle) curves enter through the `Nuisances` constructor.

Evaluate stage: `run_estimator` only evaluates: it reads each fold's
curves, computes the fold estimates and averages them; it never
predicts. Each (fold, arm) is evaluated once, for every requested time
together, as a time-major block of per-unit summands: the fold's
estimate at t is the mean of row t and its influence values are that
row minus the mean. or's rows are the predicted survival S_t; ipw's
weight the observed events up to t. The augmented kinds add a weighted
sum of hazard residuals over u <= t along the direction r_t = S_t * q,
which factors through the time-free ratio q[:, u] = -S_{u-1} / S_u.
dr, dr-clip and balance compute q once per (fold, arm). dr and dr-clip
weight it with explicit inverse-probability weights (clipped for
dr-clip) and take S_t times a cumulative sum over u; balance stacks
every time's direction S_t * q (zero past t) and gets the minimax
weights of every time from one `solve_balance_weights` call (one
factor, one pair of triangular solves, on the arm's own rows of the
fold's Gram matrix, built for that call), then contracts them with
the residuals in one product. Standard errors come from the influence
values and a normal t-statistic interval. A fault in q (a nonpositive
survival value) or in dr's explicit weights (a zero denominator) fails
every time of its arm, since q covers them all; a balance solve column
that fails fails only its own (arm, time).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .balance import direction_ratio, explicit_riesz, solve_balance_weights
from .errors import EstimationError, LargeWeightWarning, NumericalError
from .hazard import (
    PROPENSITY_FLOOR,
    KernelBasis,
    fit_censor_hazard,
    fit_event_hazard,
    fit_hazards,
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
    "check_times",
    "effect_estimate",
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
    """Kernel length scale, hazard ridge and balance sigma2; defaults match the reference setup."""

    length_scale: float = 10.0
    ridge: float = 0.5
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("length_scale", "ridge", "sigma2"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class FoldPlan:
    """A seeded partition of unit indices into n_folds non-empty folds."""

    assignment: np.ndarray
    n_folds: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.assignment)
        if ((labels < 0) | (labels >= self.n_folds)).any():
            raise ValueError(f"fold labels must lie in [0, {self.n_folds})")
        if (np.bincount(labels, minlength=self.n_folds) == 0).any():
            raise ValueError("every fold must be non-empty")

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


def _normal_interval(point: float, influence: np.ndarray) -> tuple[float, float, float]:
    """The 95% normal interval: (se, point - z * se, point + z * se).

    se = sqrt(var(influence) / n) and z is the normal 0.975 quantile.
    """
    se = float(np.sqrt(np.var(influence, ddof=1) / influence.size))
    half = float(ndtri(0.975)) * se
    return se, point - half, point + half


def _result(kind: str, arm: int | str, t: int, point: float, influence: np.ndarray) -> EstimateResult:
    influence = np.asarray(influence, dtype=float)
    if influence.size > 1:
        se, lo, hi = _normal_interval(point, influence)
    else:
        se, lo, hi = float("nan"), float("nan"), float("nan")
    return EstimateResult(
        kind=kind, arm=arm, t=t, point=point, influence=influence,
        std_error=se, ci_low=lo, ci_high=hi,
    )


def effect_estimate(result_a1: EstimateResult, result_a0: EstimateResult) -> EstimateResult:
    """Difference of two arm estimates on the same sample, unitwise influence."""
    if result_a1.n != result_a0.n:
        raise ValueError("arm estimates must come from the same aligned sample")
    if result_a1.t != result_a0.t or result_a1.kind != result_a0.kind:
        raise ValueError("arm estimates must target the same estimator and time")
    point = result_a1.point - result_a0.point
    influence = result_a1.influence - result_a0.influence
    return _result(result_a1.kind, "diff", result_a1.t, point, influence)


def _h_minus(s: np.ndarray, g: np.ndarray, t: int) -> np.ndarray:
    """Sub-survival at u-1: column u holds S_{u-1} * G_{u-1}, column 0 holds 1."""
    h = np.ones((s.shape[0], t + 1))
    h[:, 1:] = s[:, :t] * g[:, :t]
    return h


def _balance_gammas(
    k: Callable[[np.ndarray], np.ndarray],
    s: np.ndarray,
    q: np.ndarray,
    active: np.ndarray,
    times: list[int],
    sigma2: float,
) -> tuple[np.ndarray, dict[int, str]]:
    """Balance gammas of every time of one (fold, arm), and why the failed times failed.

    k returns the fold's kernel rows K[idx, :] for an index array idx.
    q is `direction_ratio(s, max(times))` and active the arm's risk-set
    mask up to max(times). The direction of t is S_t * q, zero past t;
    the directions of every t are stacked and solved by one
    `solve_balance_weights` call, in which a time fails alone, on its
    columns; it builds only the rows of the arm's risk set at u = 1, an
    (n_a, n_fold) block. The gammas come back stacked the same way,
    (n, max(times) + 1, len(times)): zero past each t and for a failed time.
    """
    tt = np.asarray(times)
    r = s[:, None, tt] * q[:, :, None]
    r[:, np.arange(q.shape[1])[:, None] > tt] = 0.0
    omega, failures = solve_balance_weights(k, r, active, sigma2)
    r *= omega  # zero off the risk sets (as omega is) and for a failed direction
    return r, {times[j]: err for j, err in failures.items()}


def _summands(
    kind: str,
    clip: float | None,
    fold: Dataset,
    a: int,
    times: list[int],
    curves: tuple,
    k: Callable[[np.ndarray], np.ndarray] | None,
    sigma2: float,
) -> tuple[np.ndarray, dict[int, str]]:
    """Per-unit summands of one (fold, arm) at every time, and why the failed times failed.

    k is balance's kernel row function (see `_balance_gammas`), else None.
    Returns a time-major (len(times), n_fold) block: the fold's estimate
    at times[j] is the mean of row j, and its influence values are row j
    minus that mean. The row of a failed time holds no estimate.
    """
    lam, s, g, pi = curves
    tt, t_max = np.asarray(times), max(times)
    if kind == "or":
        return s.T[tt], {}
    if kind == "ipw":
        g_at_obs = g[np.arange(fold.n), np.minimum(fold.time, t_max)]
        contributes = (fold.a == a) & (fold.event == 1) & (fold.time <= t_max)
        if np.any(contributes & (g_at_obs <= PROPENSITY_FLOOR)) or np.any(
            contributes & ((pi <= PROPENSITY_FLOOR) | (pi >= 1.0 - PROPENSITY_FLOOR))
        ):
            warnings.warn(
                "inverse-probability denominators at their clamp floor; "
                "weights may be extreme",
                LargeWeightWarning,
                stacklevel=3,
            )
        term = np.zeros(fold.n)
        term[contributes] = 1.0 / (pi * g_at_obs)[contributes]
        return 1.0 - np.where(fold.time <= tt[:, None], term, 0.0), {}
    active = active_matrix(fold, a, t_max)
    resid = event_matrix(fold, t_max) - lam[:, : t_max + 1]
    s_t = s.T[tt]
    try:
        q = direction_ratio(s, t_max)  # one ratio serves every time of the arm
        if kind == "balance":
            gammas, errors = _balance_gammas(k, s, q, active, times, sigma2)
            return s_t + np.einsum("iuj,iu->ji", gammas, resid), errors
        # dr and dr-clip: gamma_t = S_t * w, with w the weights of q
        w = explicit_riesz(q, active, pi, _h_minus(s, g, t_max), clip)
    except NumericalError as err:
        return s_t, dict.fromkeys(times, str(err))
    return s_t + s_t * np.cumsum(w * resid, axis=1).T[tt], {}


@dataclass(frozen=True)
class Nuisances:
    """Held-out nuisance curves, one (eval_idx, xs, curves) entry per fold.

    Each fold's models were fit without the units in eval_idx (or on the
    whole sample when there is one fold) and predicted on those units.
    xs holds the eval_idx covariates in the fold's kernel
    standardization, which the balance Gram is built from. curves holds,
    per arm a in (0, 1), (event hazards, event survival, censoring
    survival, P(A=a|X)): (n_fold, t_max + 1) matrices and an (n_fold,)
    vector, each None where its model was not fit. Known (oracle) curves
    enter by building such an entry directly.
    """

    folds: tuple[tuple[np.ndarray, np.ndarray | None, tuple], ...]


def _curves(x: np.ndarray, basis: KernelBasis, event, censor, propensity):
    """Per arm, (event hazards, event survival, censoring survival, P(A=a|X)) at x.

    An entry is None where its model is. Both kernel hazard models share
    `basis`, and each arm's Gram matrix of x against it is built once for
    both and released before the next arm's is built.
    """
    curves = []
    for a in (0, 1):
        lam = s = g = pi = None
        k_pred = basis.prediction_gram(x, a)
        if event is not None:
            lam = event.hazard_matrix(k_pred, a)
            s = np.cumprod(1.0 - lam, axis=1)
        if censor is not None:
            g = np.cumprod(1.0 - censor.hazard_matrix(k_pred, a), axis=1)
        if propensity is not None:
            pi = propensity.prob(x, a)
        del k_pred
        curves.append((lam, s, g, pi))
    return tuple(curves)


def _spec(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ValueError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")
    return _KINDS[kind]


def check_times(times: list[int] | tuple[int, ...], t_max: int) -> None:
    """Reject evaluation times that are missing, outside [0, t_max] or repeated."""
    if not times:
        raise ValueError("need at least one evaluation time")
    if min(times) < 0 or max(times) > t_max:
        raise ValueError(f"times must lie in [0, {t_max}], got {list(times)}")
    if len(set(times)) != len(times):
        raise ValueError(f"evaluation times must not repeat, got {list(times)}")


def fit_nuisances(
    data: Dataset,
    kinds: tuple[str, ...],
    times: list[int],
    params: EstimatorParams = EstimatorParams(),
    seed: int = 0,
) -> Nuisances:
    """Cross-fit the union of the models `kinds` need and predict each fold's held-out units.

    kinds must share one fold count (else ValueError; a bare string raises
    TypeError). A training fold without units in an arm raises
    EstimationError before any fit.
    """
    if isinstance(kinds, str):
        raise TypeError(f"kinds must be a tuple of estimator kinds, got the string {kinds!r}")
    specs = [_spec(kind) for kind in kinds]
    check_times(times, data.grid.t_max)
    if len({spec.folds for spec in specs}) != 1:
        raise ValueError(f"kinds {tuple(kinds)} do not share one fold count")
    n_folds = specs[0].folds
    use_event, use_censor, use_prop = map(any, zip(*(spec.models for spec in specs)))
    max_t = max(times)
    if n_folds == 1:
        folds = [(np.arange(data.n), data)]
    else:
        plan = FoldPlan.make(data.n, n_folds, seed)
        folds = [(plan.fold_indices(f), data.subset(plan.train_indices(f)))
                 for f in range(n_folds)]
    for f, (_, train) in enumerate(folds):
        if train.a.min() == train.a.max():
            raise EstimationError(f"{', '.join(kinds)}: training fold {f} of {n_folds} has no "
                                  f"units in arm {1 - train.a[0]}")

    def fold(idx: np.ndarray, train: Dataset):
        # one basis per fold; when both hazards are needed they fit in one lockstep
        basis = KernelBasis.of(train, params.length_scale)
        args = basis, params.ridge, max_t
        event, censor = fit_hazards(*args) if use_event and use_censor else (
            fit_event_hazard(*args) if use_event else None,
            fit_censor_hazard(*args) if use_censor else None,
        )
        x = data.x[idx]
        propensity = fit_propensity(train) if use_prop else None
        return idx, basis.standardize(x), _curves(x, basis, event, censor, propensity)

    return Nuisances(tuple(fold(idx, train) for idx, train in folds))


def _check_nuisances(nuisances: Nuisances, data: Dataset, kind: str, spec: _Kind, t: int) -> None:
    """Reject folds whose eval_idx do not partition range(n), and missing or misshapen inputs."""
    idx = [np.asarray(fold[0]) for fold in nuisances.folds]
    if not np.array_equal(np.sort(np.concatenate([np.empty(0, int), *idx])), np.arange(data.n)):
        raise ValueError(f"nuisance folds' eval_idx must partition range({data.n})")
    uses = (spec.models[0], *spec.models)  # (lam, s, g, pi): lam and s are the event model's
    for rows, (_, xs, arms) in zip(map(len, idx), nuisances.folds):
        if kind == "balance" and np.shape(xs) != (rows, data.d):
            raise ValueError(f"a {rows}-unit fold's xs must be a ({rows}, {data.d}) matrix")
        for curves in arms:
            if any(use and curve is None for use, curve in zip(uses, curves)):
                raise ValueError(f"nuisances lack a curve the {kind} estimator needs")
            lam, s, g, pi = curves
            shapes = [np.shape(c) for c in (lam, s, g) if c is not None]
            if any(len(sh) != 2 or sh[0] != rows or sh[1] <= t for sh in shapes) or (
                pi is not None and np.shape(pi) != (rows,)
            ):
                raise ValueError(
                    f"a {rows}-unit fold's curves must be ({rows}, >= {t + 1}) matrices "
                    f"and its propensity ({rows},)"
                )


def run_estimator(
    data: Dataset,
    kind: str,
    times: list[int],
    params: EstimatorParams = EstimatorParams(),
    seed: int = 0,
    nuisances: Nuisances | None = None,
):
    """Estimate psi^{a,t} for both arms and their difference at each time.

    Reads the held-out curves of `nuisances`, fitting them with
    `fit_nuisances(data, (kind,), times, params, seed)` when not given, and
    predicts nothing itself. Returns (results, failures):
    results maps (arm, t) with arm in {0, 1, "diff"} to an EstimateResult;
    failures maps cells that raised a numerical error to the error message.
    Malformed nuisances (see `_check_nuisances`) raise ValueError.
    """
    spec = _spec(kind)
    check_times(times, data.grid.t_max)
    if nuisances is None:
        nuisances = fit_nuisances(data, (kind,), times, params, seed)
    _check_nuisances(nuisances, data, kind, spec, max(times))

    points: dict[tuple[int, int], list[float]] = {(a, t): [] for a in (0, 1) for t in times}
    influence: dict[tuple[int, int], np.ndarray] = {
        (a, t): np.zeros(data.n) for a in (0, 1) for t in times
    }
    failures: dict[tuple[int | str, int], str] = {}

    for idx, xs, curves in nuisances.folds:
        fold = data.subset(idx)
        k = None
        if kind == "balance":  # each arm's solve builds only its own rows of the fold's Gram
            def k(rows, xs=xs):
                return gram(xs[rows], xs, params.length_scale)
        for a in (0, 1):
            live = [t for t in times if (a, t) not in failures]
            if not live:
                continue
            block, errors = _summands(kind, spec.clip, fold, a, live, curves[a], k, params.sigma2)
            failures.update({(a, t): err for t, err in errors.items()})
            means = block.mean(axis=1)
            infl = block - means[:, None]
            for j, t in enumerate(live):
                if t not in errors:
                    points[(a, t)].append(means[j])
                    influence[(a, t)][idx] = infl[j]

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
