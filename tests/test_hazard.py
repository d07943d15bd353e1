import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit

from cfsurv import hazard
from cfsurv.dgp import SyntheticConfig, gen_synthetic, true_censor_hazard, true_event_hazard
from cfsurv.errors import ConvergenceWarning, CoverageWarning, EstimationError
from cfsurv.hazard import (
    HAZARD_CEIL,
    HAZARD_FLOOR,
    OracleHazardModel,
    fit_censor_hazard,
    fit_event_hazard,
    fit_propensity,
    klr_loss_grad,
    propensity_loss_grad,
)
from cfsurv.kernels import KernelConfig, gram
from cfsurv.survival import Dataset, TimeGrid


def central_diff(fn, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for j in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (fn(up) - fn(dn)) / (2 * step)
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_klr_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(3):
        m = rng.integers(3, 12)
        pts = rng.normal(size=(m, 2))
        k = gram(pts, pts, KernelConfig(length_scale=2.0))
        y = rng.integers(0, 2, size=m).astype(float)
        theta = rng.normal(scale=0.5, size=m + 1)

        def loss(th):
            return klr_loss_grad(k, y, th[:-1], th[-1], ridge=0.05)[0]

        _, grad = klr_loss_grad(k, y, theta[:-1], theta[-1], ridge=0.05)
        assert rel_err(central_diff(loss, theta), grad) <= 1e-4


def test_propensity_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(15, 3))
    a = rng.integers(0, 2, size=15).astype(float)
    theta = rng.normal(scale=0.5, size=4)

    def loss(th):
        return propensity_loss_grad(x, a, th[:-1], th[-1])[0]

    _, grad = propensity_loss_grad(x, a, theta[:-1], theta[-1])
    assert rel_err(central_diff(loss, theta), grad) <= 1e-4


def _dataset(x, a, time, event, t_max=5):
    return Dataset(
        x=np.asarray(x, dtype=float).reshape(len(a), -1),
        a=np.asarray(a),
        time=np.asarray(time),
        event=np.asarray(event),
        grid=TimeGrid(t_max),
    )


def test_all_zero_labels_hazard_small():
    # every arm-1 unit is censored at time 3, so the (3, 1) cell sees only
    # zeros; with a free intercept the fit limit is the clamp floor
    data = _dataset(
        x=np.linspace(-1, 1, 8), a=np.ones(8, dtype=int),
        time=np.full(8, 3), event=np.zeros(8, dtype=int),
    )
    model = fit_event_hazard(data, ridge=1e-2, max_time=3)
    lam = model.hazard_matrix(data.x, 1)
    assert np.all(lam[:, 3] <= 0.05)
    assert np.all(lam[:, 3] == HAZARD_FLOOR)

    # scalar-intercept oracle: the intercept-only likelihood on all-zero
    # labels is minimized in the limit p -> mean(y) = 0
    m = 8
    oracle = minimize_scalar(
        lambda b: m * np.logaddexp(0.0, b), bounds=(-50, 5), method="bounded"
    )
    assert expit(oracle.x) <= 0.05


def test_single_event_unit_hazard_large():
    data = _dataset(x=[0.3], a=[1], time=[2], event=[1], t_max=2)
    model = fit_event_hazard(data, ridge=1e-2)
    lam = model.hazard_matrix(data.x, 1)
    assert lam[0, 2] >= 0.5
    assert lam[0, 2] == HAZARD_CEIL

    # scalar-intercept oracle: one at-risk unit with an event pushes the
    # cell likelihood toward p -> 1
    oracle = minimize_scalar(
        lambda f: np.logaddexp(0.0, -f), bounds=(-5, 50), method="bounded"
    )
    assert expit(oracle.x) >= 0.5


def test_mixed_cell_mean_calibration():
    # free intercept: the fitted cell reproduces the risk-set event rate
    rng = np.random.default_rng(12)
    n, k_events = 30, 5
    times = np.full(n, 4)
    times[:k_events] = 1
    data = _dataset(
        x=rng.normal(size=n), a=np.ones(n, dtype=int), time=times,
        event=np.ones(n, dtype=int),
    )
    model = fit_event_hazard(data, ridge=1e-2, max_time=1)
    lam = model.hazard_matrix(data.x, 1)
    assert float(np.mean(lam[:, 1])) == pytest.approx(k_events / n, abs=1e-6)


def test_flip_symmetry_event_vs_censor():
    rng = np.random.default_rng(2)
    n = 40
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    flipped = Dataset(data.x, data.a, data.time, 1 - data.event, data.grid)
    censor = fit_censor_hazard(data, ridge=1e-2)
    event_on_flipped = fit_event_hazard(flipped, ridge=1e-2)
    for a in (0, 1):
        np.testing.assert_array_equal(
            censor.hazard_matrix(data.x, a), event_on_flipped.hazard_matrix(data.x, a)
        )


def test_empty_risk_set_falls_back_with_warning():
    # no arm-0 units at risk at u >= 3
    data = _dataset(
        x=[0.0, 0.5, 1.0, -1.0], a=[0, 0, 1, 1], time=[2, 2, 5, 5], event=[1, 1, 1, 0],
    )
    with pytest.warns(CoverageWarning):
        model = fit_event_hazard(data, max_time=5)
    assert ((3, 0) in model.empty_cells) and ((5, 0) in model.empty_cells)
    lam = model.hazard_matrix(data.x, 0)
    assert np.all(lam[:, 3] == HAZARD_FLOOR)


def test_predictions_respect_clamp_and_monotone_survival():
    rng = np.random.default_rng(3)
    n = 30
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    model = fit_event_hazard(data)
    for a in (0, 1):
        lam = model.hazard_matrix(data.x, a)
        assert np.all(lam[:, 0] == 0.0)
        assert np.all(lam[:, 1:] >= HAZARD_FLOOR) and np.all(lam[:, 1:] <= HAZARD_CEIL)
        s = model.survival_matrix(data.x, a)
        assert np.all(np.diff(s, axis=1) <= 0.0)


def test_predict_curves_zero_and_constant_hazard():
    grid = TimeGrid(5)
    x = np.zeros((1, 2))
    zero = OracleHazardModel(grid, lambda x, a, u: np.zeros(x.shape[0]))
    lam = zero.hazard_matrix(x, 1)[0]
    s = zero.survival_matrix(x, 1)[0]
    g = zero.survival_matrix(x, 1)[0]
    h = s * g
    assert np.all(lam == 0.0) and np.all(s == 1.0) and np.all(g == 1.0) and np.all(h == 1.0)

    const = OracleHazardModel(grid, lambda x, a, u: np.full(x.shape[0], 0.1))
    s = const.survival_matrix(x, 0)[0]
    h = s * zero.survival_matrix(x, 0)[0]
    assert h[3] == pytest.approx(0.729, abs=1e-12)
    assert s[3] == pytest.approx(0.729, abs=1e-12)


def test_sub_survival_below_both_factors():
    rng = np.random.default_rng(4)
    n = 25
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    event = fit_event_hazard(data)
    censor = fit_censor_hazard(data)
    s = event.survival_matrix(data.x[:1], 1)[0]
    g = censor.survival_matrix(data.x[:1], 1)[0]
    h = s * g
    assert np.all(h <= np.minimum(s, g) + 1e-15)


def test_loss_separates_across_cells():
    # total log loss over observed risk windows == sum of per-(u, a) cell losses
    rng = np.random.default_rng(5)
    n = 50
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    model = fit_event_hazard(data)
    lam = {a: model.hazard_matrix(data.x, a) for a in (0, 1)}

    total = 0.0
    for i in range(n):
        for u in range(1, int(data.time[i]) + 1):
            y = float(data.event[i] == 1 and data.time[i] == u)
            p = lam[int(data.a[i])][i, u]
            total += -(y * np.log(p) + (1 - y) * np.log(1 - p)) / n

    by_cell = 0.0
    for a in (0, 1):
        for u in range(1, 6):
            risk = (data.a == a) & (data.time >= u)
            if not risk.any():
                continue
            y = ((data.event == 1) & (data.time == u))[risk].astype(float)
            p = lam[a][risk, u]
            by_cell += float(np.sum(-(y * np.log(p) + (1 - y) * np.log(1 - p)))) / n

    assert total == pytest.approx(by_cell, abs=1e-10)


def test_propensity_symmetric_data():
    data = _dataset(
        x=[1.0, -1.0, 1.0, -1.0], a=[1, 0, 0, 1], time=[1, 1, 1, 1], event=[1, 1, 1, 1],
        t_max=1,
    )
    model = fit_propensity(data)
    assert abs(model.intercept) <= 1e-8
    assert np.all(np.abs(model.prob(data.x, 1) - 0.5) <= 1e-8)


def test_propensity_single_arm_error():
    data = _dataset(x=[0.0, 1.0], a=[1, 1], time=[1, 1], event=[1, 1], t_max=1)
    with pytest.raises(EstimationError):
        fit_propensity(data)


def test_propensity_slope_recovery():
    cfg = SyntheticConfig(n=5000, xi=0.3, seed=42)
    data = gen_synthetic(cfg)
    model = fit_propensity(data)
    # dataset covariates are standardized with near-unit scale, so each fitted
    # coordinate estimates xi
    assert abs(float(np.mean(model.weights)) - 0.3) <= 0.05


def test_censor_fit_recovers_flat_hazard():
    # true censor hazard at x4 = 0 is 0.01 * sigmoid(0) = 0.005
    cfg = SyntheticConfig(n=2500, seed=11, standardize=False)
    data = gen_synthetic(cfg)
    model = fit_censor_hazard(data, max_time=8)
    at_zero = model.hazard_matrix(np.zeros((1, 10)), 0)
    for u in (2, 5, 8):
        assert abs(at_zero[0, u] - 0.005) <= 0.01


def test_event_fit_consistency_smoke():
    # held-out hazard error small at a moderate sample size
    cfg = SyntheticConfig(n=4000, seed=13, standardize=False)
    data = gen_synthetic(cfg)
    model = fit_event_hazard(data, max_time=15)
    holdout = gen_synthetic(SyntheticConfig(n=400, seed=14, standardize=False))
    errs = []
    for a in (0, 1):
        lam = model.hazard_matrix(holdout.x, a)
        for u in range(1, 16):
            truth = true_event_hazard(holdout.x, np.full(holdout.n, a), u)
            errs.append(np.mean(np.abs(lam[:, u] - truth)))
    assert float(np.mean(errs)) <= 0.02


def test_newton_non_convergence_is_reported_once(monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=60, seed=5))
    with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        patch.setattr(hazard, "NEWTON_MAX_ITER", 1)
        warnings.simplefilter("always")
        fit_event_hazard(data, max_time=5)
    stalled = [w for w in caught if issubclass(w.category, ConvergenceWarning)]
    assert len(stalled) == 1
    assert "(1, 0)" in str(stalled[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        fit_event_hazard(data, max_time=5)
