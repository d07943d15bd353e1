import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit

from cfsurv import hazard
from cfsurv.dgp import (
    SyntheticConfig,
    TwinsLikeConfig,
    gen_synthetic,
    gen_twins_like,
    surrogate_twins_table,
    true_event_hazard,
)
from cfsurv.errors import ConvergenceWarning, CoverageWarning, EstimationError, NumericalError
from cfsurv.estimators import FoldPlan
from cfsurv.hazard import (
    HAZARD_CEIL,
    HAZARD_FLOOR,
    KernelBasis,
    fit_censor_hazard,
    fit_event_hazard,
    fit_hazards,
    fit_propensity,
)
from cfsurv.kernels import gram
from cfsurv.sim import derive_seed, splitmix64
from cfsurv.survival import Dataset, TimeGrid, active_matrix, event_matrix
from oracles import (
    arm_order,
    damped_newton,
    gram_by_differences,
    klr_loss_grad,
    known_nuisances,
    newton_cells,
    propensity_loss_grad,
)


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
        k = gram(pts, pts, 2.0)
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


def _basis(data, length_scale=10.0):
    return KernelBasis.of(data, length_scale)


def _predict(model, basis, x, a):
    """Arm a's hazards at x, through the arm's prediction Gram."""
    return model.hazard_matrix(basis.prediction_gram(x, a), a)


def _cell_gram(basis, a, risk):
    """The Gram block of a Newton cell of arm a: its risk set is a prefix of the arm's order."""
    return basis.grams[a][: risk.size, : risk.size]


def test_all_zero_labels_hazard_small():
    # every arm-1 unit is censored at time 3, so the (3, 1) cell sees only
    # zeros; with a free intercept the fit limit is the clamp floor
    data = _dataset(
        x=np.linspace(-1, 1, 8), a=np.ones(8, dtype=int),
        time=np.full(8, 3), event=np.zeros(8, dtype=int),
    )
    basis = _basis(data)
    model = fit_event_hazard(basis, ridge=1e-2, max_time=3)
    lam = _predict(model, basis, data.x, 1)
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
    basis = _basis(data)
    model = fit_event_hazard(basis, ridge=1e-2)
    lam = _predict(model, basis, data.x, 1)
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
    basis = _basis(data)
    model = fit_event_hazard(basis, ridge=1e-2, max_time=1)
    lam = _predict(model, basis, data.x, 1)
    assert float(np.mean(lam[:, 1])) == pytest.approx(k_events / n, abs=1e-6)


def test_flip_symmetry_event_vs_censor():
    rng = np.random.default_rng(2)
    n = 40
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    basis = _basis(data)
    # the same layout and Gram matrices with every flag flipped
    flipped = replace(basis, events=tuple(1 - events for events in basis.events))
    censor = fit_censor_hazard(basis, ridge=1e-2)
    event_on_flipped = fit_event_hazard(flipped, ridge=1e-2)
    for a in (0, 1):
        np.testing.assert_array_equal(
            _predict(censor, basis, data.x, a), _predict(event_on_flipped, basis, data.x, a)
        )


def test_empty_risk_set_falls_back_with_warning():
    # no arm-0 units at risk at u >= 3
    data = _dataset(
        x=[0.0, 0.5, 1.0, -1.0], a=[0, 0, 1, 1], time=[2, 2, 5, 5], event=[1, 1, 1, 0],
    )
    basis = _basis(data)
    with pytest.warns(CoverageWarning, match="^event hazard: ") as caught:
        model = fit_event_hazard(basis, 0.5, max_time=5)
    assert caught[0].filename == __file__  # points at the caller of the fit
    assert ((3, 0) in model.empty_cells) and ((5, 0) in model.empty_cells)
    lam = _predict(model, basis, data.x, 0)
    assert np.all(lam[:, 3] == HAZARD_FLOOR)
    with pytest.warns(CoverageWarning, match="^censoring hazard: ") as caught:
        fit_censor_hazard(basis, 0.5, max_time=5)
    assert caught[0].filename == __file__


def test_predictions_respect_clamp_and_monotone_survival():
    rng = np.random.default_rng(3)
    n = 30
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    basis = _basis(data)
    model = fit_event_hazard(basis, 0.5)
    for a in (0, 1):
        lam = _predict(model, basis, data.x, a)
        assert np.all(lam[:, 0] == 0.0)
        assert np.all(lam[:, 1:] >= HAZARD_FLOOR) and np.all(lam[:, 1:] <= HAZARD_CEIL)
        s = np.cumprod(1.0 - lam, axis=1)
        assert np.all(np.diff(s, axis=1) <= 0.0)


def test_predict_curves_zero_and_constant_hazard():
    # the known curves the oracle tests build their nuisances from
    data = _dataset(x=np.zeros((1, 2)), a=[1], time=[1], event=[1])

    def zero(x, a, u):
        return np.zeros(x.shape[0])

    def const(x, a, u):
        return np.full(x.shape[0], 0.1)

    lam, s, g, _ = known_nuisances(data, zero, zero).folds[0][2][1]
    h = s[0] * g[0]
    assert np.all(lam == 0.0) and np.all(s == 1.0) and np.all(g == 1.0) and np.all(h == 1.0)

    _, s, g, _ = known_nuisances(data, const, zero).folds[0][2][0]
    h = s[0] * g[0]
    assert h[3] == pytest.approx(0.729, abs=1e-12)
    assert s[0, 3] == pytest.approx(0.729, abs=1e-12)


def test_sub_survival_below_both_factors():
    rng = np.random.default_rng(4)
    n = 25
    data = _dataset(
        x=rng.normal(size=n), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 6, size=n), event=rng.integers(0, 2, size=n),
    )
    basis = _basis(data)
    first = data.x[:1]
    s = np.cumprod(1.0 - _predict(fit_event_hazard(basis, 0.5), basis, first, 1), axis=1)[0]
    g = np.cumprod(1.0 - _predict(fit_censor_hazard(basis, 0.5), basis, first, 1), axis=1)[0]
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
    basis = _basis(data)
    model = fit_event_hazard(basis, 0.5)
    lam = {a: _predict(model, basis, data.x, a) for a in (0, 1)}

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


def test_propensity_converges_where_a_loss_line_search_stalls(monkeypatch):
    # on these train splits an Armijo test on the loss value fails at roundoff
    # near the optimum and runs to the cap with |g| stuck at 1.9e-8 and 1.3e-7
    s = derive_seed(3, 5)
    data = gen_synthetic(SyntheticConfig(n=200, seed=s))
    plan = FoldPlan.make(200, 5, splitmix64(s))
    monkeypatch.setattr(hazard, "PROPENSITY_MAX_ITER", 10)
    for fold in (1, 4):
        train = data.subset(plan.train_indices(fold))
        model = fit_propensity(train)
        _, grad = propensity_loss_grad(
            train.x, train.a.astype(float), model.weights, model.intercept
        )
        assert np.linalg.norm(grad) <= hazard.PROPENSITY_TOL


def _with_x(data, x):
    return Dataset(x, data.a, data.time, data.event, data.grid)


def test_propensity_does_not_depend_on_column_units():
    # a Hessian and a stopping norm in these units would stall Newton at its
    # cap: one column scaled by 1e6, one shifted by 1e4
    data = gen_synthetic(SyntheticConfig(n=400, xi=0.3, seed=3))
    x = data.x.copy()
    x[:, 0] *= 1e6
    x[:, 1] += 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        model = fit_propensity(_with_x(data, x))
    expected = fit_propensity(data).prob(data.x, 1)
    assert np.max(np.abs(model.prob(x, 1) - expected)) <= 1e-8


@pytest.mark.parametrize("extra", ["constant", "duplicate"])
def test_propensity_ignores_a_redundant_column(extra, monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=200, xi=0.3, seed=8))
    column = np.full((data.n, 1), 0.1) if extra == "constant" else data.x[:, [2]]
    x = np.hstack([data.x, column])
    solve, failed = np.linalg.solve, []

    def spy(*args):
        try:
            return solve(*args)
        except np.linalg.LinAlgError:
            failed.append(args)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    model = fit_propensity(_with_x(data, x))
    assert not failed  # one factorization per step, never a singular retry
    expected = fit_propensity(data).prob(data.x, 1)
    assert np.max(np.abs(model.prob(x, 1) - expected)) <= 1e-8


def test_propensity_on_constant_covariates_is_intercept_only():
    data = gen_synthetic(SyntheticConfig(n=50, seed=4))
    x = np.tile([0.1, 3.0, -7.7], (data.n, 1))
    model = fit_propensity(_with_x(data, x))
    share = data.a.mean()
    assert np.array_equal(model.weights, np.zeros(3))
    assert model.intercept == pytest.approx(np.log(share / (1 - share)), abs=1e-12)


def test_censor_fit_recovers_flat_hazard():
    # true censor hazard at x4 = 0 is 0.01 * sigmoid(0) = 0.005
    cfg = SyntheticConfig(n=2500, seed=11, standardize=False)
    data = gen_synthetic(cfg)
    basis = _basis(data)
    model = fit_censor_hazard(basis, 0.5, max_time=8)
    at_zero = _predict(model, basis, np.zeros((1, 10)), 0)
    for u in (2, 5, 8):
        assert abs(at_zero[0, u] - 0.005) <= 0.01


def test_event_fit_consistency_smoke():
    # held-out hazard error small at a moderate sample size
    cfg = SyntheticConfig(n=4000, seed=13, standardize=False)
    data = gen_synthetic(cfg)
    basis = _basis(data)
    model = fit_event_hazard(basis, 0.5, max_time=15)
    holdout = gen_synthetic(SyntheticConfig(n=400, seed=14, standardize=False))
    errs = []
    for a in (0, 1):
        lam = _predict(model, basis, holdout.x, a)
        for u in range(1, 16):
            truth = true_event_hazard(holdout.x, np.full(holdout.n, a), u)
            errs.append(np.mean(np.abs(lam[:, u] - truth)))
    assert float(np.mean(errs)) <= 0.02


def test_newton_non_convergence_is_reported_once(monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=60, seed=5))
    basis = _basis(data)
    for fit, what, first_stalled in (
        (fit_event_hazard, "event hazard", "(1, 0)"),
        (fit_censor_hazard, "censoring hazard", "(3, 1)"),
    ):
        with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            patch.setattr(hazard, "NEWTON_MAX_ITER", 1)
            warnings.simplefilter("always")
            fit(basis, 0.5, max_time=5)
        stalled = [w for w in caught if issubclass(w.category, ConvergenceWarning)]
        assert len(stalled) == 1
        assert str(stalled[0].message).startswith(what + ": ")
        assert first_stalled in str(stalled[0].message)
        assert stalled[0].filename == __file__  # points at the caller of the fit
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            fit(basis, 0.5, max_time=5)

    with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        patch.setattr(hazard, "PROPENSITY_MAX_ITER", 1)
        warnings.simplefilter("always")
        fit_propensity(data)
    stalled = [w for w in caught if issubclass(w.category, ConvergenceWarning)]
    assert len(stalled) == 1
    assert "propensity" in str(stalled[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        fit_propensity(data)


@pytest.mark.parametrize("fit", [fit_event_hazard, fit_censor_hazard])
def test_max_time_must_lie_on_the_grid(fit):
    data = gen_synthetic(SyntheticConfig(n=30, seed=2))
    basis = _basis(data)
    for bad in (-1, data.grid.t_max + 1, data.grid.t_max + 10):
        with pytest.raises(ValueError, match=r"max_time must lie in \[0, 30\]"):
            fit(basis, 0.5, max_time=bad)
    # times=[0] fits no cell: every column past 0 is the floor
    model = fit(basis, 0.5, max_time=0)
    for a in (0, 1):
        lam = _predict(model, basis, data.x, a)
        assert np.all(lam[:, 0] == 0.0) and np.all(lam[:, 1:] == HAZARD_FLOOR)


def test_basis_sorts_each_arm_once_censored_first_at_ties():
    rng = np.random.default_rng(7)
    n = 60
    data = _dataset(
        x=rng.normal(size=(n, 2)), a=rng.integers(0, 2, size=n),
        time=rng.integers(1, 4, size=n), event=rng.integers(0, 2, size=n), t_max=3,
    )
    basis = _basis(data)
    for a in (0, 1):
        order = arm_order(data, a)
        assert sorted(order) == list(np.flatnonzero(data.a == a))
        assert np.array_equal(basis.exits[a], data.time[order])
        assert np.array_equal(basis.events[a], data.event[order]) and basis.t_max == 3
        # exit time descending, and at equal times censored before events
        key = -2 * data.time[order] + data.event[order]
        assert np.all(np.diff(key) >= 0)
        # the arm's standardized covariates in that order, and their own Gram matrix
        assert basis.xs[a].tobytes() == basis.standardize(data.x[order]).tobytes()
        own = gram(basis.xs[a], basis.xs[a], basis.length_scale)
        assert basis.grams[a].tobytes() == own.tobytes()
        for u in range(1, 4):  # every risk set is a prefix
            m = np.count_nonzero(basis.exits[a] >= u)
            assert set(order[:m]) == set(np.flatnonzero((data.a == a) & (data.time >= u)))


def test_a_constant_column_keeps_unit_scale():
    # every entry 0.1: numpy's std of such a column is roundoff, not 0
    rng = np.random.default_rng(11)
    x = np.column_stack([rng.normal(size=200), np.full(200, 0.1)])
    assert 0.0 < x.std(axis=0)[1]  # as standardization computes it
    data = _dataset(x=x, a=np.arange(200) % 2, time=np.full(200, 2), event=np.ones(200, int))
    basis = _basis(data)
    assert basis.scale[1] == 1.0
    # a new value in that column moves the standardized row by as much, not by ~1e16 times it
    moved = basis.standardize([[0.0, 0.1 + 1e-9]])[0, 1] - basis.standardize([[0.0, 0.1]])[0, 1]
    assert moved == pytest.approx(1e-9, rel=1e-6)


def test_fits_step_on_the_basis_grams_themselves(monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=60, seed=5))
    basis = _basis(data)
    seen = []
    newton = hazard._newton_cells

    def capture(grams, *args):
        seen.append(grams)
        return newton(grams, *args)

    monkeypatch.setattr(hazard, "_newton_cells", capture)
    fit_event_hazard(basis, 0.5, max_time=5)
    fit_censor_hazard(basis, 0.5, max_time=5)
    assert len(seen) == 2 and all(grams is basis.grams for grams in seen)
    # a joint fit steps both hazards' cells in one lockstep
    fit_hazards(basis, 0.5, max_time=5)
    assert len(seen) == 3 and seen[-1] is basis.grams


def _twins_like(n, seed):
    x, t0, t1 = surrogate_twins_table(n, seed=seed)
    return gen_twins_like(TwinsLikeConfig(x=x, t0=t0, t1=t1, seed=seed + 1))


def _large_bands():
    # each arm keeps over 500 units at risk up to u = 4 and over 180 up to
    # u = 30: its early cells form bands that qualify for conjugate gradients
    return gen_synthetic(SyntheticConfig(n=1200, seed=43))


@pytest.mark.parametrize(
    "data",
    [gen_synthetic(SyntheticConfig(n=200, seed=41)), _twins_like(200, 42)],
    ids=["synthetic", "twins-like"],
)
def test_newton_cells_reach_the_loss_gradient_tolerance(data):
    # oracle: the loss gradient recomputed from K, y and the returned
    # (alpha, b), not from the linear predictor the solver carries along
    basis = _basis(data)
    flipped = Dataset(data.x, data.a, data.time, 1 - data.event, data.grid)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        models = [*fit_hazards(basis, 0.5, max_time=25),
                  *(fit(basis, 0.5, max_time=25) for fit in (fit_event_hazard, fit_censor_hazard))]
    for model, labelled in zip(models, (data, flipped) * 2):
        labels = event_matrix(labelled, 25)
        for u, a, risk, alpha, b in newton_cells(model, data):
            k = _cell_gram(basis, a, risk)
            _, grad = klr_loss_grad(k, labels[risk, u], alpha, b, 0.5)
            assert np.linalg.norm(grad) <= hazard.NEWTON_TOL
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize(
    "data",
    [gen_synthetic(SyntheticConfig(n=200, seed=41)), _twins_like(200, 42)],
    ids=["synthetic", "twins-like"],
)
def test_model_columns_are_zero_outside_their_cells(data):
    basis = _basis(data)
    for fit in (fit_event_hazard, fit_censor_hazard):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            model = fit(basis, 0.5, max_time=25)
        # one row per training unit of the arm, in its exit order
        assert [c.shape for c in model.coef] == [
            (np.count_nonzero(data.a == a), data.grid.n_points) for a in (0, 1)
        ]
        assert model.max_time == 25 and np.all(model.level[:, 0] == 0.0)
        newton = np.isnan(model.level)
        assert newton.any(axis=1).all() and not newton[:, 26:].any()
        # a fixed column's coef and intercept are zero
        assert not any(model.coef[a][:, ~newton[a]].any() for a in (0, 1))
        assert not model.intercept[~newton].any()
        for u, a, risk, _, _ in newton_cells(model, data):
            assert not model.coef[a][risk.size :, u].any()


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize(
    "data",
    [gen_synthetic(SyntheticConfig(n=200, seed=41)), _twins_like(200, 42)],
    ids=["synthetic", "twins-like"],
)
def test_joint_fit_matches_the_one_label_fits(data):
    # stepping both hazards in one lockstep regroups the Gram products only
    basis = _basis(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        joint = fit_hazards(basis, 0.5, max_time=25)
        alone = [fit(basis, 0.5, max_time=25) for fit in (fit_event_hazard, fit_censor_hazard)]
    for got, want in zip(joint, alone):
        newton = np.isnan(want.level)
        assert newton.any()
        # the same Newton, constant and empty cells, with the same levels
        assert np.array_equal(np.isnan(got.level), newton)
        assert np.array_equal(got.level[~newton], want.level[~newton])
        assert got.empty_cells == want.empty_cells and got.max_time == want.max_time
        for a in (0, 1):
            assert _rel(got.intercept[a], want.intercept[a]) <= 1e-12
            for u in np.flatnonzero(newton[a]):
                assert _rel(got.coef[a][:, u], want.coef[a][:, u]) <= 1e-12


def test_joint_fit_warns_once_per_fit(monkeypatch):
    # twins-like arms run out of units, so both fits have empty cells, and
    # one Newton iteration leaves cells of both fits above tolerance
    data = _twins_like(200, 1)
    basis = _basis(data)
    caught = {}
    with monkeypatch.context() as patch:
        patch.setattr(hazard, "NEWTON_MAX_ITER", 1)
        for key, fits in (
            ("joint", lambda: fit_hazards(basis, 0.5, max_time=25)),
            ("alone", lambda: (fit_event_hazard(basis, 0.5, max_time=25),
                               fit_censor_hazard(basis, 0.5, max_time=25))),
        ):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                fits()
            caught[key] = record
    for category in (CoverageWarning, ConvergenceWarning):
        joint, alone = ([w for w in caught[key] if w.category is category] for key in caught)
        fits = [str(w.message).split(": ")[0] for w in joint]
        assert fits == ["event hazard", "censoring hazard"]
        # each joint warning counts its own fit's cells, as the fit alone does
        assert [str(w.message) for w in joint] == [str(w.message) for w in alone]
        assert all(w.filename == __file__ for w in joint)  # points at the caller of the fit


def test_banded_lockstep_matches_the_jacobian_oracle_on_a_twins_shaped_arm():
    # each arm's u = 1 cell holds most of the arm, and every later cell
    # under half of it sits in other bands of the Gram products
    data = _twins_like(400, 1)
    basis = _basis(data)
    flipped = Dataset(data.x, data.a, data.time, 1 - data.event, data.grid)
    models = fit_hazards(basis, 0.5, max_time=6)
    sizes = {0: [], 1: []}
    for model, labelled in zip(models, (data, flipped)):
        labels = event_matrix(labelled, 6)
        lead_w = {}
        for u, a, risk, alpha, b in newton_cells(model, data):
            expect, _, _ = _jacobian_newton_klr(
                _cell_gram(basis, a, risk), labels[risk, u], 0.5,
                first_w=lead_w.setdefault(a, _start_weight(labels[risk, u])),
            )
            assert _rel(np.append(alpha, b), expect) <= 1e-12
            sizes[a].append(risk.size)
    for arm_sizes in sizes.values():
        largest, *rest = sorted(set(arm_sizes), reverse=True)
        assert len(rest) >= 3 and 2 * max(rest) < largest


def test_indefinite_censoring_cell_of_a_joint_fit_is_named():
    # arm 1 in exit order: the three units leaving at 2, then the two
    # censored at 1. The event cell (1, 1) is all-0 and fixed; the 3-unit
    # cells at u = 2 see a positive definite block, the 5-unit censoring
    # cell (1, 1) an indefinite one
    data = _dataset(
        x=np.arange(5.0), a=np.ones(5, dtype=int), time=[1, 1, 2, 2, 2], event=[0, 0, 0, 1, 0],
        t_max=2,
    )
    good = _basis(data)
    basis = replace(good, grams=(good.grams[0], np.diag([1.0, 1.0, 1.0, -10.0, -10.0])))
    with pytest.warns(CoverageWarning):  # arm 0 has no units
        fit_event_hazard(basis, 0.5)
    with pytest.raises(
        NumericalError,
        match=r"^censoring hazard: cell \(1, 1\): Newton system not positive definite "
        r"\(dposv info \d+\)$",
    ):
        fit_hazards(basis, 0.5)


def _per_cell_hazards(model, data, k_full, a):
    # oracle: from the Gram matrix k_full against every training unit, in
    # data order, one column gather and matvec per Newton cell; the other
    # columns hold their level
    out = np.tile(model.level[a], (k_full.shape[0], 1))
    for u, arm, risk, alpha, b in newton_cells(model, data):
        if arm == a:
            out[:, u] = np.clip(expit(k_full[:, risk] @ alpha + b), HAZARD_FLOOR, HAZARD_CEIL)
    return out


def test_hazard_matrix_matches_the_per_cell_oracle():
    # arm 0 leaves by time 2, so its cells at u >= 3 are empty; every arm-1
    # unit still at risk at u = 5 is censored there, so (5, 1) is single-class
    # in both fits; u = 6 lies past the fits' max_time. Held-out and
    # training units are predicted alike, per arm
    rng = np.random.default_rng(8)
    n = 60
    a = np.arange(n) % 2
    time = np.where(a == 0, rng.integers(1, 3, size=n), rng.integers(1, 6, size=n))
    event = np.where(time == 5, 0, rng.integers(0, 2, size=n))
    data = _dataset(x=rng.normal(size=(n, 3)), a=a, time=time, event=event, t_max=6)
    holdout = rng.normal(size=(25, 3))
    basis = _basis(data)
    with pytest.warns(CoverageWarning):
        models = [fit(basis, 0.5, max_time=5) for fit in (fit_event_hazard, fit_censor_hazard)]
    for model in models:
        assert (3, 0) in model.empty_cells and model.level[0, 3] == HAZARD_FLOOR
        assert model.level[1, 5] in (HAZARD_FLOOR, HAZARD_CEIL)  # single-class
        assert np.all(model.level[:, 6] == HAZARD_FLOOR)  # past max_time
        assert len(list(newton_cells(model, data))) >= 5
        for x, arm in itertools.product((holdout, data.x), (0, 1)):
            k_full = gram_by_differences(
                basis.standardize(x), basis.standardize(data.x), basis.length_scale
            )
            k_pred = basis.prediction_gram(x, arm)
            assert k_pred.shape == (len(x), np.count_nonzero(data.a == arm))
            got = model.hazard_matrix(k_pred, arm)
            want = _per_cell_hazards(model, data, k_full, arm)
            assert np.all(got[:, 0] == 0.0)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def _jacobian_step(k, y, ridge, theta, r, w=None):
    # oracle: the Newton step of theta = (alpha, b, f) for residual r, solved
    # from the explicit (m + 1) x (m + 1) Jacobian [[W K + ridge I, w], [w' K, sum(w)]];
    # w defaults to the Newton weights p (1 - p) at theta, floored at _P_EPS
    m = len(y)
    if w is None:
        p = expit(theta[m + 1 :])
        w = np.maximum(p * (1.0 - p), hazard._P_EPS)
    jac = np.zeros((m + 1, m + 1))
    jac[:m, :m] = w[:, None] * k + ridge * np.eye(m)
    jac[:m, m] = w
    jac[m, :m] = w @ k
    jac[m, m] = w.sum()
    d = np.linalg.solve(jac, r)
    return np.concatenate([d, k @ d[:m] + d[m]])


def _start_weight(y):
    # the Newton weight p (1 - p) of every unit of a cell with labels y at
    # its start iterate, alpha = 0 and b = logit of its clipped mean label
    ybar = min(max(float(np.mean(y)), 1e-3), 1.0 - 1e-3)
    p = expit(np.log(ybar / (1.0 - ybar)))
    return p * (1.0 - p)


def _jacobian_newton_klr(k, y, ridge, max_iter=None, first_w=None):
    # oracle: one cell's damped Newton loop, stepping by `_jacobian_step`;
    # also returns the smallest weight p (1 - p) met before the _P_EPS
    # floor, and whether any step halved eta. Without max_iter it runs to
    # convergence; with it, it returns the iterate after max_iter steps.
    # first_w, if given, is the weight of every unit in the first step's
    # Jacobian: the start weight of the cell's (arm, label) lead
    m = len(y)
    ybar = min(max(float(np.mean(y)), 1e-3), 1.0 - 1e-3)
    theta = np.zeros(2 * m + 1)
    theta[m:] = np.log(ybar / (1.0 - ybar))
    w_min = [np.inf]
    first = [None if first_w is None else np.full(m, first_w)]

    def residual(theta_):
        p = expit(theta_[m + 1 :])
        return np.concatenate([(p - y) + ridge * theta_[:m], [np.sum(p - y)]])

    def newton_step(theta_, r):
        if np.linalg.norm(np.concatenate([k @ r[:m], r[m:]])) <= hazard.NEWTON_TOL:
            return None
        p = expit(theta_[m + 1 :])
        w_min[0] = min(w_min[0], float(np.min(p * (1.0 - p))))
        w, first[0] = first[0], None
        return _jacobian_step(k, y, ridge, theta_, r, w)

    theta, converged, backtracked = damped_newton(
        theta, residual, newton_step, max_iter or hazard.NEWTON_MAX_ITER
    )
    assert converged or max_iter
    return theta[: m + 1], w_min[0], backtracked


def test_newton_step_solves_the_jacobian_system(monkeypatch):
    # the residuals and Cholesky steps of every cell of a fit, taken from
    # its lockstep Newton loop in one call, at iterates whose weights range
    # from 1/4 down to below the _P_EPS floor. The first call solves each
    # cell's system on the weights of its arm's largest cell over the
    # cell's units, the later ones on the cell's own
    loop = {}

    def capture(theta, ids, residual, newton_step, max_iter):
        loop.update(theta=theta, ids=ids, residual=residual, newton_step=newton_step)
        return theta, np.ones(ids.max() + 1, dtype=bool)

    monkeypatch.setattr(hazard, "_damped_newton", capture)
    rng = np.random.default_rng(10)
    n = 160
    data = _dataset(
        x=rng.normal(size=(n, 3)), a=np.arange(n) % 2, time=rng.integers(1, 4, size=n),
        event=(rng.uniform(size=n) < 0.5).astype(int), t_max=3,
    )
    basis = _basis(data, 2.0)
    model = fit_event_hazard(basis, 0.5)
    # the Newton cells, in the model's order, are the loop's problems
    cells = [(u, a, risk) for u, a, risk, _, _ in newton_cells(model, data)]
    assert len(cells) == 6
    sizes = [risk.size for _, _, risk in cells]
    rows, c = sum(sizes), len(cells)
    off = np.cumsum([0] + sizes)
    # the flat state: every cell's alpha rows, one intercept per cell, every cell's f rows
    cell_of_row = np.repeat(np.arange(c), sizes)
    assert np.array_equal(loop["ids"], np.concatenate([cell_of_row, np.arange(c), cell_of_row]))
    labels = event_matrix(data, 3)
    cols = np.arange(c)
    for f_scale in (0.5, 5.0, 40.0):
        lead_rows = {}  # per arm, the f rows of its first (largest) cell
        theta = np.concatenate([
            rng.normal(scale=0.1, size=rows), rng.normal(size=c),
            rng.normal(scale=f_scale, size=rows),
        ])
        r = loop["residual"](theta, cols)
        done, step = loop["newton_step"](theta, r, cols)
        assert r.size == rows + c and step.size == theta.size and not done.any()
        for j, (u, a, risk) in enumerate(cells):
            k, y = _cell_gram(basis, a, risk), labels[risk, u]
            alpha_rows = np.arange(off[j], off[j + 1])
            own = np.r_[alpha_rows, rows + j, rows + c + alpha_rows]  # the cell's entries of theta
            p = expit(theta[rows + c + alpha_rows])
            np.testing.assert_allclose(r[alpha_rows], (p - y) + 0.5 * theta[alpha_rows], rtol=1e-12)
            assert r[rows + j] == pytest.approx(np.sum(p - y), rel=1e-12, abs=1e-12)
            f_rows = lead_rows.setdefault(a, rows + c + alpha_rows)
            w = None
            if f_scale == 0.5:
                p_lead = expit(theta[f_rows[: risk.size]])
                w = np.maximum(p_lead * (1.0 - p_lead), hazard._P_EPS)
            expect = _jacobian_step(k, y, 0.5, theta[own], np.append(r[alpha_rows], r[rows + j]), w)
            assert np.linalg.norm(step[own] - expect) <= 1e-10 * np.linalg.norm(expect)
    # on a twins-shaped fold, where each arm's u = 1 cell holds most of the
    # arm and every later cell a few units, the loop holds the cells' own
    # rows and nothing else: 2 sum(m) + c entries
    twins = _twins_like(200, 42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        models = fit_hazards(_basis(twins), 0.5, max_time=25)
    sizes = [risk.size for model in models for _, _, risk, _, _ in newton_cells(model, twins)]
    assert loop["theta"].size == loop["ids"].size == 2 * sum(sizes) + len(sizes)
    assert 2 * sum(sizes) + len(sizes) < 0.3 * (2 * max(sizes) + 1) * len(sizes)  # vs padded
    # on a fold whose arms each hold one band of four cells of over 500
    # units, every call after the first solves the cells by conjugate
    # gradients, without a dposv call, to the exact step
    data = _large_bands()
    basis = _basis(data)
    model = fit_event_hazard(basis, 0.5, max_time=4)
    cells = [(u, a, risk) for u, a, risk, _, _ in newton_cells(model, data)]
    sizes = [risk.size for _, _, risk in cells]
    assert len(cells) == 8 and min(sizes) >= 500
    rows, c = sum(sizes), len(cells)
    off = np.cumsum([0] + sizes)
    labels = event_matrix(data, 4)
    cols = np.arange(c)
    loop["newton_step"](loop["theta"], loop["residual"](loop["theta"], cols), cols)  # the first
    calls = []
    dposv = hazard._dposv

    def counted(a, rhs, **kwargs):
        calls.append(a.shape[0])
        return dposv(a, rhs, **kwargs)

    monkeypatch.setattr(hazard, "_dposv", counted)
    for f_scale in (0.5, 5.0, 40.0):
        theta = np.concatenate([
            rng.normal(scale=0.1, size=rows), rng.normal(size=c), rng.normal(scale=f_scale, size=rows),
        ])
        r = loop["residual"](theta, cols)
        done, step = loop["newton_step"](theta, r, cols)
        assert not done.any() and not calls
        for j, (u, a, risk) in enumerate(cells):
            alpha_rows = np.arange(off[j], off[j + 1])
            own = np.r_[alpha_rows, rows + j, rows + c + alpha_rows]
            expect = _jacobian_step(_cell_gram(basis, a, risk), labels[risk, u], 0.5, theta[own],
                                    np.append(r[alpha_rows], r[rows + j]))
            assert np.linalg.norm(step[own] - expect) <= 1e-10 * np.linalg.norm(expect)


def _lockstep_cells(models, data):
    # the cells of a joint fit's lockstep, in its order (arm-major, by u,
    # the event cell first), as ((arm, label), m)
    cells = [(a, u, 1 - j, risk.size)
             for j, model in enumerate(models) for u, a, risk, _, _ in newton_cells(model, data)]
    return [((a, label), m) for a, _, label, m in sorted(cells, key=lambda c: c[:2])]


def _record_steps(monkeypatch):
    # per newton_step call of the fits that follow, appended to the returned
    # list: its live problems, its LAPACK calls as (name, m) and its
    # conjugate-gradient runs as (Gram block, ok, iterations)
    steps, calls, runs = [], [], []
    for name in ("_dposv", "_dpotrs"):
        def call(a, rhs, lapack=getattr(hazard, name), name=name[1:], **kwargs):
            calls.append((name, a.shape[0]))
            return lapack(a, rhs, **kwargs)
        monkeypatch.setattr(hazard, name, call)
    band_cg, damped = hazard._band_cg, hazard._damped_newton

    def cg(k, s, b, ridge):
        y, ok, iterations = band_cg(k, s, b, ridge)
        runs.append((k, ok, iterations))
        return y, ok, iterations

    def counting(theta, ids, residual, newton_step, max_iter):
        def step(theta_, r, probs):
            before = len(calls), len(runs)
            done, out = newton_step(theta_, r, probs)
            steps.append((probs[~done], calls[before[0] :], runs[before[1] :]))
            return done, out
        return damped(theta, ids, residual, step, max_iter)

    monkeypatch.setattr(hazard, "_band_cg", cg)
    monkeypatch.setattr(hazard, "_damped_newton", counting)
    return steps


@pytest.mark.parametrize(
    "data",
    [gen_synthetic(SyntheticConfig(n=200, seed=41)), _twins_like(200, 42)],
    ids=["synthetic", "twins-like"],
)
def test_first_newton_step_factors_one_lead_per_arm_and_label(data, monkeypatch):
    # the first lockstep step factors each (arm, label) group's largest cell
    # and solves every other cell on the leading block of that factor; each
    # later step factors every live cell, as no band holds 256 units
    steps = _record_steps(monkeypatch)
    basis = _basis(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        models = fit_hazards(basis, 0.5, max_time=25)
    cells = _lockstep_cells(models, data)
    live, first, _ = steps[0]
    assert live.size == len(cells)  # no cell stops at its start iterate
    leads = {}
    for group, m in cells:
        leads.setdefault(group, m)  # m falls within a group
    assert len(leads) == 4
    assert sorted(m for name, m in first if name == "dposv") == sorted(leads.values())
    others = [m for group, m in cells if m != leads[group]]
    assert sorted(m for name, m in first if name == "dpotrs") == sorted(others)
    assert len(others) >= 10
    for live, later, runs in steps[1:]:
        assert sorted(m for _, m in later) == sorted(cells[j][1] for j in live.tolist())
        assert all(name == "dposv" for name, _ in later) and not runs


def _cg_bands(cells, live):
    # oracle: the live cells, as lists of lockstep indices, of each band that
    # qualifies for conjugate gradients. An arm's live cells, in lockstep
    # order, fall into bands: each opens with its lead and takes every next
    # cell of the arm of over half the lead's size
    bands, i, live = [], 0, live.tolist()
    while i < len(live):
        (a, _), lead = cells[live[i]]
        stop = i + 1
        while stop < len(live) and cells[live[stop]][0][0] == a and 2 * cells[live[stop]][1] > lead:
            stop += 1
        if lead >= hazard.CG_MIN_LEAD and stop - i >= hazard.CG_MIN_CELLS:
            bands.append(live[i:stop])
        i = stop
    return bands


@pytest.mark.parametrize(
    "data, max_time, fit, banded",
    [
        # bands of over 256 units beside bands of fewer
        (_large_bands(), 25, fit_hazards, True),
        # each arm's one cell holds over 400 units, alone in its band
        (gen_synthetic(SyntheticConfig(n=900, seed=43)), 1, fit_event_hazard, False),
    ],
    ids=["mixed", "single-cell"],
)
def test_later_newton_steps_solve_large_bands_by_conjugate_gradients(
    data, max_time, fit, banded, monkeypatch
):
    # after the first step, a band of at least CG_MIN_CELLS cells whose lead
    # holds CG_MIN_LEAD units makes one conjugate-gradient run and no dposv
    # call, and every other live cell makes one dposv call
    steps = _record_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        models = fit(_basis(data), 0.5, max_time=max_time)
    cells = _lockstep_cells(models if isinstance(models, tuple) else (models,), data)
    in_bands = factored = 0
    for live, calls, runs in steps[1:]:
        bands = _cg_bands(cells, live)
        cg = {j for band in bands for j in band}
        assert [ok.size for _, ok, _ in runs] == [2 * len(band) for band in bands]
        assert all(ok.all() and iterations <= hazard.CG_MAX_ITER for _, ok, iterations in runs)
        assert sorted(m for _, m in calls) == sorted(cells[j][1] for j in live.tolist() if j not in cg)
        assert all(name == "dposv" for name, _ in calls)
        in_bands += len(cg)
        factored += len(calls)
    assert (in_bands > 0) == banded and factored > 0


def test_capped_conjugate_gradients_hand_their_cells_to_dposv(monkeypatch):
    # at ridge 1e-4 the Newton matrix of each arm's band is too
    # ill-conditioned for CG_MAX_ITER iterations: the second step's capped
    # runs hand their cells to dposv, every later step of those arms
    # factors, and the fit still follows its exact Newton path
    data = _large_bands()
    basis = _basis(data)
    steps = _record_steps(monkeypatch)
    ones = []  # per dposv call: whether it solves for v against 1, untouched by the capped run
    dposv = hazard._dposv

    def checked(a, rhs, **kwargs):
        ones.append(bool(np.all(rhs[:, 1] == 1.0)))
        return dposv(a, rhs, **kwargs)

    monkeypatch.setattr(hazard, "_dposv", checked)
    model = fit_event_hazard(basis, 1e-4, max_time=2)
    assert ones and all(ones)
    cells = _lockstep_cells((model,), data)
    (_, _, first_runs), (live, calls, runs), *later = steps
    assert not first_runs and live.size == len(cells) == 4
    assert [np.shares_memory(k, basis.grams[1]) for k, _, _ in runs] == [False, True]
    failed = []
    for (k, ok, iterations), band in zip(runs, _cg_bands(cells, live)):
        assert iterations == hazard.CG_MAX_ITER and not ok.all()
        failed += [cells[j][1] for j, cell_ok in zip(band, ok.reshape(2, -1).all(axis=0)) if not cell_ok]
    assert calls and sorted(m for _, m in calls) == sorted(failed)
    assert later
    for live, calls, runs in later:
        assert not runs and sorted(m for _, m in calls) == sorted(cells[j][1] for j in live.tolist())
    labels = event_matrix(data, 2)
    lead_w = {}
    for u, a, risk, alpha, b in newton_cells(model, data):
        expect, _, _ = _jacobian_newton_klr(
            _cell_gram(basis, a, risk), labels[risk, u], 1e-4,
            first_w=lead_w.setdefault(a, _start_weight(labels[risk, u])),
        )
        got = np.append(alpha, b)
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)


def test_nan_in_a_large_band_is_a_numerical_error(monkeypatch):
    # a NaN written into arm 1's Gram matrix after the first step lies in
    # every block of the arm's band: its conjugate-gradient run accepts no
    # column, and the exact steps, which dposv need not flag, name the
    # band's first cell
    data = _large_bands()
    good = _basis(data)
    basis = replace(good, grams=tuple(g.copy() for g in good.grams))
    runs = []
    band_cg, damped = hazard._band_cg, hazard._damped_newton

    def cg(k, s, b, ridge):
        y, ok, iterations = band_cg(k, s, b, ridge)
        runs.append(ok)
        return y, ok, iterations

    def poisoned(theta, ids, residual, newton_step, max_iter):
        def step(theta_, r, probs):
            out = newton_step(theta_, r, probs)
            basis.grams[1][0, 0] = np.nan
            return out
        return damped(theta, ids, residual, step, max_iter)

    monkeypatch.setattr(hazard, "_band_cg", cg)
    monkeypatch.setattr(hazard, "_damped_newton", poisoned)
    with pytest.raises(
        NumericalError,
        match=r"^event hazard: cell \(1, 1\): Newton system not finite$",
    ):
        fit_event_hazard(basis, 0.5, max_time=4)
    assert len(runs) == 2 and runs[0].all() and not runs[1].any()


def test_band_cg_solves_each_row_and_accepts_no_nan():
    # oracle: np.linalg.solve of each row's system S K S + ridge I over its
    # leading block; s is zero past each row's size
    rng = np.random.default_rng(12)
    x = rng.normal(size=(300, 3))
    k = gram(x, x, 2.0)
    sizes = [300, 250, 200, 300, 280]
    s = np.zeros((5, 300))
    for i, m in enumerate(sizes):
        s[i, :m] = np.sqrt(rng.uniform(1e-3, 0.25, size=m))
    b = rng.normal(size=s.shape) * (s > 0)
    b[3] = 0.0  # solved at once, by y = 0
    b[4, 7] = np.nan  # never converged, however small its other entries
    y, ok, iterations = hazard._band_cg(k, s, b, 0.5)
    assert ok.tolist() == [True, True, True, True, False] and 0 < iterations < hazard.CG_MAX_ITER
    for i, m in enumerate(sizes[:3]):
        sks = s[i, :m, None] * k[:m, :m] * s[i, :m]
        expect = np.linalg.solve(sks + 0.5 * np.eye(m), b[i, :m])
        assert np.linalg.norm(y[i, :m] - expect) <= 1e-12 * np.linalg.norm(expect)
        assert not y[i, m:].any()
    assert not y[3].any()
    # a NaN in the Gram block reaches every row that takes a product, and
    # none of them counts as converged
    k[5, 5] = np.nan
    _, ok, _ = hazard._band_cg(k, s, b, 0.5)
    assert ok.tolist() == [False, False, False, True, False]
    # with ridge 1e-8 the rows stop at the iteration cap, not converged
    k[5, 5] = 1.0
    _, ok, iterations = hazard._band_cg(k, s[:3], b[:3], 1e-8)
    assert not ok.any() and iterations == hazard.CG_MAX_ITER


def test_first_newton_step_of_a_lead_is_its_exact_step(monkeypatch):
    # from the start iterate, the first call of newton_step takes each
    # group lead's exact dposv step bit for bit, as every later call does;
    # the other cells step on their lead's curvature instead of their own
    loop = {}

    def capture(theta, ids, residual, newton_step, max_iter):
        loop.update(theta=theta, residual=residual, newton_step=newton_step)
        return theta, np.ones(ids.max() + 1, dtype=bool)

    monkeypatch.setattr(hazard, "_damped_newton", capture)
    data = _twins_like(200, 42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        models = fit_hazards(_basis(data), 0.5, max_time=25)
    cells = _lockstep_cells(models, data)
    cols = np.arange(len(cells))
    r = loop["residual"](loop["theta"], cols)
    (done, shared), (_, exact) = (loop["newton_step"](loop["theta"], r, cols) for _ in range(2))
    assert not done.any()
    sizes = [m for _, m in cells]
    rows, c = sum(sizes), len(cells)
    off = np.cumsum([0] + sizes)
    seen = set()
    for j, (group, _) in enumerate(cells):
        alpha_rows = np.arange(off[j], off[j + 1])
        own = np.r_[alpha_rows, rows + j, rows + c + alpha_rows]
        if group in seen:
            assert not np.array_equal(shared[own], exact[own])
        else:
            assert np.array_equal(shared[own], exact[own])
            seen.add(group)


def _separable_cells(n=200):
    # at u = 1 each arm's risk set holds one event, far from every other
    # unit; with a short length scale and a small ridge the first Newton
    # step drives its probability to 1 in floating point
    rng = np.random.default_rng(9)
    x = rng.normal(size=(n, 2))
    x[:2, 0] += 6.0
    event = np.zeros(n, dtype=int)
    event[:2] = 1
    time = np.where(event == 1, 1, 2)
    return _dataset(x=x, a=np.arange(n) % 2, time=time, event=event, t_max=2)


@pytest.mark.parametrize(
    "data, length_scale, ridge, max_time, censor_too, min_risk_set, hits_floor, backtracks",
    [
        (gen_synthetic(SyntheticConfig(n=200, seed=41)), 10.0, 0.5, 25, True, 2, False, False),
        (_twins_like(200, 42), 10.0, 0.5, 25, True, 2, False, False),
        (gen_synthetic(SyntheticConfig(n=900, seed=43)), 10.0, 0.5, 1, False, 400, False, False),
        (_separable_cells(), 1.0, 1e-3, 1, False, 2, True, True),
        # the censoring cell (1, 0), m = 213, halves eta while the other
        # cells step in full: its trials must start from its own iterate
        (_twins_like(400, 1), 10.0, 0.5, 1, True, 150, False, True),
        # each arm's four cells form one band of over 500 units: every step
        # after the first solves them by conjugate gradients
        (_large_bands(), 10.0, 0.5, 4, True, 500, False, False),
    ],
    ids=["synthetic", "twins-like", "synthetic-m400", "weight-floor", "twins-like-backtrack",
         "synthetic-cg"],
)
def test_newton_cells_match_the_jacobian_oracle(
    data, length_scale, ridge, max_time, censor_too, min_risk_set, hits_floor, backtracks
):
    basis = _basis(data, length_scale)
    flipped = Dataset(data.x, data.a, data.time, 1 - data.event, data.grid)
    pairs = [(fit_event_hazard, data), (fit_censor_hazard, flipped)]
    sizes, w_min, backtracked = [], np.inf, False
    for fit, labelled in pairs if censor_too else pairs[:1]:
        model = fit(basis, ridge, max_time=max_time)
        labels = event_matrix(labelled, max_time)
        lead_w = {}  # per arm, the start weight of its first (largest) cell
        for u, a, risk, alpha, b in newton_cells(model, data):
            expect, cell_w_min, cell_backtracked = _jacobian_newton_klr(
                _cell_gram(basis, a, risk), labels[risk, u], ridge,
                first_w=lead_w.setdefault(a, _start_weight(labels[risk, u])),
            )
            got = np.append(alpha, b)
            assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)
            sizes.append(risk.size)
            w_min = min(w_min, cell_w_min)
            backtracked |= cell_backtracked
    assert len(sizes) >= 2 and min(sizes) >= min_risk_set
    assert (w_min < hazard._P_EPS) == hits_floor
    assert backtracked == backtracks


def test_lockstep_cells_follow_their_own_newton_paths(monkeypatch):
    # after each of the first steps, every cell's iterate is the one its
    # own damped Newton loop reaches: the censoring cell (1, 0) halves
    # eta at its first step while (1, 1) steps in full
    data = _twins_like(400, 1)
    basis = _basis(data)
    labels = event_matrix(Dataset(data.x, data.a, data.time, 1 - data.event, data.grid), 1)
    for max_iter in (1, 2, 3):
        monkeypatch.setattr(hazard, "NEWTON_MAX_ITER", max_iter)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model = fit_censor_hazard(basis, 0.5, max_time=1)
        backtracked = {}
        for u, a, risk, alpha, b in newton_cells(model, data):
            expect, _, backtracked[a] = _jacobian_newton_klr(
                _cell_gram(basis, a, risk), labels[risk, u], 0.5, max_iter
            )
            got = np.append(alpha, b)
            assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)
        assert backtracked == {0: True, 1: False}


def test_newton_cells_converge_with_weights_at_the_floor(monkeypatch):
    # ridge 0.5 on the Gram matrix of the kernel 100 exp(-|x - y|^2 / 2):
    # the first steps drive each arm's isolated event to p = 1 in floating
    # point, so its weight sits at the _P_EPS floor and the Newton matrix
    # K + ridge / w has a diagonal entry of ridge / _P_EPS = 5e11 next to
    # entries of at most 100
    data = _separable_cells()
    good = _basis(data, 1.0)
    basis = replace(good, grams=tuple(100.0 * g for g in good.grams))
    largest = []
    dposv = hazard._dposv

    def recording(a, rhs, **kwargs):
        largest.append(np.diag(a).max())
        return dposv(a, rhs, **kwargs)

    monkeypatch.setattr(hazard, "_dposv", recording)
    model = fit_event_hazard(basis, 0.5, max_time=1)
    assert max(largest) >= 0.5 / hazard._P_EPS
    labels = event_matrix(data, 1)
    cells = list(newton_cells(model, data))
    assert len(cells) == 2
    for u, a, risk, alpha, b in cells:
        k = _cell_gram(basis, a, risk)
        _, grad = klr_loss_grad(k, labels[risk, u], alpha, b, 0.5)
        assert np.linalg.norm(grad) <= hazard.NEWTON_TOL
        expect, w_min, _ = _jacobian_newton_klr(k, labels[risk, u], 0.5)
        assert w_min < hazard._P_EPS
        got = np.append(alpha, b)
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)


def test_indefinite_newton_system_is_a_numerical_error():
    data = _dataset(
        x=np.arange(5.0), a=np.ones(5, dtype=int), time=[1, 1, 2, 2, 2], event=[0, 1, 0, 1, 0],
        t_max=2,
    )
    good = _basis(data)
    basis = replace(good, grams=(good.grams[0], -10.0 * np.eye(5)))
    with pytest.raises(
        NumericalError,
        match=r"^event hazard: cell \(1, 1\): Newton system not positive definite "
        r"\(dposv info \d+\)$",
    ):
        fit_event_hazard(basis, 0.5)


def test_non_finite_newton_system_is_a_numerical_error():
    # dposv need not flag a NaN on the diagonal of the Newton system: the
    # first non-finite cell is named instead of stepping on NaN
    data = _dataset(
        x=np.arange(5.0), a=np.ones(5, dtype=int), time=[1, 1, 2, 2, 2], event=[0, 1, 0, 1, 0],
        t_max=2,
    )
    good = _basis(data)
    poisoned = good.grams[1].copy()
    poisoned[0, 0] = np.nan
    with pytest.raises(
        NumericalError, match=r"^event hazard: cell \(1, 1\): Newton system not finite$"
    ):
        fit_event_hazard(replace(good, grams=(good.grams[0], poisoned)), 0.5)


def test_failed_newton_cell_is_named(monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=60, seed=5))
    basis = _basis(data)
    flipped = Dataset(data.x, data.a, data.time, 1 - data.event, data.grid)
    dposv = hazard._dposv
    for fit, labelled, what, (u, a) in (
        (fit_event_hazard, data, "event hazard", (2, 1)),
        (fit_censor_hazard, flipped, "censoring hazard", (3, 1)),
    ):
        risk = np.flatnonzero(active_matrix(labelled, a, 5)[:, u])
        target = event_matrix(labelled, 5)[risk, u]
        assert 0 < target.sum() < target.size  # a Newton cell
        # ... and the only one of its fit with this many units, so its
        # Newton system is the only one of that size
        model = fit(basis, 0.5, max_time=5)
        sizes = [risk.size for _, _, risk, _, _ in newton_cells(model, data)]
        assert sizes.count(risk.size) == 1

        def failing(b, rhs, size=risk.size, **kwargs):
            if b.shape[0] == size:
                return b, rhs, 7
            return dposv(b, rhs, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(hazard, "_dposv", failing)
            with pytest.raises(NumericalError) as err:
                fit(basis, 0.5, max_time=5)
        assert str(err.value) == (
            f"{what}: cell ({u}, {a}): Newton system not positive definite (dposv info 7)"
        )
