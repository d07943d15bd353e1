import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

import cfsurv.estimators
import cfsurv.hazard
from cfsurv import kernels
from cfsurv.cli import main as cli_main
from cfsurv.dgp import SyntheticConfig, gen_synthetic
from cfsurv.errors import EstimationError, LargeWeightWarning
from cfsurv.estimators import (
    ESTIMATOR_KINDS,
    EstimatorParams,
    FoldPlan,
    Nuisances,
    _normal_interval,
    _result,
    _spec,
    _summands,
    effect_estimate,
    fit_nuisances,
    run_estimator,
)
from cfsurv.hazard import (
    PROPENSITY_FLOOR,
    KernelBasis,
    KernelHazardModel,
    PropensityModel,
    fit_event_hazard,
    fit_hazards,
)
from cfsurv.survival import Dataset, TimeGrid, write_dataset_csv
from oracles import discrete_outcomes, known_nuisances


def _units(x, a, time, t_max=3):
    """Censored units with one covariate each, all in arm a and leaving at `time`."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    n = len(x)
    return Dataset(
        x=x, a=np.full(n, a), time=np.full(n, time), event=np.zeros(n, dtype=int),
        grid=TimeGrid(t_max),
    )


def _oracle_nuisances(data, hazard, pi1=None):
    """Known curves: event hazard(x, u) in both arms, no censoring, P(A=1|X) = pi1(x)."""

    def event(x, a, u):
        return hazard(x[:, 0], u)

    if pi1 is None:
        return known_nuisances(data, event)

    def censor(x, a, u):
        return np.zeros(x.shape[0])

    return known_nuisances(data, event, censor, lambda x: pi1(x[:, 0]))


def _survival_at(nuisances, arm, t):
    return nuisances.folds[0][2][arm][1][:, t]


def _step_at(u_step):
    """Hazard 1 - x at u_step and 0 elsewhere, so S_t(x) = x from t = u_step on."""
    return lambda x, u: 1.0 - x if u == u_step else np.zeros_like(x)


def _or_point(s):
    data = _units(s, a=1, time=1)
    nuisances = _oracle_nuisances(data, _step_at(1))
    return run_estimator(data, "or", [1], nuisances=nuisances)[0][(1, 1)].point


def test_plugin_examples():
    assert _or_point([0.8, 0.6]) == pytest.approx(0.7)
    assert _or_point(np.ones(5)) == 1.0
    with pytest.raises(ValueError, match="at least one unit"):
        _units([], a=1, time=1)  # an empty sample never reaches an estimator


def test_confidence_interval_constant_influence():
    _, lo, hi = _normal_interval(0.4, np.full(10, 0.0))
    assert lo == hi == pytest.approx(0.4)


def test_confidence_interval_hand_example():
    se, lo, hi = _normal_interval(0.0, np.array([-1.0, 1.0]))
    # sample variance 2, n = 2: half-width z_{0.975} * sqrt(2/2)
    assert se == 1.0
    assert hi == pytest.approx(1.959964, abs=1e-5)
    assert lo == pytest.approx(-1.959964, abs=1e-5)


def test_confidence_interval_requires_two_points():
    res = _result("or", 1, 5, 0.3, np.array([0.0]))
    assert res.point == 0.3
    assert np.isnan(res.std_error) and np.isnan(res.ci_low) and np.isnan(res.ci_high)


def test_confidence_interval_coverage_monte_carlo():
    rng = np.random.default_rng(99)
    n, trials = 100, 2000
    draws = rng.standard_normal((trials, n))
    means = draws.mean(axis=1)
    half = ndtri(0.975) * np.sqrt(draws.var(axis=1, ddof=1) / n)
    covered = np.mean((means - half <= 0.0) & (0.0 <= means + half))
    assert 0.92 <= covered <= 0.98


def test_augmented_zero_gamma_is_plugin():
    # every unit is untreated, so arm 1 has no active cell and gamma = 0
    data = _units([0.9, 0.7, 0.5], a=0, time=1)
    nuisances = _oracle_nuisances(data, _step_at(1), lambda x: np.full(len(x), 0.5))
    res = run_estimator(data, "dr", [1], nuisances=nuisances)[0][(1, 1)]
    s = _survival_at(nuisances, 1, 1)
    np.testing.assert_allclose(s, [0.9, 0.7, 0.5], rtol=1e-15)
    assert res.point == np.mean(s)
    np.testing.assert_array_equal(res.influence, s - res.point)


def test_augmented_zero_residual_is_plugin():
    # both units leave at 1 without an event, at hazard 0 there, so the residual
    # vanishes on every active cell; gamma is -S_2 / P(A=1|X) = -2 on them
    data = _units([0.9, 0.7], a=1, time=1)
    nuisances = _oracle_nuisances(data, _step_at(2), lambda x: x / 2.0)
    res = run_estimator(data, "dr", [2], nuisances=nuisances)[0][(1, 2)]
    assert res.point == np.mean(_survival_at(nuisances, 1, 2))


def test_augmented_single_unit_hand_example():
    # S_1 = 0.9, gamma_1 = -S_1 * S_0 / S_1 / 0.5 = -2, residual 0 - 0.1
    data = _units([0.9], a=1, time=1)
    nuisances = _oracle_nuisances(data, _step_at(1), lambda x: np.full(len(x), 0.5))
    res = run_estimator(data, "dr", [1], nuisances=nuisances)[0][(1, 1)]
    assert res.point == pytest.approx(1.1, abs=1e-15)
    assert res.influence[0] == pytest.approx(0.9 - 1.1 + 0.2, abs=1e-15)


def test_influence_mean_zero_for_augmented():
    data = gen_synthetic(SyntheticConfig(n=60, seed=3))
    for kind in ("balance", "dr"):
        results, failures = run_estimator(data, kind, [6], seed=11)
        assert not failures
        for arm in (0, 1):
            assert abs(float(np.mean(results[(arm, 6)].influence))) <= 1e-12


def test_effect_estimate_identical_arms():
    r = run_estimator(gen_synthetic(SyntheticConfig(n=40, seed=1)), "or", [4])[0][(1, 4)]
    diff = effect_estimate(r, r)
    assert diff.point == 0.0
    assert diff.ci_high >= diff.ci_low
    assert diff.arm == "diff"


def test_effect_estimate_misaligned():
    data = gen_synthetic(SyntheticConfig(n=40, seed=1))
    r1 = run_estimator(data, "or", [4])[0][(1, 4)]
    r0 = run_estimator(data.subset(np.arange(20)), "or", [4])[0][(0, 4)]
    with pytest.raises(ValueError):
        effect_estimate(r1, r0)
    r0_other_t = run_estimator(data, "or", [5])[0][(0, 5)]
    with pytest.raises(ValueError):
        effect_estimate(r1, r0_other_t)


def test_or_at_time_zero():
    data = gen_synthetic(SyntheticConfig(n=50, seed=2))
    res = run_estimator(data, "or", [0])[0][(1, 0)]
    assert res.point == 1.0
    assert res.std_error == 0.0
    assert res.ci_low == res.ci_high == 1.0


def test_or_deterministic():
    data = gen_synthetic(SyntheticConfig(n=50, seed=2))
    a = run_estimator(data, "or", [8])[0][("diff", 8)]
    b = run_estimator(data, "or", [8])[0][("diff", 8)]
    assert a.point == b.point and a.std_error == b.std_error


def _unit_dataset():
    return Dataset(
        x=np.array([[0.0]]), a=np.array([1]), time=np.array([3]),
        event=np.array([1]), grid=TimeGrid(5),
    )


def _censor_oracle(g_curve):
    """Censoring hazard whose survival curve is the given fixed vector."""
    curve = np.asarray(g_curve, dtype=float)
    hazards = np.zeros_like(curve)
    hazards[1:] = 1.0 - curve[1:] / curve[:-1]

    def fn(x, a, u):
        return np.full(x.shape[0], hazards[u])

    return fn


def _ipw(data, t, censor, prop):
    nuisances = known_nuisances(data, censor=censor, propensity=prop)
    return run_estimator(data, "ipw", [t], nuisances=nuisances)[0][(1, t)]


def test_ipw_single_unit_formula():
    # A=a, E=1, T=3 <= t, pi=0.5, G_3=0.8: point = 1 - 2.5
    data = _unit_dataset()
    censor = _censor_oracle([1.0, 0.8, 0.8, 0.8, 0.8, 0.8])
    res = _ipw(data, 3, censor, lambda x: np.full(x.shape[0], 0.5))
    assert res.point == pytest.approx(-1.5, abs=1e-12)


def test_ipw_no_events_before_t():
    data = Dataset(
        x=np.zeros((4, 1)), a=np.ones(4, dtype=int), time=np.full(4, 5),
        event=np.ones(4, dtype=int), grid=TimeGrid(5),
    )
    censor = _censor_oracle(np.ones(6))
    res = _ipw(data, 3, censor, lambda x: np.full(x.shape[0], 0.7))
    assert res.point == 1.0


def test_ipw_collapses_to_empirical_survival():
    rng = np.random.default_rng(8)
    times = rng.integers(1, 7, size=40)
    data = Dataset(
        x=rng.normal(size=(40, 1)), a=np.ones(40, dtype=int), time=times,
        event=np.ones(40, dtype=int), grid=TimeGrid(6),
    )
    censor = _censor_oracle(np.ones(7))
    for t in (2, 4):
        res = _ipw(data, t, censor, lambda x: np.ones(x.shape[0]))
        assert res.point == pytest.approx(float(np.mean(times > t)), abs=1e-12)


def test_dr_equals_dr_clip_when_overlap_healthy():
    data = gen_synthetic(SyntheticConfig(n=80, seed=21))
    plain = run_estimator(data, "dr", [3], seed=5)[0][("diff", 3)]
    clipped = run_estimator(data, "dr-clip", [3], seed=5)[0][("diff", 3)]
    assert plain.point == clipped.point
    assert plain.std_error == clipped.std_error
    assert plain.kind == "dr" and clipped.kind == "dr-clip"


def test_balance_large_sigma2_approaches_crossfit_plugin():
    data = gen_synthetic(SyntheticConfig(n=60, seed=9))
    res = run_estimator(data, "balance", [5], EstimatorParams(sigma2=1e12), seed=4)[0][(1, 5)]
    # oracle: replicate the fold split and average the fold plug-ins
    plan = FoldPlan.make(data.n, 2, seed=4)
    fold_points = []
    for f in range(2):
        train = data.subset(plan.train_indices(f))
        basis = KernelBasis.of(train, 10.0)
        model = fit_event_hazard(basis, 0.5, max_time=5)
        held_out = data.subset(plan.fold_indices(f)).x
        lam = model.hazard_matrix(basis.prediction_gram(held_out, 1), 1)
        fold_points.append(float(np.mean(np.cumprod(1.0 - lam, axis=1)[:, 5])))
    assert res.point == pytest.approx(float(np.mean(fold_points)), abs=1e-8)


def test_balance_small_sigma2_oracle_hazard_instance():
    # single-arm-eligible, censoring-free, all events after t: the correction
    # vanishes and the estimate matches the plug-in at the true hazards
    rng = np.random.default_rng(17)
    n, t = 12, 3
    grid = TimeGrid(6)
    data = Dataset(
        x=rng.normal(size=(n, 2)), a=np.ones(n, dtype=int),
        time=rng.integers(4, 7, size=n), event=np.ones(n, dtype=int), grid=grid,
    )
    truth = {(u, a): 0.0 if u <= t else 0.3 for u in range(1, 7) for a in (0, 1)}
    params = EstimatorParams(length_scale=1.0, sigma2=1e-8)
    nuisances = known_nuisances(data, lambda x, a, u: np.full(x.shape[0], truth[(u, a)]))
    res = run_estimator(data, "balance", [t], params, nuisances=nuisances)[0][(1, t)]
    assert abs(res.point - 1.0) <= 1e-6


def test_cross_fit_determinism():
    data = gen_synthetic(SyntheticConfig(n=60, seed=30))
    first = run_estimator(data, "balance", [5], seed=13)[0][("diff", 5)]
    second = run_estimator(data, "balance", [5], seed=13)[0][("diff", 5)]
    assert first.point == second.point
    assert np.array_equal(first.influence, second.influence)
    other = run_estimator(data, "balance", [5], seed=14)[0][("diff", 5)]
    assert other.point != first.point


def _capture_fits(monkeypatch):
    """Record the models the fit stage fits, by model: event, censor, propensity."""
    fitted = {"event": [], "censor": [], "propensity": []}
    for name, models in (
        ("fit_hazards", ("event", "censor")), ("fit_event_hazard", ("event",)),
        ("fit_censor_hazard", ("censor",)), ("fit_propensity", ("propensity",)),
    ):
        original = getattr(cfsurv.estimators, name)

        def capturing(*args, _original=original, _models=models, **kwargs):
            result = _original(*args, **kwargs)
            for model, fit in zip(_models, result if len(_models) == 2 else (result,)):
                fitted[model].append(fit)
            return result

        monkeypatch.setattr(cfsurv.estimators, name, capturing)
    return fitted


def test_censor_fit_stops_at_last_evaluation_time(monkeypatch):
    # ipw reads G only for units with T <= t, dr only G_{u-1} with u <= t
    data = gen_synthetic(SyntheticConfig(n=100, seed=3))
    assert data.time.max() > 10
    fitted = _capture_fits(monkeypatch)
    fit_nuisances(data, ("dr",), [5, 10])
    assert len(fitted["censor"]) == 5
    for censor in fitted["censor"]:
        newton = np.flatnonzero(np.isnan(censor.level).any(axis=0))
        assert newton.size and newton.max() <= 10
        assert censor.max_time == 10


def test_fold_plan():
    plan = FoldPlan.make(11, 3, seed=0)
    counts = np.bincount(plan.assignment)
    assert counts.sum() == 11 and counts.min() >= 3
    again = FoldPlan.make(11, 3, seed=0)
    assert np.array_equal(plan.assignment, again.assignment)
    with pytest.raises(ValueError):
        FoldPlan.make(2, 5, seed=0)


def test_estimand_spec_validation(tmp_path):
    data = gen_synthetic(SyntheticConfig(n=30, seed=1))
    path = tmp_path / "data.csv"
    write_dataset_csv(data, str(path))
    base = ["estimate", "--data", str(path), "--estimator", "or"]
    assert cli_main(base + ["--t", "5", "--arm", "2"]) == 2
    assert cli_main(base + ["--t=-1", "--arm", "1"]) == 2
    with pytest.raises(ValueError):
        run_estimator(data, "or", [-1])


def test_run_estimator_validation():
    data = gen_synthetic(SyntheticConfig(n=30, seed=1))
    with pytest.raises(ValueError):
        run_estimator(data, "nope", [5])
    with pytest.raises(ValueError):
        run_estimator(data, "or", [])
    with pytest.raises(ValueError):
        run_estimator(data, "or", [40])
    with pytest.raises(ValueError, match="must not repeat"):
        run_estimator(data, "or", [5, 5])
    # nuisances fit for ipw hold no event model, which dr needs
    ipw_fit = fit_nuisances(data, ("ipw",), [5])
    with pytest.raises(ValueError):
        run_estimator(data, "dr", [5], nuisances=ipw_fit)


def test_run_estimator_rejects_malformed_nuisances():
    # a dropped or repeated fold would be averaged over the wrong units,
    # short curves would fail inside numpy broadcasting, and a missing
    # survival curve or balance covariate block with an AttributeError or
    # TypeError deep in the evaluation
    data = gen_synthetic(SyntheticConfig(n=60, seed=4))
    nuisances = fit_nuisances(data, ("dr",), [10], seed=1)
    folds = nuisances.folds
    (idx, xs, arms) = folds[0]
    short = tuple((lam[:, :10], s, g, pi) for lam, s, g, pi in arms)
    bad_pi = tuple((lam, s, g, pi[:-1]) for lam, s, g, pi in arms)
    no_s = tuple((lam, None, g, pi) for lam, s, g, pi in arms)
    bad_xs = rf"xs must be a \(12, {data.d}\) matrix"
    for kind, broken, match in (
        ("dr", folds[1:], "partition"),
        ("dr", (folds[0], *folds), "partition"),
        ("dr", (folds[0], folds[0], *folds[2:]), "partition"),
        ("dr", ((idx, xs, short), *folds[1:]), r"\(12, >= 11\)"),
        ("dr", ((idx, xs, bad_pi), *folds[1:]), r"\(12, >= 11\)"),
        *((kind, ((idx, xs, no_s), *folds[1:]), f"lack a curve the {kind} estimator needs")
          for kind in ("or", "dr", "balance")),
        ("balance", ((idx, None, arms), *folds[1:]), bad_xs),
        ("balance", ((idx, xs[:, :1], arms), *folds[1:]), bad_xs),
    ):
        with pytest.raises(ValueError, match=match):
            run_estimator(data, kind, [10], seed=1, nuisances=Nuisances(broken))
    for kind in ("or", "dr", "balance"):
        run_estimator(data, kind, [10], seed=1, nuisances=nuisances)


def test_ipw_reads_censoring_survival_only_up_to_the_last_time():
    # units that leave after max(times) add nothing to ipw, so curves cut
    # to max(times) + 1 columns give the same bytes as the fitted ones
    data = gen_synthetic(SyntheticConfig(n=60, seed=4))
    assert data.time.max() > 10
    nuisances = fit_nuisances(data, ("ipw",), [5, 10], seed=1)
    cut = Nuisances(tuple(
        (idx, xs, tuple((lam, s, g[:, :11], pi) for lam, s, g, pi in arms))
        for idx, xs, arms in nuisances.folds
    ))
    whole = run_estimator(data, "ipw", [5, 10], nuisances=nuisances)[0]
    short = run_estimator(data, "ipw", [5, 10], nuisances=cut)[0]
    for key, res in whole.items():
        assert res.influence.tobytes() == short[key].influence.tobytes()


def test_fit_nuisances_takes_kinds_of_one_fold_count():
    data = gen_synthetic(SyntheticConfig(n=30, seed=1))
    for kinds in (("or", "dr"), ("dr", "balance"), ()):
        with pytest.raises(ValueError, match="do not share one fold count"):
            fit_nuisances(data, kinds, [5])
    with pytest.raises(TypeError, match="tuple of estimator kinds"):
        fit_nuisances(data, "or", [5])
    with pytest.raises(ValueError, match="unknown estimator"):
        fit_nuisances(data, ("or", "nope"), [5])


def test_kinds_of_one_fold_count_share_one_fit(monkeypatch):
    # or and ipw both fit on the whole sample: one basis (a training and a
    # prediction Gram per arm), one fit_hazards call for both hazards and
    # one propensity fit serve both kinds
    data = gen_synthetic(SyntheticConfig(n=60, seed=12))
    calls = []
    for name in ("fit_hazards", "fit_event_hazard", "fit_censor_hazard", "fit_propensity"):
        original = getattr(cfsurv.estimators, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cfsurv.estimators, name, counting)
    shapes = _count_grams(monkeypatch)
    nuisances = fit_nuisances(data, ("or", "ipw"), [5, 10], seed=3)
    assert calls == ["fit_hazards", "fit_propensity"]
    arms = [int(np.count_nonzero(data.a == a)) for a in (0, 1)]
    assert shapes == [(m, m) for m in arms] + [(data.n, m) for m in arms]
    (_, _, curves), = nuisances.folds
    assert all(curve is not None for arm in curves for curve in arm)
    for kind in ("or", "ipw"):
        results, failures = run_estimator(data, kind, [5, 10], seed=3, nuisances=nuisances)
        assert not failures and len(results) == 6


@pytest.mark.parametrize("arm", [0, 1])
def test_run_estimator_checks_the_curves_of_both_arms(arm):
    data = gen_synthetic(SyntheticConfig(n=30, seed=1))
    (idx, xs, arms), = fit_nuisances(data, ("or",), [5]).folds
    broken = list(arms)
    broken[arm] = (None, *arms[arm][1:])  # no event hazards
    nuisances = Nuisances(((idx, xs, tuple(broken)),))
    with pytest.raises(ValueError, match="nuisances lack a curve the or estimator needs"):
        run_estimator(data, "or", [5], nuisances=nuisances)



def _count_grams(monkeypatch):
    """Record the (rows, cols) shape of every Gram matrix cfsurv builds."""
    shapes = []

    def counting(rows, cols, length_scale):
        shapes.append((len(rows), len(cols)))
        return kernels.gram(rows, cols, length_scale)

    monkeypatch.setattr(cfsurv.hazard, "gram", counting)
    monkeypatch.setattr(cfsurv.estimators, "gram", counting)
    return shapes


def _balance_rows(data, nuisances):
    """The (n_a, n_fold) shape of each (fold, arm) row block a balance evaluation builds."""
    return [(int(np.count_nonzero(data.a[idx] == a)), len(idx))
            for idx, _, _ in nuisances.folds for a in (0, 1)]


@pytest.mark.parametrize(
    "kind, arm_grams, eval_grams",
    # per arm, every fold builds one training and one prediction Gram, the
    # latter for both models; or and ipw predict on their training units
    # the same way; balance evaluates each fold with one block of the
    # fold's Gram per arm, the rows its balance solve reads
    [("or", 2, 0), ("ipw", 2, 0), ("dr", 10, 0), ("dr-clip", 10, 0), ("balance", 4, 2)],
)
def test_each_fold_builds_its_grams_once(monkeypatch, kind, arm_grams, eval_grams):
    data = gen_synthetic(SyntheticConfig(n=60, seed=12))
    shapes = _count_grams(monkeypatch)
    nuisances = fit_nuisances(data, (kind,), [5, 10], seed=3)
    fit_grams = 2 * arm_grams
    assert len(shapes) == fit_grams
    # per fold: each arm's training Gram, then the evaluated units against
    # each arm; no Gram spans both arms of a training set
    expected = []
    for idx, _, _ in nuisances.folds:
        train = np.arange(data.n) if len(idx) == data.n else np.setdiff1d(np.arange(data.n), idx)
        arms = [int(np.count_nonzero(data.a[train] == a)) for a in (0, 1)]
        expected += [(m, m) for m in arms] + [(len(idx), m) for m in arms]
    assert shapes == expected
    run_estimator(data, kind, [5, 10], seed=3, nuisances=nuisances)
    assert len(shapes) == fit_grams + eval_grams * len(nuisances.folds)
    # balance: per fold and arm, the arm's rows against the fold, (n_a, n_fold);
    # no (n_fold, n_fold) Gram is built
    assert shapes[fit_grams:] == (_balance_rows(data, nuisances) if eval_grams else [])


def test_balance_evaluation_holds_one_arms_gram_rows(monkeypatch):
    # each arm's solve builds its own rows of the fold's Gram, (n_a, n_fold),
    # and no (n_fold, n_fold) Gram; the evaluate stage's allocations peak
    # under 3.5 fold-sized Grams' bytes; an evaluation that keeps one
    # fold's whole Gram alive while it builds the next, with a temporary
    # of their size, peaks at 4.6 on this sample
    data = gen_synthetic(SyntheticConfig(n=600, seed=5))
    times = [5, 10, 15, 20, 25]
    nuisances = fit_nuisances(data, ("balance",), times, seed=3)
    n_fold = max(len(idx) for idx, _, _ in nuisances.folds)
    shapes = _count_grams(monkeypatch)
    tracemalloc.start()
    try:
        run_estimator(data, "balance", times, seed=3, nuisances=nuisances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == _balance_rows(data, nuisances)
    assert all(rows < cols for rows, cols in shapes)
    assert peak <= 3.5 * n_fold**2 * 8


@pytest.mark.parametrize("kind, folds", [("or", 1), ("balance", 2)])
def test_a_training_fold_without_an_arm_fails_before_any_fit(monkeypatch, kind, folds):
    # without treated units to train on, the arm-1 hazards would be the
    # empty-cell floor everywhere: a made-up estimate with zero spread
    data = gen_synthetic(SyntheticConfig(n=40, seed=3))
    shapes = _count_grams(monkeypatch)
    control = Dataset(data.x, np.zeros_like(data.a), data.time, data.event, data.grid)
    with pytest.raises(EstimationError, match=rf"^{kind}: training fold 0 of {folds} has no "
                       r"units in arm 1$"):
        run_estimator(control, kind, [5, 10], seed=3)
    if folds > 1:
        # one treated unit: only the training fold that leaves it out lacks arm 1
        one = Dataset(data.x, (np.arange(data.n) == 7).astype(int), data.time, data.event,
                      data.grid)
        held_out = FoldPlan.make(data.n, folds, seed=3).assignment[7]
        with pytest.raises(EstimationError, match=f"training fold {held_out} of {folds} "):
            fit_nuisances(one, (kind,), [5, 10], seed=3)
    assert shapes == []  # no basis was built


def _apart(data, idx, train, prop, censor=True):
    """A fold entry whose hazard models each fit and predict from a basis of their own.

    With `censor`, each model comes from a `fit_hazards` call on its own
    basis, as the fit stage fits both; without, the event hazard is fit
    alone and there is no censoring model.
    """
    x = data.x[idx]
    predicted = []
    for which in (0, 1) if censor else (0,):
        basis = KernelBasis.of(train, 10.0)
        args = basis, 0.5, 10
        model = fit_hazards(*args)[which] if censor else fit_event_hazard(*args)
        predicted.append((model, [basis.prediction_gram(x, a) for a in (0, 1)]))
    (event, k_event), (censor, k_censor) = (*predicted, (None, None))[:2]
    curves = []
    for a in (0, 1):
        lam = event.hazard_matrix(k_event[a], a)
        g = None
        if censor is not None:
            g = np.cumprod(1.0 - censor.hazard_matrix(k_censor[a], a), axis=1)
        pi = None if prop is None else prop.prob(x, a)
        curves.append((lam, np.cumprod(1.0 - lam, axis=1), g, pi))
    return idx, basis.standardize(x), tuple(curves)


def test_shared_grams_give_the_fit_per_model_bytes(monkeypatch):
    # sharing the basis and prediction Gram changes no arithmetic: rebuild
    # every fold's models and predictions separately and compare bytes
    data = gen_synthetic(SyntheticConfig(n=60, seed=13))
    fitted = _capture_fits(monkeypatch)
    nuisances = fit_nuisances(data, ("dr",), [5, 10], seed=2)
    shared = run_estimator(data, "dr", [5, 10], seed=2, nuisances=nuisances)[0]
    plan = FoldPlan.make(data.n, 5, seed=2)
    separate = Nuisances(tuple(
        _apart(data, idx, data.subset(plan.train_indices(f)), prop)
        for f, ((idx, _, _), prop) in enumerate(zip(nuisances.folds, fitted["propensity"]))
    ))
    apart = run_estimator(data, "dr", [5, 10], seed=2, nuisances=separate)[0]
    for key, res in shared.items():
        assert res.point == apart[key].point
        assert res.influence.tobytes() == apart[key].influence.tobytes()
    # the whole sample is predicted through per-arm prediction Grams too
    whole = run_estimator(data, "or", [5, 10])[0]
    only_event = _apart(data, np.arange(data.n), data, None, censor=False)
    alone = run_estimator(data, "or", [5, 10], nuisances=Nuisances((only_event,)))[0]
    for key, res in whole.items():
        assert res.influence.tobytes() == alone[key].influence.tobytes()


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_evaluation_reads_curves_and_predicts_nothing(monkeypatch, kind):
    # the fit stage hands over held-out curves: evaluating them calls no
    # model, and only balance builds Grams: per fold and arm, the rows of
    # the fold's Gram its solve reads
    data = gen_synthetic(SyntheticConfig(n=60, seed=12))
    nuisances = fit_nuisances(data, (kind,), [5, 10], seed=3)
    calls = []
    for owner, name in (
        (KernelHazardModel, "hazard_matrix"),
        (KernelBasis, "prediction_gram"),
        (PropensityModel, "prob"),
    ):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    shapes = _count_grams(monkeypatch)
    run_estimator(data, kind, [5, 10], seed=3, nuisances=nuisances)
    assert calls == []
    assert shapes == (_balance_rows(data, nuisances) if kind == "balance" else [])


_TIMES = [5, 10, 15]


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_times_evaluated_together_match_single_time_calls(kind):
    # the same nuisances throughout: fit_nuisances fits only up to max(times)
    data = gen_synthetic(SyntheticConfig(n=120, seed=40))
    nuisances = fit_nuisances(data, (kind,), _TIMES, seed=6)
    together, failures = run_estimator(data, kind, _TIMES, seed=6, nuisances=nuisances)
    assert failures == {}
    for t in _TIMES:
        alone = run_estimator(data, kind, [t], seed=6, nuisances=nuisances)[0]
        for arm in (0, 1, "diff"):
            got, want = together[(arm, t)], alone[(arm, t)]
            values = ("point", "std_error", "ci_low", "ci_high")
            if kind == "balance":
                # one stacked weight solve per (fold, arm) reorders the linear algebra
                for name in values:
                    assert abs(getattr(got, name) - getattr(want, name)) <= 1e-8 * want.std_error
            else:
                assert [getattr(got, name) for name in values] == [
                    getattr(want, name) for name in values
                ]
                assert got.influence.tobytes() == want.influence.tobytes()


def _fail_solve_of_t10(monkeypatch):
    original = cfsurv.estimators.solve_balance_weights

    def failing(k, r, active, sigma2):
        omega, failures = original(k, r, active, sigma2)
        # the direction of t = 10, the last timestep it is nonzero at
        hit = [j for j in range(r.shape[2]) if r[:, 10, j].any() and not r[:, 11, j].any()]
        omega[:, :, hit] = 0.0
        return omega, {**failures, **dict.fromkeys(hit, "injected solve failure")}

    monkeypatch.setattr(cfsurv.estimators, "solve_balance_weights", failing)


def test_failed_time_leaves_the_other_times_in_place(monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=120, seed=41))
    nuisances = fit_nuisances(data, ("balance",), _TIMES, seed=7)
    clean = run_estimator(data, "balance", _TIMES, seed=7, nuisances=nuisances)[0]
    _fail_solve_of_t10(monkeypatch)
    results, failures = run_estimator(data, "balance", _TIMES, seed=7, nuisances=nuisances)
    assert set(failures) == {(0, 10), (1, 10), ("diff", 10)}
    assert all("injected" in reason for reason in failures.values())
    assert set(results) == {key for key in clean if key[1] != 10}
    for key, res in results.items():
        assert abs(res.point - clean[key].point) <= 1e-8 * clean[key].std_error


def _zero_propensity(idx, data, curves):
    # a treated unit's denominator vanishes from u = 0
    lam, s, g, pi = curves
    pi = pi.copy()
    pi[np.flatnonzero(data.a[idx] == 1)[0]] = 0.0
    return lam, s, g, pi


def _zero_survival(idx, data, curves):
    # a nonpositive survival value at u = 12 breaks the ratio q of every time
    lam, s, g, pi = curves
    s = s.copy()
    s[np.flatnonzero(data.a[idx] == 1)[0], 12] = 0.0
    return lam, s, g, pi


@pytest.mark.parametrize(
    "kind, inject, reason",
    [
        ("dr", _zero_propensity, "zero inverse-probability denominator"),
        ("dr", _zero_survival, "nonpositive survival values"),
        ("balance", _zero_survival, "nonpositive survival values"),
    ],
    ids=["dr-zero-propensity", "dr-zero-survival", "balance-zero-survival"],
)
def test_dr_fault_fails_every_time_of_its_arm(kind, inject, reason):
    # fitted curves never fault q or dr's weights (hazards and propensities
    # are clamped), so break one treated unit's curves in the first fold
    data = gen_synthetic(SyntheticConfig(n=120, seed=41))
    nuisances = fit_nuisances(data, (kind,), _TIMES, seed=7)
    clean = run_estimator(data, kind, _TIMES, seed=7, nuisances=nuisances)[0]
    (idx, xs, (arm0, arm1)), *rest = nuisances.folds
    broken = Nuisances(((idx, xs, (arm0, inject(idx, data, arm1))), *rest))
    results, failures = run_estimator(data, kind, _TIMES, seed=7, nuisances=broken)
    assert set(failures) == {(arm, t) for arm in (1, "diff") for t in _TIMES}
    assert all(reason in r for r in failures.values())
    assert set(results) == {(0, t) for t in _TIMES}
    for key, res in results.items():
        assert res.point == clean[key].point
        assert res.influence.tobytes() == clean[key].influence.tobytes()


def test_dr_weighs_each_fold_and_arm_once(monkeypatch):
    data = gen_synthetic(SyntheticConfig(n=60, seed=12))
    nuisances = fit_nuisances(data, ("dr",), _TIMES, seed=3)
    widths = []
    original = cfsurv.estimators.explicit_riesz

    def counting(r, *args):
        widths.append(r.shape[1])
        return original(r, *args)

    monkeypatch.setattr(cfsurv.estimators, "explicit_riesz", counting)
    run_estimator(data, "dr", _TIMES, seed=3, nuisances=nuisances)
    assert widths == [max(_TIMES) + 1] * (2 * len(nuisances.folds))


@pytest.mark.parametrize(
    "p1, warned",
    [
        ({0: PROPENSITY_FLOOR}, 1),  # a treated unit's weight at the floor
        ({0: PROPENSITY_FLOOR, 2: 1.0 - PROPENSITY_FLOOR / 2}, 2),  # both arms
        ({}, 0),
    ],
    ids=["one-arm", "both-arms", "interior"],
)
def test_ipw_warns_once_per_arm_with_floor_weights(p1, warned):
    # units 0 and 2 have events at 2, so they contribute at every time
    data = Dataset(
        x=np.arange(4.0)[:, None], a=np.array([1, 1, 0, 0]), time=np.array([2, 3, 2, 3]),
        event=np.array([1, 0, 1, 0]), grid=TimeGrid(5),
    )
    nuisances = known_nuisances(
        data,
        censor=_censor_oracle(np.ones(6)),
        propensity=lambda x: np.array([p1.get(i, 0.5) for i in range(len(x))]),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_estimator(data, "ipw", [2, 3, 4], nuisances=nuisances)
    assert [w.category for w in caught] == [LargeWeightWarning] * warned


@pytest.mark.parametrize(
    "labels, message",
    [
        ([-1, 0, 1], r"fold labels must lie in \[0, 2\)"),
        ([0, 1, 2], r"fold labels must lie in \[0, 2\)"),
        ([0, 0, 0], "every fold must be non-empty"),
    ],
    ids=["negative", "past-last-fold", "empty-fold"],
)
def test_fold_plan_rejects_bad_labels(labels, message):
    with pytest.raises(ValueError, match=message):
        FoldPlan(np.array(labels), 2)


def test_fit_and_evaluate_check_no_dataset_again(monkeypatch):
    # folds are subsets of the checked dataset and the censoring fit reads
    # its labels from it, so only the public constructor runs the checks
    data = gen_synthetic(SyntheticConfig(n=120, seed=4))
    checked = []
    check = Dataset.__post_init__

    def counted(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nuisances = fit_nuisances(data, ("dr",), [5, 10], seed=1)
        run_estimator(data, "dr", [5, 10], seed=1, nuisances=nuisances)
    assert len(nuisances.folds) > 1 and checked == []
    Dataset(data.x, data.a, data.time, data.event, data.grid)
    assert len(checked) == 1


def _discrete_hazards(fn, t_max=30):
    """(2, 2, t_max + 1) hazards fn(a, x, u) over [a, x, u], zero at u = 0."""
    a, x, u = np.meshgrid([0, 1], [0, 1], np.arange(t_max + 1), indexing="ij")
    h = np.broadcast_to(fn(a, x, u), a.shape).astype(float)
    h[:, :, 0] = 0.0
    return h


# the discrete model of the exact-expectation oracle and wrong working
# models of its nuisances; every denominator stays above dr-clip's floor
_P_X1, _P_A1 = 0.4, np.array([0.35, 0.65])
_EVENT = _discrete_hazards(lambda a, x, u: 0.02 + 0.02 * a + 0.03 * x + 0.001 * u)
_CENSOR = _discrete_hazards(
    lambda a, x, u: np.where(u == 30, 1.0, 0.02 + 0.01 * (1 - a) + 0.02 * x))
_WRONG = {"event": _discrete_hazards(lambda a, x, u: 0.08),
          "censor": _discrete_hazards(lambda a, x, u: 0.05),
          "propensity": lambda x: np.full(len(x), 0.5)}


def _hazard_fn(h):
    return lambda x, a, u: h[a, x[:, 0].astype(int), u]


@pytest.mark.parametrize(
    "kind, event_right, censoring_right",
    [("or", True, None), ("or", False, None)]
    + [(kind, e, c) for kind in ("dr", "dr-clip") for e in (True, False) for c in (True, False)],
    ids=lambda v: {True: "right", False: "wrong", None: "none"}.get(v, v),
)
def test_exact_expectation_is_psi_where_identification_holds(kind, event_right, censoring_right):
    # the probability-weighted mean of each (fold, arm)'s summands over
    # every outcome of a discrete model is the estimator's expectation:
    # or's needs the right event hazard; dr's and dr-clip's need either it
    # or the right censoring hazard and propensity. ipw's case waits for
    # one tie convention: it divides by G_T where an event at T was
    # observed with probability G_{T-1}
    data, weights = discrete_outcomes(_P_X1, _P_A1, _EVENT, _CENSOR)
    times = [1, 5, 10, 15, 20, 25, 29, 30]
    models = [_hazard_fn(_EVENT if event_right else _WRONG["event"])]
    if censoring_right:
        models += [_hazard_fn(_CENSOR), lambda x: _P_A1[x[:, 0].astype(int)]]
    elif censoring_right is not None:
        models += [_hazard_fn(_WRONG["censor"]), _WRONG["propensity"]]
    curves = known_nuisances(data, *models).folds[0][2]
    survival = np.cumprod(1.0 - _EVENT, axis=2)
    for a in (0, 1):
        psi = (1 - _P_X1) * survival[a, 0, times] + _P_X1 * survival[a, 1, times]
        block, errors = _summands(kind, _spec(kind).clip, data, a, times, curves[a], None, 1.0)
        assert errors == {}
        gap = np.abs(block @ weights - psi)
        if event_right or censoring_right:
            assert gap.max() <= 1e-12
        else:
            assert gap.max() > 1e-3
