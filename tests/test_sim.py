import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import cfsurv.sim
from cfsurv.cli import main
from cfsurv.dgp import ground_truth
from cfsurv.errors import HarnessError, NumericalError
from cfsurv.sim import (
    MetricsRow,
    ReplicationResult,
    SimulationConfig,
    derive_seed,
    metrics,
    metrics_csv_bytes,
    nominal_coverage,
    risb_rise,
    run_replications,
    run_single_replication,
    splitmix64,
    summarize,
)
from cfsurv.survival import read_csv


def test_splitmix64_known_vectors():
    # first outputs of the splitmix64 streams seeded with 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    # second output of the seed-0 stream = output at the advanced state
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_derive_seed_is_xor():
    assert derive_seed(12345, 3) == (12345 ^ splitmix64(3))
    assert derive_seed(0, 0) == splitmix64(0)
    assert derive_seed(2**64 - 1, 7) < 2**64


def test_metrics_all_exact():
    # 0.25 is dyadic, so identical estimates give exactly zero spread
    row = metrics(np.full(10, 0.25), truth=0.25)
    assert row.rmse == 0.0 and row.bias == 0.0 and row.std_err == 0.0
    assert row.bias_over_stde == 0.0
    assert row.mse == 0.0 and row.mae == 0.0


def test_metrics_hand_example():
    row = metrics(np.array([0.0, 2.0]), truth=1.0)
    assert row.bias == pytest.approx(0.0, abs=1e-15)
    assert row.std_err == pytest.approx(1.0, abs=1e-15)
    assert row.rmse == pytest.approx(1.0, abs=1e-15)
    assert row.mae == pytest.approx(1.0, abs=1e-15)


def test_metrics_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        est = rng.normal(size=50)
        row = metrics(est, truth=float(rng.normal()))
        assert row.rmse**2 == pytest.approx(row.bias**2 + row.std_err**2, abs=1e-10)
        assert row.mse == pytest.approx(row.rmse**2, abs=1e-15)


def test_metrics_excludes_failures():
    est = np.array([1.0, np.nan, 3.0, np.nan])
    row = metrics(est, truth=2.0)
    assert row.n_failed == 2
    assert row.q == 4
    assert row.bias == pytest.approx(0.0, abs=1e-15)


def test_metrics_needs_two_successes():
    with pytest.raises(HarnessError):
        metrics(np.array([1.0, np.nan]), truth=0.0)


def test_metrics_coverage_counts():
    est = np.array([0.0, 1.0, 2.0])
    lo = np.array([-0.5, 0.5, 1.5])
    hi = np.array([0.5, 1.5, 2.5])
    row = metrics(est, truth=1.0, ci_records=(lo, hi))
    assert row.coverage == pytest.approx(1.0 / 3.0)


def test_metrics_relative_rmse():
    # against a truth of 1, or's estimates have rmse 2 and dr's rmse 1
    estimates = {"or": np.array([[-1.0], [3.0]]), "dr": np.array([[0.0], [2.0]])}
    truth = SimpleNamespace(delta=np.ones(31))

    def relative_rmse(kinds):
        cfg = SimulationConfig(q=2, n=10, estimators=kinds, times=(5,))
        bounds = {k: np.full((2, 1), np.nan) for k in kinds}
        result = ReplicationResult(
            cfg, [0, 1], {k: estimates[k] for k in kinds}, bounds, bounds
        )
        return {row.estimator: row.relative_rmse for row in summarize(result, truth)}

    got = relative_rmse(("or", "dr"))
    assert got["dr"] == pytest.approx(0.5) and got["or"] == 1.0
    assert relative_rmse(("dr",)) == {"dr": None}


def test_relative_rmse_is_empty_where_or_is_exact(tmp_path):
    # at t = 0 every effect estimate is 0, so or's rmse is 0
    out = tmp_path / "z.csv"
    assert main(["simulate", "--n", "40", "--q", "2", "--estimators", "or", "--times", "0",
                 "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert [row[header.index("relative_rmse")] for row in rows] == [""]
    assert float(rows[0][header.index("rmse")]) == 0.0


def test_risb_rise_exact_cases():
    est = np.tile(np.array([0.2, 0.4, 0.6]), (5, 1))
    truth = np.array([0.2, 0.4, 0.6])
    assert risb_rise(est, truth) == (0.0, 0.0)
    single = np.array([[0.0], [2.0]])
    risb, rise = risb_rise(single, np.array([1.0]))
    assert risb == pytest.approx(0.0, abs=1e-15)  # |bias| at one time point
    assert rise == pytest.approx(1.0, abs=1e-15)  # rmse at one time point


def test_risb_rise_brute_force_oracle():
    rng = np.random.default_rng(9)
    est = rng.normal(size=(7, 4))
    truth = rng.normal(size=4)
    risb, rise = risb_rise(est, truth)
    q, t = est.shape
    risb_loop = np.sqrt(
        sum((np.mean(est[:, u]) - truth[u]) ** 2 for u in range(t)) / t
    )
    rise_loop = np.sqrt(
        sum(sum((est[qq, u] - truth[u]) ** 2 for u in range(t)) / t for qq in range(q)) / q
    )
    assert risb == pytest.approx(risb_loop, abs=1e-12)
    assert rise == pytest.approx(rise_loop, abs=1e-12)


def test_nominal_coverage_values():
    assert nominal_coverage(0.0) == pytest.approx(0.95, abs=1e-6)
    assert nominal_coverage(1.3) == pytest.approx(0.7448, abs=5e-4)
    assert nominal_coverage(0.5) == pytest.approx(0.9209, abs=5e-4)
    assert nominal_coverage(-1.3) == nominal_coverage(1.3)


def test_empirical_coverage_matches_nominal():
    rng = np.random.default_rng(31)
    q, se, bias_ratio, truth = 2000, 0.2, 1.0, 0.7
    est = rng.normal(loc=truth + bias_ratio * se, scale=se, size=q)
    lo = est - 1.959964 * se
    hi = est + 1.959964 * se
    row = metrics(est, truth, ci_records=(lo, hi))
    nominal = nominal_coverage(bias_ratio)
    se_binom = np.sqrt(nominal * (1 - nominal) / q)
    assert abs(row.coverage - nominal) <= 3 * se_binom


def _fake_estimator(point_by_t, fail=False):
    def fn(data, times, params, seed):
        if fail:
            raise NumericalError("boom")
        results = {
            ("diff", t): SimpleNamespace(
                point=point_by_t[t], ci_low=point_by_t[t] - 1, ci_high=point_by_t[t] + 1
            )
            for t in times
        }
        return results, {}

    return fn


def _stub_estimators(monkeypatch, fns):
    # skip the nuisance fits and route each kind to fns[kind](data, times, params, seed)
    monkeypatch.setattr(cfsurv.sim, "fit_nuisances", lambda *args, **kwargs: None)
    monkeypatch.setattr(
        cfsurv.sim,
        "run_estimator",
        lambda data, kind, times, params, seed, nuisances: fns[kind](data, times, params, seed),
    )


def test_run_replications_shapes_and_determinism(monkeypatch):
    cfg = SimulationConfig(
        q=3, n=40, estimators=("or",), times=(3, 6), master_seed=5
    )
    _stub_estimators(monkeypatch, {"or": _fake_estimator({3: 0.1, 6: 0.2})})
    first = run_replications(cfg)
    second = run_replications(cfg)
    assert first.estimates["or"].shape == (3, 2)
    np.testing.assert_array_equal(first.estimates["or"], second.estimates["or"])
    assert first.seeds == [derive_seed(5, q) for q in range(3)]


def test_run_single_replication_repeatable():
    cfg = SimulationConfig(q=2, n=30, estimators=("or",), times=(4,), master_seed=1)
    one = run_single_replication(cfg, seed=99)
    two = run_single_replication(cfg, seed=99)
    assert one["or"][4] == two["or"][4]


def test_single_arm_replication_fails_its_cells():
    # assignment probability 1e-9: no unit is treated, so no estimator has
    # an arm-1 fit to read and every cell fails instead of a made-up estimate
    cfg = SimulationConfig(q=2, n=40, assign_scale=1e-9, estimators=("or", "balance"),
                           times=(3, 6), master_seed=5)
    cells = run_single_replication(cfg, seed=21)
    assert cells == {kind: {3: None, 6: None} for kind in ("or", "balance")}


def test_run_replications_counts_failures(monkeypatch):
    calls = {"k": 0}

    def flaky(data, times, params, seed):
        calls["k"] += 1
        if calls["k"] % 2 == 0:
            raise NumericalError("unstable inverse")
        return _fake_estimator({4: 0.5})(data, times, params, seed)

    cfg = SimulationConfig(q=4, n=30, estimators=("or",), times=(4,), master_seed=2)
    _stub_estimators(monkeypatch, {"or": flaky})
    result = run_replications(cfg)
    n_failed = int(np.isnan(result.estimates["or"]).sum())
    assert n_failed == 2
    row = metrics(result.estimates["or"][:, 0], truth=0.5)
    assert row.n_failed == 2


def test_run_replications_all_failures_is_harness_error(monkeypatch):
    cfg = SimulationConfig(q=2, n=30, estimators=("or",), times=(4,), master_seed=3)
    _stub_estimators(monkeypatch, {"or": _fake_estimator({}, fail=True)})
    with pytest.raises(HarnessError):
        run_replications(cfg)


def test_summarize_sets_or_baseline(monkeypatch):
    cfg = SimulationConfig(
        q=3, n=40, estimators=("or", "balance"), times=(15,), master_seed=5
    )
    _stub_estimators(monkeypatch, {
        "or": _fake_estimator({15: 0.3}),
        "balance": _fake_estimator({15: 0.2}),
    })
    result = run_replications(cfg)
    truth = ground_truth()
    rows = summarize(result, truth)
    by_kind = {r.estimator: r for r in rows}
    assert by_kind["or"].relative_rmse == pytest.approx(1.0)
    assert by_kind["balance"].relative_rmse is not None


def test_metrics_csv_schema():
    row = MetricsRow(
        estimator="or", t=15, n=200, q=50, rmse=0.1, relative_rmse=None, mae=0.08,
        mse=0.01, bias=0.02, std_err=0.098, bias_over_stde=0.2, coverage=0.94,
        n_failed=0,
    )
    payload = metrics_csv_bytes([row]).decode()
    header, line = payload.strip().split("\n")
    assert header == (
        "estimator,t,n,Q,rmse,relative_rmse,mae,mse,bias,std_err,"
        "bias_over_stde,coverage,n_failed"
    )
    cells = line.split(",")
    assert cells[0] == "or" and cells[5] == ""  # absent baseline stays empty
    sweep_payload = metrics_csv_bytes([row], sweep=True).decode()
    assert sweep_payload.splitlines()[0].endswith("n_failed,xi,risb,rise")


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(q=1, n=10)
    with pytest.raises(ValueError):
        SimulationConfig(q=2, n=10, dgp="other")
    with pytest.raises(ValueError):
        SimulationConfig(q=2, n=10, estimators=())
    with pytest.raises(ValueError, match="unknown estimator 'zzz'"):
        SimulationConfig(q=2, n=10, estimators=("zzz",))
    with pytest.raises(ValueError):
        SimulationConfig(q=2, n=10, times=(40,))


def test_twins_like_replications_end_to_end():
    from cfsurv.dgp import TwinsLikeConfig, twins_ground_truth

    cfg = SimulationConfig(
        q=2, n=60, dgp="twins-like", estimators=("or",), times=(5,), master_seed=8
    )
    result = run_replications(cfg)
    assert np.isfinite(result.estimates["or"]).all()
    x, t0, t1 = result.config.twins_table
    truth = twins_ground_truth(TwinsLikeConfig(x=x, t0=t0, t1=t1))
    rows = summarize(result, truth)
    assert rows[0].estimator == "or" and np.isfinite(rows[0].rmse)


def test_replication_shares_nuisance_fits(monkeypatch):
    import cfsurv.estimators as est

    calls = {"fit_hazards": 0, "fit_event_hazard": 0, "fit_censor_hazard": 0, "fit_propensity": 0}
    for name in calls:
        original = getattr(est, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(est, name, counting)
    kinds = ("or", "ipw", "dr", "dr-clip", "balance")

    def run(kinds):
        cfg = SimulationConfig(q=2, n=60, estimators=kinds, times=(3, 6), master_seed=4)
        return run_single_replication(cfg, seed=17)

    shared = run(kinds)
    # one fit per fold count: or and ipw share one whole-sample fit_hazards
    # call, dr and dr-clip one per fold (5); balance's 2 folds fit the event
    # hazard alone; the whole sample and the dr folds fit a propensity
    assert calls == {
        "fit_hazards": 6, "fit_event_hazard": 2, "fit_censor_hazard": 0, "fit_propensity": 6
    }
    for kind in ("dr", "dr-clip", "balance"):
        assert shared[kind] == run((kind,))[kind]
    # or and ipw read the joint fit of both hazards, which reorders the
    # Gram products of a fit of one: the same bytes as a run of the pair,
    # and within 1e-10 of the one-kind runs
    pair = run(("or", "ipw"))
    for kind in ("or", "ipw"):
        assert shared[kind] == pair[kind]
        alone = run((kind,))[kind]
        assert all(cell is not None for cell in alone.values())
        np.testing.assert_allclose(
            [shared[kind][t] for t in (3, 6)], [alone[t] for t in (3, 6)], rtol=1e-10, atol=0
        )


def _count_predictions(monkeypatch):
    """Count Gram builds and kernel hazard predictions, by name."""
    import cfsurv.estimators as est
    import cfsurv.hazard as hz

    calls = {"gram": 0, "hazard_matrix": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(est, "gram")
    counting(hz, "gram")
    counting(hz.KernelHazardModel, "hazard_matrix")
    return calls


def test_dr_clip_reads_the_curves_of_dr(monkeypatch):
    # dr-clip evaluated on dr's fit builds no Gram and predicts nothing
    runs = {}
    for kinds in (("dr",), ("dr", "dr-clip"), ("or", "ipw", "dr", "dr-clip", "balance")):
        calls = _count_predictions(monkeypatch)
        cfg = SimulationConfig(q=2, n=60, estimators=kinds, times=(3, 6), master_seed=4)
        run_single_replication(cfg, seed=17)
        runs[kinds] = dict(calls)
        monkeypatch.undo()
    assert runs[("dr",)] == runs[("dr", "dr-clip")] == {"gram": 20, "hazard_matrix": 20}
    # per fold, a training and a prediction Gram per arm: or and ipw's
    # shared fit 4 + dr 20 + balance 8, and balance's 4 solve blocks, one
    # per fold and arm; per arm, one prediction per hazard model and fold:
    # or 1, ipw 1, dr 10, balance 2
    assert runs[("or", "ipw", "dr", "dr-clip", "balance")] == {"gram": 36, "hazard_matrix": 28}


def test_replication_releases_each_fit_after_its_last_kind(monkeypatch):
    # one fit per fold count, in order of first appearance, each freed
    # before the next fit runs
    live, seen = [], []
    original = cfsurv.sim.fit_nuisances

    def tracking(data, kinds, *args, **kwargs):
        seen.append((kinds, [k for k, ref in live if ref() is not None]))
        nuisances = original(data, kinds, *args, **kwargs)
        live.append((kinds, weakref.ref(nuisances)))
        return nuisances

    monkeypatch.setattr(cfsurv.sim, "fit_nuisances", tracking)
    kinds = ("or", "dr", "ipw", "dr-clip", "balance")
    cfg = SimulationConfig(q=2, n=60, estimators=kinds, times=(3, 6), master_seed=4)
    run_single_replication(cfg, seed=17)
    assert seen == [(("or", "ipw"), []), (("dr", "dr-clip"), []), (("balance",), [])]


def test_a_failed_fit_fails_every_kind_it_serves(monkeypatch):
    # or and ipw share one fit, so its failure fails both; a failed
    # evaluation of dr fails dr alone, and dr-clip still reads their fit
    fit, evaluate = cfsurv.sim.fit_nuisances, cfsurv.sim.run_estimator

    def failing_fit(data, kinds, *args, **kwargs):
        if kinds == ("or", "ipw"):
            raise NumericalError("singular fit")
        return fit(data, kinds, *args, **kwargs)

    def failing_evaluation(data, kind, *args, **kwargs):
        if kind == "dr":
            raise NumericalError("zero denominator")
        return evaluate(data, kind, *args, **kwargs)

    monkeypatch.setattr(cfsurv.sim, "fit_nuisances", failing_fit)
    monkeypatch.setattr(cfsurv.sim, "run_estimator", failing_evaluation)
    kinds = ("or", "dr", "ipw", "dr-clip", "balance")
    cfg = SimulationConfig(q=2, n=60, estimators=kinds, times=(3, 6), master_seed=4)
    cells = run_single_replication(cfg, seed=17)
    assert list(cells) == list(kinds)
    for kind in ("or", "ipw", "dr"):
        assert cells[kind] == {3: None, 6: None}
    for kind in ("dr-clip", "balance"):
        assert all(cell is not None for cell in cells[kind].values())
