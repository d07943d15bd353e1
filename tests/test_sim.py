from types import SimpleNamespace

import numpy as np
import pytest

from cfsurv.dgp import SyntheticConfig, ground_truth
from cfsurv.errors import HarnessError, NumericalError
from cfsurv.sim import (
    MetricsRow,
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
    est = np.array([0.0, 2.0])
    row = metrics(est, truth=1.0, rmse_baseline=2.0)
    assert row.relative_rmse == pytest.approx(0.5)
    row_absent = metrics(est, truth=1.0)
    assert row_absent.relative_rmse is None


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


def test_run_replications_shapes_and_determinism():
    cfg = SimulationConfig(
        q=3, n=40, estimators=("or",), times=(3, 6), master_seed=5
    )
    fns = {"or": _fake_estimator({3: 0.1, 6: 0.2})}
    first = run_replications(cfg, estimator_fns=fns)
    second = run_replications(cfg, estimator_fns=fns)
    assert first.estimates["or"].shape == (3, 2)
    np.testing.assert_array_equal(first.estimates["or"], second.estimates["or"])
    assert first.seeds == [derive_seed(5, q) for q in range(3)]


def test_run_single_replication_repeatable():
    cfg = SimulationConfig(q=2, n=30, estimators=("or",), times=(4,), master_seed=1)
    one = run_single_replication(cfg, seed=99)
    two = run_single_replication(cfg, seed=99)
    assert one["or"][4] == two["or"][4]


def test_run_replications_counts_failures():
    calls = {"k": 0}

    def flaky(data, times, params, seed):
        calls["k"] += 1
        if calls["k"] % 2 == 0:
            raise NumericalError("unstable inverse")
        return _fake_estimator({4: 0.5})(data, times, params, seed)

    cfg = SimulationConfig(q=4, n=30, estimators=("or",), times=(4,), master_seed=2)
    result = run_replications(cfg, estimator_fns={"or": flaky})
    n_failed = int(np.isnan(result.estimates["or"]).sum())
    assert n_failed == 2
    row = metrics(result.estimates["or"][:, 0], truth=0.5)
    assert row.n_failed == 2


def test_run_replications_all_failures_is_harness_error():
    cfg = SimulationConfig(q=2, n=30, estimators=("or",), times=(4,), master_seed=3)
    with pytest.raises(HarnessError):
        run_replications(cfg, estimator_fns={"or": _fake_estimator({}, fail=True)})


def test_summarize_sets_or_baseline():
    cfg = SimulationConfig(
        q=3, n=40, estimators=("or", "balance"), times=(15,), master_seed=5
    )
    fns = {
        "or": _fake_estimator({15: 0.3}),
        "balance": _fake_estimator({15: 0.2}),
    }
    result = run_replications(cfg, estimator_fns=fns)
    truth = ground_truth(SyntheticConfig(n=2, seed=0), mc_n=10_000, seed=0)
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
    with pytest.raises(ValueError, match="unknown estimators: zzz"):
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

    calls = {"fit_event_hazard": 0, "fit_censor_hazard": 0, "fit_propensity": 0}
    for name in calls:
        original = getattr(est, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(est, name, counting)
    kinds = ("or", "ipw", "dr", "dr-clip", "balance")
    cfg = SimulationConfig(q=2, n=60, estimators=kinds, times=(3, 6), master_seed=4)
    shared = run_single_replication(cfg, seed=17)
    assert calls == {"fit_event_hazard": 8, "fit_censor_hazard": 6, "fit_propensity": 6}
    for kind in kinds:
        alone = run_single_replication(SimulationConfig(
            q=2, n=60, estimators=(kind,), times=(3, 6), master_seed=4
        ), seed=17)
        assert shared[kind] == alone[kind]
